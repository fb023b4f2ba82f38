package interp

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"

	"manimal/internal/lang"
	"manimal/internal/serde"
)

// Executor runs the Map and Reduce functions of one program. It carries the
// program's package-level variable state, which — exactly like Java member
// variables in the paper (Figure 2) — persists across invocations within a
// task and is what the analyzer's isFunc test protects against.
//
// An Executor is not safe for concurrent use; the engine creates one per
// task, which also gives each task its own member-variable state, matching
// per-JVM task state in Hadoop. That contract is also what lets the
// executor reuse its frames and argument stack across invocations.
type Executor struct {
	prog     *lang.Program
	globals  map[string]*Value
	compiled map[string]*compiledFunc
	// frames is the depth-indexed frame stack: frames[0] is the stage
	// function's invocation frame, frames[d] the frame of the helper call d
	// levels below it. Frames are created on first use and reused, so a
	// helper call allocates nothing once its depth has been reached before.
	frames []*frame
	// stack holds call arguments between their evaluation and the call
	// (see compiler.args): push n, call, pop.
	stack []Value
	// keyBuf is the scratch buffer map keys are encoded into (see mapKey).
	keyBuf []byte
	// batchRec is the reused late-materialization record of InvokeMapBatch
	// (see batch.go), created lazily against the first batch's schema.
	batchRec *serde.Record
}

// New creates an executor for the program with freshly-initialized
// package-level variables. Every function body — stage functions and
// helpers alike — is lowered once into a chain of Go closures (see
// compile.go); that is the only way a program executes.
func New(p *lang.Program) (*Executor, error) {
	ex := &Executor{prog: p, globals: make(map[string]*Value)}
	for name, g := range p.Globals {
		v, err := globalInit(g)
		if err != nil {
			return nil, err
		}
		ex.globals[name] = &v
	}
	ex.compiled = compileProgram(ex)
	return ex, nil
}

// Compiled reports whether the named function has been lowered to
// closures, which holds for every function the program defines.
func (ex *Executor) Compiled(fn string) bool {
	return ex.compiled[fn] != nil
}

// globalInit evaluates a package-level variable's initial value. lang.Parse
// admits only what this accepts, so the errors guard hand-built programs.
func globalInit(g *lang.Global) (Value, error) {
	if g.Init != nil {
		lit, ok := g.Init.(*ast.BasicLit)
		if !ok {
			return Value{}, fmt.Errorf("interp: global %q initializer must be a literal", g.Name)
		}
		return litValue(lit)
	}
	switch g.Type {
	case "int", "int64":
		return IntVal(0), nil
	case "float64":
		return FloatVal(0), nil
	case "string":
		return StrVal(""), nil
	case "bool":
		return BoolVal(false), nil
	default:
		return Value{}, fmt.Errorf("interp: unsupported global type %q for %q", g.Type, g.Name)
	}
}

// InvokeMap runs Map(k, v, ctx).
func (ex *Executor) InvokeMap(k serde.Datum, v *serde.Record, ctx *Context) error {
	cf := ex.compiled[lang.MapFuncName]
	if len(cf.params) != 3 {
		return fmt.Errorf("interp: Map must take (k, v, ctx), has %d params", len(cf.params))
	}
	fr := ex.enter(0, cf, ctx)
	fr.bind(cf.params[0], Scalar(k))
	fr.bind(cf.params[1], RecordVal(v))
	fr.bind(cf.params[2], Value{}) // ctx: accessed only via method calls
	_, err := cf.body(fr)
	return err
}

// InvokeReduce runs Reduce(key, values, ctx).
func (ex *Executor) InvokeReduce(key serde.Datum, values ValueIter, ctx *Context) error {
	return ex.invokeReduceLike(lang.ReduceFuncName, key, values, ctx)
}

// InvokeCombine runs the optional Combine(key, values, ctx).
func (ex *Executor) InvokeCombine(key serde.Datum, values ValueIter, ctx *Context) error {
	return ex.invokeReduceLike(lang.CombineFuncName, key, values, ctx)
}

func (ex *Executor) invokeReduceLike(name string, key serde.Datum, values ValueIter, ctx *Context) error {
	cf := ex.compiled[name]
	if cf == nil {
		return fmt.Errorf("interp: program has no %s function", name)
	}
	if len(cf.params) != 3 {
		return fmt.Errorf("interp: %s must take (key, values, ctx), has %d params", name, len(cf.params))
	}
	fr := ex.enter(0, cf, ctx)
	fr.bind(cf.params[0], Scalar(key))
	fr.bind(cf.params[1], Value{}) // values, ctx: accessed only via method calls
	fr.bind(cf.params[2], Value{})
	fr.iter = values
	_, err := cf.body(fr)
	return err
}

// frame is the execution state of one function activation. The mapper
// language forbids shadowing, so a single flat scope per activation is
// exact — and because validation assigns every bindable name a dense slot
// (lang.Function.Slots), that scope is a flat array addressed by indexes
// the compiler resolved once.
type frame struct {
	ex      *Executor
	ctx     *Context
	slots   []Value
	defined []bool
	// The reduce value iterator and its current element; only the stage
	// frame (depth 0) of a Reduce or Combine invocation has one.
	iter    ValueIter
	iterCur EmitValue
	iterOK  bool
	// ret carries a helper's return value out of its body; depth is the
	// frame's index in Executor.frames and bounds the helper call chain.
	ret   Value
	depth int
}

// enter resets and returns the frame at depth for an activation of cf. The
// stage functions enter at depth 0, a helper one below its caller. The
// Executor's single-threaded contract makes the reuse safe; it keeps the
// per-record hot path allocation-free.
func (ex *Executor) enter(depth int, cf *compiledFunc, ctx *Context) *frame {
	if depth == len(ex.frames) {
		ex.frames = append(ex.frames, &frame{ex: ex, depth: depth})
	}
	fr := ex.frames[depth]
	if depth == 0 {
		// A new invocation: drop the arguments a failed one left behind and
		// the previous key group's iterator (helper frames never have one).
		ex.stack = ex.stack[:0]
		fr.iter = nil
		fr.iterCur = EmitValue{}
		fr.iterOK = false
	}
	if cap(fr.slots) < cf.nslots {
		fr.slots = make([]Value, cf.nslots)
		fr.defined = make([]bool, cf.nslots)
	}
	fr.slots = fr.slots[:cf.nslots]
	fr.defined = fr.defined[:cf.nslots]
	clear(fr.slots)
	clear(fr.defined)
	fr.ctx = ctx
	fr.ret = Value{}
	return fr
}

// bind stores v in a slot and marks it defined; slot -1 (the blank
// identifier) discards it.
func (fr *frame) bind(slot int, v Value) {
	if slot >= 0 {
		fr.slots[slot] = v
		fr.defined[slot] = true
	}
}

// maxCallDepth bounds user-helper call chains; recursive helpers are legal
// to run (the analyzer simply refuses to summarize them) but must not be
// able to blow the Go stack.
const maxCallDepth = 64

// errNotLocal is the runtime error of binding (:=, var, range) a name that
// has no frame slot, i.e. a package-level variable: the language forbids
// shadowing, and a range clause cannot target a global.
func errNotLocal(name string) error {
	return fmt.Errorf("interp: cannot bind %q as a local variable: it is a package-level variable", name)
}

// ctrl is the control-flow outcome of a statement.
type ctrl uint8

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// maxLoopIterations bounds runaway loops; mapper functions process one
// record per invocation, so this is generous.
const maxLoopIterations = 10_000_000

func zeroValue(t ast.Expr) (Value, error) {
	switch tt := t.(type) {
	case *ast.Ident:
		switch tt.Name {
		case "int", "int64":
			return IntVal(0), nil
		case "float64":
			return FloatVal(0), nil
		case "string":
			return StrVal(""), nil
		case "bool":
			return BoolVal(false), nil
		}
	case *ast.MapType:
		return NewMapVal(), nil
	}
	return Value{}, fmt.Errorf("interp: unsupported var type")
}

func litValue(l *ast.BasicLit) (Value, error) {
	switch l.Kind {
	case token.INT:
		v, err := strconv.ParseInt(l.Value, 0, 64)
		if err != nil {
			return Value{}, err
		}
		return IntVal(v), nil
	case token.FLOAT:
		v, err := strconv.ParseFloat(l.Value, 64)
		if err != nil {
			return Value{}, err
		}
		return FloatVal(v), nil
	case token.STRING:
		v, err := strconv.Unquote(l.Value)
		if err != nil {
			return Value{}, err
		}
		return StrVal(v), nil
	case token.CHAR:
		v, _, _, err := strconv.UnquoteChar(l.Value[1:len(l.Value)-1], '\'')
		if err != nil {
			return Value{}, err
		}
		return IntVal(int64(v)), nil
	default:
		return Value{}, fmt.Errorf("interp: unsupported literal %s", l.Kind)
	}
}
