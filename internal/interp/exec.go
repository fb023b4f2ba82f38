package interp

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"math"
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
	// The stage functions, looked up once: an invocation per record or key
	// group should not hash a name first. Reduce and Combine may be nil.
	mapFn, reduceFn, combineFn *compiledFunc
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
	// maxLoop and maxDepth bound runaway loops and helper call chains
	// (maxLoopIterations, maxCallDepth); the differential fuzzer, which
	// executes whatever it generates, lowers them.
	maxLoop, maxDepth int
	// batchRec is the reused late-materialization record of InvokeMapBatch
	// (see batch.go), created lazily against the first batch's schema — and
	// only for programs whose Map uses its record parameter opaquely.
	batchRec *serde.Record
}

// New creates an executor for the program with freshly-initialized
// package-level variables. Every function body — stage functions and
// helpers alike — is lowered once into a chain of Go closures (see
// compile.go); that is the only way a program executes. The error is for
// hand-built programs lang.Parse would have rejected.
func New(p *lang.Program) (*Executor, error) {
	ex := &Executor{prog: p, globals: make(map[string]*Value), maxLoop: maxLoopIterations, maxDepth: maxCallDepth}
	for name, g := range p.Globals {
		v, err := globalInit(g)
		if err != nil {
			return nil, err
		}
		ex.globals[name] = &v
	}
	compiled, err := compileProgram(ex)
	if err != nil {
		return nil, err
	}
	ex.compiled = compiled
	ex.mapFn, ex.reduceFn, ex.combineFn = compiled[lang.MapFuncName], compiled[lang.ReduceFuncName], compiled[lang.CombineFuncName]
	return ex, nil
}

// Compiled reports whether the named function has been lowered to
// closures, which holds for every function the program defines.
func (ex *Executor) Compiled(fn string) bool {
	return ex.compiled[fn] != nil
}

// BoxedSites lists, in source form and lowering order, the expressions of
// the named function whose value is still built as a boxed Value at run
// time: the dynamic sites, plus the typed ones a dynamic consumer boxes (see
// compile.go). Everything else in the function runs on typed closures. It is
// the inventory TestPaperProgramsLowerTyped pins, so that a change to the
// compiler cannot silently send a paper program back to the boxed path.
func (ex *Executor) BoxedSites(fn string) []string {
	cf := ex.compiled[fn]
	if cf == nil {
		return nil
	}
	sites := make([]string, len(cf.boxed))
	for i, e := range cf.boxed {
		sites[i] = types.ExprString(e)
	}
	return sites
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

// mapFunc returns the compiled Map, checked to be invocable.
func (ex *Executor) mapFunc() (*compiledFunc, error) {
	cf := ex.mapFn
	if len(cf.params) != 3 {
		return nil, fmt.Errorf("interp: Map must take (k, v, ctx), has %d params", len(cf.params))
	}
	return cf, nil
}

// InvokeMap runs Map(k, v, ctx) over one record, for callers that hold a
// record rather than a batch; the engine maps every input through
// InvokeMapBatch. Field reads bound to columns under InvokeMapBatch read v
// instead.
func (ex *Executor) InvokeMap(k serde.Datum, v *serde.Record, ctx *Context) error {
	cf, err := ex.mapFunc()
	if err != nil {
		return err
	}
	fr := ex.enter(0, cf, ctx)
	fr.rec = v
	fr.bindStage(cf, k)
	if cf.readsRecord() {
		fr.bind(cf.params[1], RecordVal(v))
	}
	_, err = cf.body(fr)
	return err
}

// bindStage binds the key and ctx parameters of a stage function as far as
// its body reads them as values; the caller does the same for the middle
// parameter. Often none is read: Map rarely uses its key, field reads of
// its record go through their sites, and ctx and the iterator are receivers
// of method calls.
func (fr *frame) bindStage(cf *compiledFunc, key serde.Datum) {
	if cf.reads[0] {
		fr.bind(cf.params[0], Scalar(key))
	}
	if cf.reads[2] {
		fr.bind(cf.params[2], Value{})
	}
}

// InvokeReduce runs Reduce(key, values, ctx).
func (ex *Executor) InvokeReduce(key serde.Datum, values ValueIter, ctx *Context) error {
	return ex.invokeReduceLike(ex.reduceFn, lang.ReduceFuncName, key, values, ctx)
}

// InvokeCombine runs the optional Combine(key, values, ctx).
func (ex *Executor) InvokeCombine(key serde.Datum, values ValueIter, ctx *Context) error {
	return ex.invokeReduceLike(ex.combineFn, lang.CombineFuncName, key, values, ctx)
}

func (ex *Executor) invokeReduceLike(cf *compiledFunc, name string, key serde.Datum, values ValueIter, ctx *Context) error {
	if cf == nil {
		return fmt.Errorf("interp: program has no %s function", name)
	}
	if len(cf.params) != 3 {
		return fmt.Errorf("interp: %s must take (key, values, ctx), has %d params", name, len(cf.params))
	}
	fr := ex.enter(0, cf, ctx)
	fr.bindStage(cf, key)
	if cf.reads[1] {
		fr.bind(cf.params[1], Value{})
	}
	fr.iter = values
	_, err := cf.body(fr)
	return err
}

// frame is the execution state of one function activation. The mapper
// language forbids shadowing, so a single flat scope per activation is
// exact — and because validation assigns every bindable name a dense slot
// (lang.Function.Slots), that scope is a flat array addressed by indexes
// the compiler resolved once. Slot i lives in typed[i] when the compiler
// gave it a static kind (compiler.infer) and in slots[i], boxed, otherwise;
// defined[i] says whether it has been assigned in this activation.
type frame struct {
	ex      *Executor
	ctx     *Context
	slots   []Value
	typed   []slot
	defined []bool
	// The input row of a Map activation (depth 0), read by the field sites
	// bound to Map's record parameter: row `row` of batch under
	// InvokeMapBatch, else (batch == nil) the record rec under InvokeMap.
	batch *serde.Batch
	row   int
	rec   *serde.Record
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
// per-record hot path allocation-free. Only defined is cleared: a slot's
// stale contents cannot be read before its next definition.
func (ex *Executor) enter(depth int, cf *compiledFunc, ctx *Context) *frame {
	if depth == len(ex.frames) {
		ex.frames = append(ex.frames, &frame{ex: ex, depth: depth})
	}
	fr := ex.frames[depth]
	if depth == 0 {
		// A new invocation: drop the arguments a failed one left behind, the
		// previous key group's iterator and the previous input row (helper
		// frames never have either).
		ex.stack = ex.stack[:0]
		fr.iter = nil
		fr.iterCur = EmitValue{}
		fr.iterOK = false
		fr.batch, fr.rec = nil, nil
	}
	if cap(fr.slots) < cf.nslots {
		fr.slots = make([]Value, cf.nslots)
		fr.typed = make([]slot, cf.nslots)
		fr.defined = make([]bool, cf.nslots)
	}
	fr.slots = fr.slots[:cf.nslots]
	fr.typed = fr.typed[:cf.nslots]
	fr.defined = fr.defined[:cf.nslots]
	clear(fr.defined)
	fr.ctx = ctx
	fr.ret = Value{}
	return fr
}

// bind stores v in a dynamic slot and marks it defined; slot -1 (the blank
// identifier) discards it.
func (fr *frame) bind(slot int, v Value) {
	if slot >= 0 {
		fr.slots[slot] = v
		fr.defined[slot] = true
	}
}

// setInt, setFloat, setStr and setBool define typed slot i.
func (fr *frame) setInt(i int, x int64) {
	fr.typed[i].w = uint64(x)
	fr.defined[i] = true
}

func (fr *frame) setFloat(i int, x float64) {
	fr.typed[i].w = math.Float64bits(x)
	fr.defined[i] = true
}

func (fr *frame) setStr(i int, x string) {
	fr.typed[i].s = x
	fr.defined[i] = true
}

func (fr *frame) setBool(i int, x bool) {
	fr.typed[i].w = 0
	if x {
		fr.typed[i].w = 1
	}
	fr.defined[i] = true
}

// bindKind stores a boxed value in a slot of static kind k: unboxed, if the
// slot is typed. The compiler only routes values of the slot's kind here.
func (fr *frame) bindKind(i int, k kind, v Value) {
	switch k {
	case kInt:
		fr.setInt(i, v.D.Int())
	case kFloat:
		fr.setFloat(i, v.D.Float())
	case kStr:
		fr.setStr(i, v.D.Str())
	case kBool:
		fr.setBool(i, v.D.Flag())
	default:
		fr.bind(i, v)
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
