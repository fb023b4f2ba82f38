package interp

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"

	"manimal/internal/lang"
	"manimal/internal/predicate"
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
// executor reuse one frame (and its slot array) across invocations.
type Executor struct {
	prog     *lang.Program
	globals  map[string]*Value
	compiled map[string]*compiledFunc
	fr       frame // reused invocation frame; see newFrame
	// batchRec is the reused late-materialization record of InvokeMapBatch
	// (see batch.go), created lazily against the first batch's schema.
	batchRec *serde.Record
}

// New creates an executor for the program with freshly-initialized
// package-level variables. Each function body is lowered once into a chain
// of Go closures (see compile.go); any construct the compiler does not
// cover falls back to the AST tree-walker with identical behavior.
func New(p *lang.Program) (*Executor, error) {
	return newExecutor(p, true)
}

// NewTreeWalker creates an executor that always evaluates by walking the
// AST, never through compiled closures: the compiler's reference, for
// debugging and for differential testing against the walker.
func NewTreeWalker(p *lang.Program) (*Executor, error) {
	return newExecutor(p, false)
}

func newExecutor(p *lang.Program, compile bool) (*Executor, error) {
	ex := &Executor{prog: p, globals: make(map[string]*Value)}
	for name, g := range p.Globals {
		v, err := globalInit(g)
		if err != nil {
			return nil, err
		}
		ex.globals[name] = &v
	}
	if compile {
		ex.compiled = compileProgram(ex)
	}
	return ex, nil
}

// Compiled reports whether the named function runs through the compiled
// closure path (as opposed to the tree-walking fallback).
func (ex *Executor) Compiled(fn string) bool {
	return ex.compiled[fn] != nil
}

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
	fn := ex.prog.Map()
	if len(fn.Params) != 3 {
		return fmt.Errorf("interp: Map must take (k, v, ctx), has %d params", len(fn.Params))
	}
	fr := ex.newFrame(ctx, fn)
	fr.define(fn.Params[0].Name, Scalar(k))
	fr.define(fn.Params[1].Name, RecordVal(v))
	fr.define(fn.Params[2].Name, Value{}) // ctx: accessed only via method calls
	fr.ctxParam = fn.Params[2].Name
	if cf := ex.compiled[lang.MapFuncName]; cf != nil {
		_, err := cf.body(fr)
		return err
	}
	_, err := fr.execBlock(fn.Body)
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
	fn := ex.prog.Funcs[name]
	if fn == nil {
		return fmt.Errorf("interp: program has no %s function", name)
	}
	if len(fn.Params) != 3 {
		return fmt.Errorf("interp: %s must take (key, values, ctx), has %d params", name, len(fn.Params))
	}
	fr := ex.newFrame(ctx, fn)
	fr.define(fn.Params[0].Name, Scalar(key))
	fr.define(fn.Params[1].Name, Value{})
	fr.define(fn.Params[2].Name, Value{})
	fr.ctxParam = fn.Params[2].Name
	fr.iterParam = fn.Params[1].Name
	fr.iter = values
	if cf := ex.compiled[name]; cf != nil {
		_, err := cf.body(fr)
		return err
	}
	_, err := fr.execBlock(fn.Body)
	return err
}

// frame is the per-invocation execution state. The mapper language forbids
// shadowing, so a single flat scope per invocation is exact — and because
// validation assigns every bindable name a dense slot (lang.Function.Slots),
// that scope is a flat array rather than a map. Both the compiled closures
// and the tree-walker address variables through the same slots; the walker
// resolves name→slot per access, the compiler resolves it once.
type frame struct {
	ex      *Executor
	ctx     *Context
	fn      *lang.Function
	slots   []Value
	defined []bool
	// extra catches the rare define of a name with no slot (e.g. a range
	// statement assigning into an expression the validator does not model).
	// It is nil on every normal invocation.
	extra     map[string]*Value
	ctxParam  string
	iterParam string
	iter      ValueIter
	iterCur   EmitValue
	iterOK    bool
	// ret carries a helper's return value out of its body; depth bounds the
	// helper call chain (the language admits recursion syntactically, the
	// analyzer just refuses to model it).
	ret   Value
	depth int
}

// newFrame resets and returns the executor's reused invocation frame. The
// Executor's single-threaded contract makes the reuse safe; it keeps the
// per-record hot path allocation-free.
func (ex *Executor) newFrame(ctx *Context, fn *lang.Function) *frame {
	fr := &ex.fr
	n := fn.NumSlots()
	if cap(fr.slots) < n {
		fr.slots = make([]Value, n)
		fr.defined = make([]bool, n)
	}
	fr.slots = fr.slots[:n]
	fr.defined = fr.defined[:n]
	for i := range fr.slots {
		fr.slots[i] = Value{}
		fr.defined[i] = false
	}
	fr.ex = ex
	fr.ctx = ctx
	fr.fn = fn
	fr.extra = nil
	fr.ctxParam = ""
	fr.iterParam = ""
	fr.iter = nil
	fr.iterCur = EmitValue{}
	fr.iterOK = false
	fr.ret = Value{}
	fr.depth = 0
	return fr
}

// maxCallDepth bounds user-helper call chains; recursive helpers are legal
// to run (the analyzer simply refuses to summarize them) but must not be
// able to blow the Go stack.
const maxCallDepth = 64

// callHelper invokes a user-defined helper function in a fresh frame.
// Helper frames are allocated per call — the executor's reused frame is the
// caller's and must stay live — but helper calls only occur on the
// tree-walking path of programs that use them, so the hot compiled path
// stays allocation-free.
func (fr *frame) callHelper(fn *lang.Function, args []Value) (Value, error) {
	if fr.depth >= maxCallDepth {
		return Value{}, fmt.Errorf("interp: call depth exceeded %d in %s (runaway recursion?)", maxCallDepth, fn.Name)
	}
	hf := &frame{ex: fr.ex, ctx: fr.ctx, fn: fn, depth: fr.depth + 1}
	n := fn.NumSlots()
	hf.slots = make([]Value, n)
	hf.defined = make([]bool, n)
	for i, p := range fn.Params {
		hf.define(p.Name, args[i])
	}
	c, err := hf.execBlock(fn.Body)
	if err != nil {
		return Value{}, err
	}
	if c != ctrlReturn {
		return Value{}, fmt.Errorf("interp: helper %s fell off the end without returning", fn.Name)
	}
	return hf.ret, nil
}

func (fr *frame) define(name string, v Value) {
	if name == "_" {
		return
	}
	if i, ok := fr.fn.SlotIndex(name); ok {
		fr.slots[i] = v
		fr.defined[i] = true
		return
	}
	fr.defineExtra(name, v)
}

// defineExtra is kept out of define so that taking v's address here does
// not force every slot-path define to heap-allocate its value.
func (fr *frame) defineExtra(name string, v Value) {
	if fr.extra == nil {
		fr.extra = make(map[string]*Value)
	}
	fr.extra[name] = &v
}

// lookup resolves a variable: locals/params first, then program globals.
func (fr *frame) lookup(name string) (*Value, error) {
	if i, ok := fr.fn.SlotIndex(name); ok && fr.defined[i] {
		return &fr.slots[i], nil
	}
	if v, ok := fr.extra[name]; ok {
		return v, nil
	}
	if v, ok := fr.ex.globals[name]; ok {
		return v, nil
	}
	return nil, fmt.Errorf("interp: undefined variable %q", name)
}

// ctrl is the control-flow outcome of a statement.
type ctrl uint8

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

func (fr *frame) execBlock(b *ast.BlockStmt) (ctrl, error) {
	for _, s := range b.List {
		c, err := fr.execStmt(s)
		if err != nil || c != ctrlNone {
			return c, err
		}
	}
	return ctrlNone, nil
}

func (fr *frame) execStmt(s ast.Stmt) (ctrl, error) {
	switch st := s.(type) {
	case *ast.AssignStmt:
		return ctrlNone, fr.execAssign(st)
	case *ast.DeclStmt:
		gd := st.Decl.(*ast.GenDecl)
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, n := range vs.Names {
				var v Value
				if i < len(vs.Values) {
					var err error
					v, err = fr.eval(vs.Values[i])
					if err != nil {
						return ctrlNone, err
					}
				} else {
					var err error
					v, err = zeroValue(vs.Type)
					if err != nil {
						return ctrlNone, err
					}
				}
				fr.define(n.Name, v)
			}
		}
		return ctrlNone, nil
	case *ast.ExprStmt:
		_, err := fr.eval(st.X)
		return ctrlNone, err
	case *ast.IncDecStmt:
		id, ok := st.X.(*ast.Ident)
		if !ok {
			return ctrlNone, fmt.Errorf("interp: ++/-- target must be a variable")
		}
		v, err := fr.lookup(id.Name)
		if err != nil {
			return ctrlNone, err
		}
		d, err := v.scalar()
		if err != nil {
			return ctrlNone, err
		}
		delta := int64(1)
		if st.Tok == token.DEC {
			delta = -1
		}
		switch d.Kind {
		case serde.KindInt64:
			v.D = serde.Int(d.I + delta)
		case serde.KindFloat64:
			v.D = serde.Float(d.F + float64(delta))
		default:
			return ctrlNone, fmt.Errorf("interp: ++/-- on %v", d.Kind)
		}
		return ctrlNone, nil
	case *ast.IfStmt:
		cond, err := fr.evalBool(st.Cond)
		if err != nil {
			return ctrlNone, err
		}
		if cond {
			return fr.execBlock(st.Body)
		}
		switch e := st.Else.(type) {
		case nil:
			return ctrlNone, nil
		case *ast.BlockStmt:
			return fr.execBlock(e)
		case *ast.IfStmt:
			return fr.execStmt(e)
		}
		return ctrlNone, nil
	case *ast.ForStmt:
		if st.Init != nil {
			if _, err := fr.execStmt(st.Init); err != nil {
				return ctrlNone, err
			}
		}
		for iter := 0; ; iter++ {
			if iter >= maxLoopIterations {
				return ctrlNone, fmt.Errorf("interp: loop exceeded %d iterations", maxLoopIterations)
			}
			if st.Cond != nil {
				cond, err := fr.evalBool(st.Cond)
				if err != nil {
					return ctrlNone, err
				}
				if !cond {
					break
				}
			}
			c, err := fr.execBlock(st.Body)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlBreak {
				break
			}
			if c == ctrlReturn {
				return ctrlReturn, nil
			}
			if st.Post != nil {
				if _, err := fr.execStmt(st.Post); err != nil {
					return ctrlNone, err
				}
			}
		}
		return ctrlNone, nil
	case *ast.RangeStmt:
		xv, err := fr.eval(st.X)
		if err != nil {
			return ctrlNone, err
		}
		if xv.Kind != ValList {
			return ctrlNone, fmt.Errorf("interp: range requires a list, got %v", xv.Kind)
		}
		for i, d := range xv.List {
			if id, ok := st.Key.(*ast.Ident); ok && id.Name != "_" {
				fr.define(id.Name, IntVal(int64(i)))
			}
			if id, ok := st.Value.(*ast.Ident); ok && id.Name != "_" {
				fr.define(id.Name, Scalar(d))
			}
			c, err := fr.execBlock(st.Body)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlBreak {
				break
			}
			if c == ctrlReturn {
				return ctrlReturn, nil
			}
		}
		return ctrlNone, nil
	case *ast.ReturnStmt:
		if len(st.Results) == 1 {
			v, err := fr.eval(st.Results[0])
			if err != nil {
				return ctrlNone, err
			}
			fr.ret = v
		}
		return ctrlReturn, nil
	case *ast.BranchStmt:
		if st.Tok == token.BREAK {
			return ctrlBreak, nil
		}
		return ctrlContinue, nil
	case *ast.BlockStmt:
		return fr.execBlock(st)
	default:
		return ctrlNone, fmt.Errorf("interp: unsupported statement %T", s)
	}
}

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

func (fr *frame) execAssign(st *ast.AssignStmt) error {
	// Two-value form: x, ok := m[k].
	if len(st.Lhs) == 2 {
		ix, ok := st.Rhs[0].(*ast.IndexExpr)
		if !ok {
			return fmt.Errorf("interp: two-value assignment requires a map index")
		}
		mv, err := fr.eval(ix.X)
		if err != nil {
			return err
		}
		if mv.Kind != ValMap {
			return fmt.Errorf("interp: two-value index on %v", mv.Kind)
		}
		kv, err := fr.eval(ix.Index)
		if err != nil {
			return err
		}
		kd, err := kv.scalar()
		if err != nil {
			return err
		}
		d, found := mv.M[mapKey(kd)]
		if !found {
			d = serde.Bool(false) // zero value; language maps default to bool
		}
		if err := fr.assignTo(st.Lhs[0], st.Tok, Scalar(d)); err != nil {
			return err
		}
		return fr.assignTo(st.Lhs[1], st.Tok, BoolVal(found))
	}

	rhs, err := fr.eval(st.Rhs[0])
	if err != nil {
		return err
	}
	if st.Tok == token.ASSIGN || st.Tok == token.DEFINE {
		return fr.assignTo(st.Lhs[0], st.Tok, rhs)
	}
	// Op-assign: read, combine, write.
	cur, err := fr.eval(st.Lhs[0])
	if err != nil {
		return err
	}
	curD, err := cur.scalar()
	if err != nil {
		return err
	}
	rhsD, err := rhs.scalar()
	if err != nil {
		return err
	}
	var op token.Token
	switch st.Tok {
	case token.ADD_ASSIGN:
		op = token.ADD
	case token.SUB_ASSIGN:
		op = token.SUB
	case token.MUL_ASSIGN:
		op = token.MUL
	case token.QUO_ASSIGN:
		op = token.QUO
	case token.REM_ASSIGN:
		op = token.REM
	}
	out, err := predicate.EvalBinary(op, curD, rhsD)
	if err != nil {
		return err
	}
	return fr.assignTo(st.Lhs[0], token.ASSIGN, Scalar(out))
}

func (fr *frame) assignTo(lhs ast.Expr, tok token.Token, v Value) error {
	switch l := lhs.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return nil
		}
		if tok == token.DEFINE {
			fr.define(l.Name, v)
			return nil
		}
		dst, err := fr.lookup(l.Name)
		if err != nil {
			// := of a pair may redefine one name; allow define-on-assign for
			// names never seen (validator guarantees well-formedness).
			fr.define(l.Name, v)
			return nil
		}
		*dst = v
		return nil
	case *ast.IndexExpr:
		mv, err := fr.eval(l.X)
		if err != nil {
			return err
		}
		if mv.Kind != ValMap {
			return fmt.Errorf("interp: index assignment on %v", mv.Kind)
		}
		kv, err := fr.eval(l.Index)
		if err != nil {
			return err
		}
		kd, err := kv.scalar()
		if err != nil {
			return err
		}
		d, err := v.scalar()
		if err != nil {
			return err
		}
		mv.M[mapKey(kd)] = d
		return nil
	default:
		return fmt.Errorf("interp: unsupported assignment target %T", lhs)
	}
}

func (fr *frame) evalBool(e ast.Expr) (bool, error) {
	v, err := fr.eval(e)
	if err != nil {
		return false, err
	}
	return v.truth()
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
