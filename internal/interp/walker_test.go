package interp

import (
	"fmt"
	"go/ast"
	"go/token"

	"manimal/internal/lang"
	"manimal/internal/predicate"
	"manimal/internal/serde"
)

// The AST tree-walker: the interpreter's differential oracle. It evaluates a
// program by walking go/ast per statement and per expression, resolving
// every name and every call target by string at each access — slow, and
// deliberately independent of the closure compiler's lowering. It shares
// with the compiler only the runtime kernels (builtins, recordAccess,
// confLookup, the iterator accessors, zeroValue, litValue) and the frame's
// slot layout. It lives in a test file because nothing runs programs
// through it; it stays a live evaluator rather than golden transcripts so
// that generated programs (ROADMAP item 4b) have a reference to be compared
// against.

// walkerMapKey is the oracle's own map-key encoding: a fresh string per
// access, independent of the executor's scratch buffer.
func walkerMapKey(d serde.Datum) string { return string(d.AppendTagged(nil)) }

// treeWalker runs a program's stage functions through the walker. Like an
// Executor (whose package-level variable cells and program it borrows), it
// is single-threaded and keeps member-variable state across invocations.
type treeWalker struct {
	ex *Executor
}

// walker is one function activation under the tree-walker: a frame plus the
// names the walker resolves per access.
type walker struct {
	*frame
	fn        *lang.Function
	ctxParam  string
	iterParam string
}

// newWalker allocates a fresh activation of fn; the oracle has no need of
// the executor's frame reuse.
func newWalker(ex *Executor, fn *lang.Function, ctx *Context, depth int) *walker {
	n := fn.NumSlots()
	return &walker{
		frame: &frame{ex: ex, ctx: ctx, slots: make([]Value, n), defined: make([]bool, n), depth: depth},
		fn:    fn,
	}
}

func (tw *treeWalker) InvokeMap(k serde.Datum, v *serde.Record, ctx *Context) error {
	fn := tw.ex.prog.Map()
	if len(fn.Params) != 3 {
		return fmt.Errorf("interp: Map must take (k, v, ctx), has %d params", len(fn.Params))
	}
	fr := newWalker(tw.ex, fn, ctx, 0)
	fr.mustDefine(fn.Params[0].Name, Scalar(k))
	fr.mustDefine(fn.Params[1].Name, RecordVal(v))
	fr.mustDefine(fn.Params[2].Name, Value{}) // ctx: accessed only via method calls
	fr.ctxParam = fn.Params[2].Name
	_, err := fr.execBlock(fn.Body)
	return err
}

func (tw *treeWalker) InvokeReduce(key serde.Datum, values ValueIter, ctx *Context) error {
	return tw.invokeReduceLike(lang.ReduceFuncName, key, values, ctx)
}

func (tw *treeWalker) InvokeCombine(key serde.Datum, values ValueIter, ctx *Context) error {
	return tw.invokeReduceLike(lang.CombineFuncName, key, values, ctx)
}

func (tw *treeWalker) invokeReduceLike(name string, key serde.Datum, values ValueIter, ctx *Context) error {
	fn := tw.ex.prog.Funcs[name]
	if fn == nil {
		return fmt.Errorf("interp: program has no %s function", name)
	}
	if len(fn.Params) != 3 {
		return fmt.Errorf("interp: %s must take (key, values, ctx), has %d params", name, len(fn.Params))
	}
	fr := newWalker(tw.ex, fn, ctx, 0)
	fr.mustDefine(fn.Params[0].Name, Scalar(key))
	fr.mustDefine(fn.Params[1].Name, Value{})
	fr.mustDefine(fn.Params[2].Name, Value{})
	fr.ctxParam = fn.Params[2].Name
	fr.iterParam = fn.Params[1].Name
	fr.iter = values
	_, err := fr.execBlock(fn.Body)
	return err
}

// callHelper invokes a user-defined helper function in a fresh activation.
func (fr *walker) callHelper(fn *lang.Function, args []Value) (Value, error) {
	if fr.depth >= fr.ex.maxDepth {
		return Value{}, fmt.Errorf("interp: call depth exceeded %d in %s (runaway recursion?)", fr.ex.maxDepth, fn.Name)
	}
	hf := newWalker(fr.ex, fn, fr.ctx, fr.depth+1)
	for i, p := range fn.Params {
		hf.mustDefine(p.Name, args[i])
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

// define binds a local: every name the validator lets a function bind has
// a slot, except a package-level variable, which cannot be bound.
func (fr *walker) define(name string, v Value) error {
	if name == "_" {
		return nil
	}
	i, ok := fr.fn.SlotIndex(name)
	if !ok {
		return errNotLocal(name)
	}
	fr.slots[i] = v
	fr.defined[i] = true
	return nil
}

// mustDefine binds a name already known to have a slot: a parameter, or a
// range variable the range statement has checked.
func (fr *walker) mustDefine(name string, v Value) {
	if err := fr.define(name, v); err != nil {
		panic(err)
	}
}

// lookup resolves a variable: locals/params first, then program globals.
func (fr *walker) lookup(name string) (*Value, error) {
	if i, ok := fr.fn.SlotIndex(name); ok && fr.defined[i] {
		return &fr.slots[i], nil
	}
	if v, ok := fr.ex.globals[name]; ok {
		return v, nil
	}
	return nil, fmt.Errorf("interp: undefined variable %q", name)
}

func (fr *walker) execBlock(b *ast.BlockStmt) (ctrl, error) {
	for _, s := range b.List {
		c, err := fr.execStmt(s)
		if err != nil || c != ctrlNone {
			return c, err
		}
	}
	return ctrlNone, nil
}

func (fr *walker) execStmt(s ast.Stmt) (ctrl, error) {
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
				if err := fr.define(n.Name, v); err != nil {
					return ctrlNone, err
				}
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
			v.D = serde.Int(d.Int() + delta)
		case serde.KindFloat64:
			v.D = serde.Float(d.Float() + float64(delta))
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
			if iter >= fr.ex.maxLoop {
				return ctrlNone, fmt.Errorf("interp: loop exceeded %d iterations", fr.ex.maxLoop)
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
		// A range variable must be a local; checked before anything runs.
		for _, e := range []ast.Expr{st.Key, st.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				if _, ok := fr.fn.SlotIndex(id.Name); !ok {
					return ctrlNone, errNotLocal(id.Name)
				}
			}
		}
		xv, err := fr.eval(st.X)
		if err != nil {
			return ctrlNone, err
		}
		if xv.Kind != ValList {
			return ctrlNone, fmt.Errorf("interp: range requires a list, got %v", xv.Kind)
		}
		for i, s := range xv.list() {
			if id, ok := st.Key.(*ast.Ident); ok {
				fr.mustDefine(id.Name, IntVal(int64(i)))
			}
			if id, ok := st.Value.(*ast.Ident); ok {
				fr.mustDefine(id.Name, StrVal(s))
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

func (fr *walker) execAssign(st *ast.AssignStmt) error {
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
		d, found := mv.dict()[walkerMapKey(kd)]
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

func (fr *walker) assignTo(lhs ast.Expr, tok token.Token, v Value) error {
	switch l := lhs.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return nil
		}
		if tok == token.DEFINE {
			return fr.define(l.Name, v)
		}
		dst, err := fr.lookup(l.Name)
		if err != nil {
			// := of a pair may redefine one name; allow define-on-assign for
			// names never seen (validator guarantees well-formedness).
			return fr.define(l.Name, v)
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
		mv.dict()[walkerMapKey(kd)] = d
		return nil
	default:
		return fmt.Errorf("interp: unsupported assignment target %T", lhs)
	}
}

func (fr *walker) evalBool(e ast.Expr) (bool, error) {
	v, err := fr.eval(e)
	if err != nil {
		return false, err
	}
	return v.truth()
}

func (fr *walker) eval(e ast.Expr) (Value, error) {
	switch ex := e.(type) {
	case *ast.BasicLit:
		return litValue(ex)
	case *ast.Ident:
		switch ex.Name {
		case "true":
			return BoolVal(true), nil
		case "false":
			return BoolVal(false), nil
		}
		v, err := fr.lookup(ex.Name)
		if err != nil {
			return Value{}, err
		}
		return *v, nil
	case *ast.ParenExpr:
		return fr.eval(ex.X)
	case *ast.UnaryExpr:
		return fr.evalUnary(ex)
	case *ast.BinaryExpr:
		return fr.evalBinary(ex)
	case *ast.IndexExpr:
		return fr.evalIndex(ex)
	case *ast.CallExpr:
		return fr.evalCall(ex)
	default:
		return Value{}, fmt.Errorf("interp: unsupported expression %T", e)
	}
}

func (fr *walker) evalUnary(ex *ast.UnaryExpr) (Value, error) {
	x, err := fr.eval(ex.X)
	if err != nil {
		return Value{}, err
	}
	d, err := x.scalar()
	if err != nil {
		return Value{}, err
	}
	switch ex.Op {
	case token.NOT:
		if d.Kind != serde.KindBool {
			return Value{}, fmt.Errorf("interp: ! of %v", d.Kind)
		}
		return BoolVal(!d.Flag()), nil
	case token.SUB:
		switch d.Kind {
		case serde.KindInt64:
			return IntVal(-d.Int()), nil
		case serde.KindFloat64:
			return FloatVal(-d.Float()), nil
		}
		return Value{}, fmt.Errorf("interp: - of %v", d.Kind)
	case token.ADD:
		return x, nil
	default:
		return Value{}, fmt.Errorf("interp: unsupported unary %s", ex.Op)
	}
}

func (fr *walker) evalBinary(ex *ast.BinaryExpr) (Value, error) {
	// Short-circuit logical operators.
	if ex.Op == token.LAND || ex.Op == token.LOR {
		l, err := fr.evalBool(ex.X)
		if err != nil {
			return Value{}, err
		}
		if ex.Op == token.LAND && !l {
			return BoolVal(false), nil
		}
		if ex.Op == token.LOR && l {
			return BoolVal(true), nil
		}
		r, err := fr.evalBool(ex.Y)
		if err != nil {
			return Value{}, err
		}
		return BoolVal(r), nil
	}
	l, err := fr.eval(ex.X)
	if err != nil {
		return Value{}, err
	}
	r, err := fr.eval(ex.Y)
	if err != nil {
		return Value{}, err
	}
	ld, err := l.scalar()
	if err != nil {
		return Value{}, err
	}
	rd, err := r.scalar()
	if err != nil {
		return Value{}, err
	}
	out, err := predicate.EvalBinary(ex.Op, ld, rd)
	if err != nil {
		return Value{}, err
	}
	return Scalar(out), nil
}

func (fr *walker) evalIndex(ex *ast.IndexExpr) (Value, error) {
	x, err := fr.eval(ex.X)
	if err != nil {
		return Value{}, err
	}
	i, err := fr.eval(ex.Index)
	if err != nil {
		return Value{}, err
	}
	switch x.Kind {
	case ValList:
		idx, err := i.integer()
		if err != nil {
			return Value{}, err
		}
		if idx < 0 || idx >= int64(len(x.list())) {
			return Value{}, fmt.Errorf("interp: list index %d out of range [0,%d)", idx, len(x.list()))
		}
		return StrVal(x.list()[idx]), nil
	case ValMap:
		kd, err := i.scalar()
		if err != nil {
			return Value{}, err
		}
		if d, ok := x.dict()[walkerMapKey(kd)]; ok {
			return Scalar(d), nil
		}
		return BoolVal(false), nil // zero value for absent keys
	default:
		return Value{}, fmt.Errorf("interp: cannot index a %v", x.Kind)
	}
}

func (fr *walker) evalCall(c *ast.CallExpr) (Value, error) {
	// Method calls on parameters: record accessors, ctx methods, iterator.
	if recv, method, ok := lang.MethodOn(c); ok {
		switch {
		case recv == "strings" || recv == "strconv" || recv == "math":
			return fr.evalBuiltin(recv+"."+method, c)
		case recv == fr.ctxParam:
			return fr.evalCtxCall(method, c.Args)
		case recv == fr.iterParam:
			return fr.evalIterCall(method, c.Args)
		default:
			if v, err := fr.lookup(recv); err == nil && v.Kind == ValRecord {
				return evalAccessor(v.rec(), method, fr, c.Args)
			}
			return Value{}, fmt.Errorf("interp: %q is not a record, ctx, or iterator", recv)
		}
	}
	name, _ := lang.CallName(c)
	if helper, ok := fr.ex.prog.Funcs[name]; ok && !lang.IsWellKnown(name) {
		args := make([]Value, len(c.Args))
		for i, a := range c.Args {
			v, err := fr.eval(a)
			if err != nil {
				return Value{}, err
			}
			args[i] = v
		}
		return fr.callHelper(helper, args)
	}
	return fr.evalBuiltin(name, c)
}

func evalAccessor(rec *serde.Record, method string, fr *walker, args []ast.Expr) (Value, error) {
	if len(args) != 1 {
		return Value{}, fmt.Errorf("interp: %s takes exactly one field name", method)
	}
	fv, err := fr.eval(args[0])
	if err != nil {
		return Value{}, err
	}
	field, err := fv.str()
	if err != nil {
		return Value{}, err
	}
	return recordAccess(rec, method, field)
}

func (fr *walker) evalCtxCall(method string, args []ast.Expr) (Value, error) {
	switch method {
	case "Emit":
		if len(args) != 2 {
			return Value{}, fmt.Errorf("interp: Emit takes (key, value)")
		}
		kv, err := fr.eval(args[0])
		if err != nil {
			return Value{}, err
		}
		kd, err := kv.scalar()
		if err != nil {
			return Value{}, fmt.Errorf("interp: emit key: %w", err)
		}
		vv, err := fr.eval(args[1])
		if err != nil {
			return Value{}, err
		}
		ev, err := FromValue(vv)
		if err != nil {
			return Value{}, err
		}
		if fr.ctx.Emit == nil {
			return Value{}, fmt.Errorf("interp: context has no emitter")
		}
		return Value{}, fr.ctx.Emit(kd, ev)
	case "ConfInt", "ConfFloat", "ConfStr":
		if len(args) != 1 {
			return Value{}, fmt.Errorf("interp: %s takes one parameter name", method)
		}
		nv, err := fr.eval(args[0])
		if err != nil {
			return Value{}, err
		}
		name, err := nv.str()
		if err != nil {
			return Value{}, err
		}
		d, err := confLookup(fr.ctx, name, method, confKind(method))
		return Scalar(d), err
	case "Log":
		if len(args) != 1 {
			return Value{}, fmt.Errorf("interp: Log takes one message")
		}
		if fr.ctx.Log == nil {
			return Value{}, nil
		}
		mv, err := fr.eval(args[0])
		if err != nil {
			return Value{}, err
		}
		fr.ctx.Log(mv.D.String())
		return Value{}, nil
	case "Counter":
		if len(args) != 1 {
			return Value{}, fmt.Errorf("interp: Counter takes one name")
		}
		nv, err := fr.eval(args[0])
		if err != nil {
			return Value{}, err
		}
		name, err := nv.str()
		if err != nil {
			return Value{}, err
		}
		if fr.ctx.Counter != nil {
			fr.ctx.Counter(name, 1)
		}
		return Value{}, nil
	default:
		return Value{}, fmt.Errorf("interp: unknown ctx method %q", method)
	}
}

func (fr *walker) evalIterCall(method string, args []ast.Expr) (Value, error) {
	switch method {
	case "Next":
		return BoolVal(fr.iterNext()), nil
	case "Int", "Float", "Str":
		d, err := fr.iterScalar(method, scalarKind(method))
		return Scalar(d), err
	case "FieldInt", "FieldFloat", "FieldStr", "HasField":
		rec, err := fr.iterRecord(method)
		if err != nil {
			return Value{}, err
		}
		return evalAccessor(rec, iterFieldAccessor(method), fr, args)
	default:
		return Value{}, fmt.Errorf("interp: unknown iterator method %q", method)
	}
}

// evalBuiltin dispatches a whitelisted standard function by name.
func (fr *walker) evalBuiltin(name string, c *ast.CallExpr) (Value, error) {
	// make(map[K]V) is special: its argument is a type, not a value.
	if name == "make" {
		if len(c.Args) != 1 {
			return Value{}, fmt.Errorf("interp: make takes exactly one type argument")
		}
		if _, ok := c.Args[0].(*ast.MapType); !ok {
			return Value{}, fmt.Errorf("interp: make supports only map types")
		}
		return NewMapVal(), nil
	}

	args := make([]Value, len(c.Args))
	for i, a := range c.Args {
		v, err := fr.eval(a)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	b, ok := builtins[name]
	if !ok {
		return Value{}, fmt.Errorf("interp: unknown function %q", name)
	}
	return b.impl(args)
}
