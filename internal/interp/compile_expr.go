package interp

import (
	"fmt"
	"go/ast"
	"go/token"

	"manimal/internal/lang"
	"manimal/internal/predicate"
	"manimal/internal/serde"
)

// Expression lowering. All name resolution (frame slot vs. global cell) and
// all call dispatch (record accessor vs. ctx method vs. iterator method vs.
// helper vs. builtin) happens once here instead of per evaluation.

func (c *compiler) expr(e ast.Expr) exprFn {
	switch ex := e.(type) {
	case *ast.BasicLit:
		v, err := litValue(ex)
		return func(*frame) (Value, error) { return v, err }
	case *ast.Ident:
		return c.identExpr(ex.Name)
	case *ast.ParenExpr:
		return c.expr(ex.X)
	case *ast.UnaryExpr:
		return c.unary(ex)
	case *ast.BinaryExpr:
		return c.binary(ex)
	case *ast.IndexExpr:
		return c.index(ex)
	case *ast.CallExpr:
		return c.call(ex)
	default:
		return errExpr(fmt.Errorf("interp: unsupported expression %T", e))
	}
}

// errExpr compiles an expression whose evaluation always fails with err.
func errExpr(err error) exprFn {
	return func(*frame) (Value, error) { return Value{}, err }
}

func (c *compiler) identExpr(name string) exprFn {
	switch name {
	case "true":
		v := BoolVal(true)
		return func(*frame) (Value, error) { return v, nil }
	case "false":
		v := BoolVal(false)
		return func(*frame) (Value, error) { return v, nil }
	}
	ref := c.ref(name)
	return func(fr *frame) (Value, error) {
		p, err := ref(fr)
		if err != nil {
			return Value{}, err
		}
		return *p, nil
	}
}

// boolExpr compiles a condition: it must evaluate to a bool scalar.
func (c *compiler) boolExpr(e ast.Expr) func(*frame) (bool, error) {
	f := c.expr(e)
	return func(fr *frame) (bool, error) {
		v, err := f(fr)
		if err != nil {
			return false, err
		}
		return v.truth()
	}
}

func (c *compiler) unary(ex *ast.UnaryExpr) exprFn {
	xFn := c.expr(ex.X)
	op := ex.Op
	return func(fr *frame) (Value, error) {
		x, err := xFn(fr)
		if err != nil {
			return Value{}, err
		}
		d, err := x.scalar()
		if err != nil {
			return Value{}, err
		}
		switch op {
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
			return Value{}, fmt.Errorf("interp: unsupported unary %s", op)
		}
	}
}

func (c *compiler) binary(ex *ast.BinaryExpr) exprFn {
	// Short-circuit logical operators.
	if ex.Op == token.LAND || ex.Op == token.LOR {
		lFn := c.boolExpr(ex.X)
		rFn := c.boolExpr(ex.Y)
		short := ex.Op == token.LOR // the left value that decides the result
		return func(fr *frame) (Value, error) {
			l, err := lFn(fr)
			if err != nil {
				return Value{}, err
			}
			if l == short {
				return BoolVal(short), nil
			}
			r, err := rFn(fr)
			if err != nil {
				return Value{}, err
			}
			return BoolVal(r), nil
		}
	}

	lFn := c.expr(ex.X)
	rFn := c.expr(ex.Y)
	op := ex.Op
	return func(fr *frame) (Value, error) {
		l, err := lFn(fr)
		if err != nil {
			return Value{}, err
		}
		r, err := rFn(fr)
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
		out, err := predicate.EvalBinary(op, ld, rd)
		if err != nil {
			return Value{}, err
		}
		return Scalar(out), nil
	}
}

func (c *compiler) index(ex *ast.IndexExpr) exprFn {
	xFn := c.expr(ex.X)
	iFn := c.expr(ex.Index)
	return func(fr *frame) (Value, error) {
		x, err := xFn(fr)
		if err != nil {
			return Value{}, err
		}
		i, err := iFn(fr)
		if err != nil {
			return Value{}, err
		}
		switch x.Kind {
		case ValList:
			idx, err := i.integer()
			if err != nil {
				return Value{}, err
			}
			l := x.list()
			if idx < 0 || idx >= int64(len(l)) {
				return Value{}, fmt.Errorf("interp: list index %d out of range [0,%d)", idx, len(l))
			}
			return Scalar(l[idx]), nil
		case ValMap:
			kd, err := i.scalar()
			if err != nil {
				return Value{}, err
			}
			if d, ok := x.dict()[string(fr.ex.mapKey(kd))]; ok {
				return Scalar(d), nil
			}
			return BoolVal(false), nil // zero value for absent keys
		default:
			return Value{}, fmt.Errorf("interp: cannot index a %v", x.Kind)
		}
	}
}

// call resolves the dispatch target at compile time: stdlib package, ctx
// parameter, iterator parameter, record receiver, then user-defined helper,
// then plain builtin.
func (c *compiler) call(call *ast.CallExpr) exprFn {
	if recv, method, ok := lang.MethodOn(call); ok {
		switch {
		case recv == "strings" || recv == "strconv" || recv == "math":
			return c.builtin(recv+"."+method, call.Args)
		case recv == c.ctxName:
			return c.ctxCall(method, call.Args)
		case recv == c.iterName:
			return c.iterCall(method, call.Args)
		default:
			return c.accessor(recv, method, call.Args)
		}
	}
	name, _ := lang.CallName(call)
	if callee, ok := c.funcs[name]; ok && !lang.IsWellKnown(name) {
		return c.helperCall(callee, call.Args)
	}
	return c.builtin(name, call.Args)
}

// args compiles a call's argument list into one closure that evaluates the
// arguments left to right onto the executor's argument stack and returns
// where they start; the caller reads ex.stack[base:] and pops back to base.
// The stack — not a buffer owned by the call site — is what keeps a call
// allocation-free and re-entrant: in f(a, f(b, c)) the inner call runs
// between the outer call's first and second push.
func (c *compiler) args(es []ast.Expr) func(*frame) (base int, err error) {
	fns := make([]exprFn, len(es))
	for i, e := range es {
		fns[i] = c.expr(e)
	}
	return func(fr *frame) (int, error) {
		ex := fr.ex
		base := len(ex.stack)
		for _, f := range fns {
			v, err := f(fr)
			if err != nil {
				return base, err
			}
			ex.stack = append(ex.stack, v)
		}
		return base, nil
	}
}

func (c *compiler) builtin(name string, args []ast.Expr) exprFn {
	// make(map[K]V) is special: its argument is a type, not a value.
	if name == "make" {
		if len(args) != 1 {
			return errExpr(fmt.Errorf("interp: make takes exactly one type argument"))
		}
		if _, ok := args[0].(*ast.MapType); !ok {
			return errExpr(fmt.Errorf("interp: make supports only map types"))
		}
		return func(*frame) (Value, error) { return NewMapVal(), nil }
	}
	impl, ok := builtins[name]
	if !ok {
		// Reported after the arguments have been evaluated, like any other
		// failure of the callee.
		impl = func([]Value) (Value, error) {
			return Value{}, fmt.Errorf("interp: unknown function %q", name)
		}
	}
	argsFn := c.args(args)
	return func(fr *frame) (Value, error) {
		base, err := argsFn(fr)
		if err != nil {
			return Value{}, err
		}
		ex := fr.ex
		v, err := impl(ex.stack[base:])
		ex.stack = ex.stack[:base]
		return v, err
	}
}

// helperCall compiles a call of a user-defined helper: the arguments move
// from the argument stack into the parameter slots of the frame one below
// the caller's, and the callee's body runs there. The validator has checked
// the argument count against the callee's parameters.
func (c *compiler) helperCall(callee *compiledFunc, args []ast.Expr) exprFn {
	argsFn := c.args(args)
	return func(fr *frame) (Value, error) {
		base, err := argsFn(fr)
		if err != nil {
			return Value{}, err
		}
		if fr.depth >= maxCallDepth {
			return Value{}, fmt.Errorf("interp: call depth exceeded %d in %s (runaway recursion?)", maxCallDepth, callee.name)
		}
		ex := fr.ex
		hf := ex.enter(fr.depth+1, callee, fr.ctx)
		for i, slot := range callee.params {
			hf.bind(slot, ex.stack[base+i])
		}
		ex.stack = ex.stack[:base]
		ct, err := callee.body(hf)
		if err != nil {
			return Value{}, err
		}
		if ct != ctrlReturn {
			return Value{}, fmt.Errorf("interp: helper %s fell off the end without returning", callee.name)
		}
		return hf.ret, nil
	}
}

// constString returns the compile-time value of a string literal argument,
// if e is one. Constant field/parameter names are the overwhelmingly common
// case and let call sites skip per-record argument evaluation.
func constString(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	v, err := litValue(lit)
	if err != nil || v.D.Kind != serde.KindString {
		return "", false
	}
	return v.D.Str(), true
}

// fieldMemo caches one (schema, field)→index resolution per call site.
// Records of one input stream share a schema and most call sites pass a
// constant field name, so after the first record the lookup is a pointer
// comparison plus an (almost always pointer-equal) string comparison. The
// field must be part of the key: accessor field names may be computed per
// record. Executors are single-threaded by contract, which makes the
// per-closure cache safe.
type fieldMemo struct {
	schema *serde.Schema
	field  string
	idx    int
}

func (m *fieldMemo) index(rec *serde.Record, field string) int {
	s := rec.Schema()
	if s != m.schema || field != m.field {
		m.schema = s
		m.field = field
		m.idx = s.IndexOf(field)
	}
	return m.idx
}

// accessor compiles recv.Method(field) where recv must hold a record at
// runtime. Known accessors with a constant field name get the fast path:
// precomputed kind expectation plus memoized field index.
func (c *compiler) accessor(recv, method string, args []ast.Expr) exprFn {
	recvFn := c.identExpr(recv)
	readRec := func(fr *frame) (*serde.Record, error) {
		v, err := recvFn(fr)
		if err != nil || v.Kind != ValRecord {
			return nil, fmt.Errorf("interp: %q is not a record, ctx, or iterator", recv)
		}
		return v.rec(), nil
	}

	if _, typed := accessorKind(method); (typed || method == "Has") && len(args) == 1 {
		return c.compileFieldRead(readRec, method, args[0])
	}

	// Slow path: wrong arity or a method name that is not a record accessor
	// (the validator admits ctx/iter method names here; they are reported
	// when the call executes). Defer entirely to the recordAccess kernel, in
	// order: receiver check, arity check, argument evaluation, kernel.
	var fieldFn exprFn
	if len(args) == 1 {
		fieldFn = c.expr(args[0])
	}
	return func(fr *frame) (Value, error) {
		rec, err := readRec(fr)
		if err != nil {
			return Value{}, err
		}
		if fieldFn == nil {
			return Value{}, fmt.Errorf("interp: %s takes exactly one field name", method)
		}
		fv, err := fieldFn(fr)
		if err != nil {
			return Value{}, err
		}
		field, err := fv.str()
		if err != nil {
			return Value{}, err
		}
		return recordAccess(rec, method, field)
	}
}

// compileFieldRead lowers the field-argument handling shared by record
// accessors and iterator Field* methods: a constant field name is captured
// at compile time, a dynamic one is evaluated per call, and both resolve
// through one memoized schema index. getRec supplies the record (receiver
// variable or current iterator value) and carries that path's own checks.
func (c *compiler) compileFieldRead(getRec func(*frame) (*serde.Record, error), acc string, arg ast.Expr) exprFn {
	want, _ := accessorKind(acc)
	isHas := acc == "Has"
	memo := &fieldMemo{}
	if field, ok := constString(arg); ok {
		return func(fr *frame) (Value, error) {
			rec, err := getRec(fr)
			if err != nil {
				return Value{}, err
			}
			return accessField(rec, memo, acc, field, want, isHas)
		}
	}
	fieldFn := c.expr(arg)
	return func(fr *frame) (Value, error) {
		rec, err := getRec(fr)
		if err != nil {
			return Value{}, err
		}
		fv, err := fieldFn(fr)
		if err != nil {
			return Value{}, err
		}
		field, err := fv.str()
		if err != nil {
			return Value{}, err
		}
		return accessField(rec, memo, acc, field, want, isHas)
	}
}

// accessField is the fast-path record field read shared by record-accessor
// and iterator Field* call sites.
func accessField(rec *serde.Record, memo *fieldMemo, method, field string, want serde.Kind, isHas bool) (Value, error) {
	idx := memo.index(rec, field)
	if isHas {
		return BoolVal(idx >= 0), nil
	}
	if idx < 0 {
		return Value{}, fmt.Errorf("interp: record has no field %q (schema %s)", field, rec.Schema())
	}
	d := rec.At(idx)
	if d.Kind != want {
		return Value{}, fmt.Errorf("interp: field %q is %v, accessor %s wants %v", field, d.Kind, method, want)
	}
	return Scalar(d), nil
}

func (c *compiler) ctxCall(method string, args []ast.Expr) exprFn {
	switch method {
	case "Emit":
		if len(args) != 2 {
			return errExpr(fmt.Errorf("interp: Emit takes (key, value)"))
		}
		kFn := c.expr(args[0])
		vFn := c.expr(args[1])
		return func(fr *frame) (Value, error) {
			kv, err := kFn(fr)
			if err != nil {
				return Value{}, err
			}
			kd, err := kv.scalar()
			if err != nil {
				return Value{}, fmt.Errorf("interp: emit key: %w", err)
			}
			vv, err := vFn(fr)
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
		}
	case "ConfInt", "ConfFloat", "ConfStr":
		if len(args) != 1 {
			return errExpr(fmt.Errorf("interp: %s takes one parameter name", method))
		}
		want := confKind(method)
		if name, ok := constString(args[0]); ok {
			return func(fr *frame) (Value, error) {
				return confLookup(fr.ctx, name, method, want)
			}
		}
		nameFn := c.expr(args[0])
		return func(fr *frame) (Value, error) {
			nv, err := nameFn(fr)
			if err != nil {
				return Value{}, err
			}
			name, err := nv.str()
			if err != nil {
				return Value{}, err
			}
			return confLookup(fr.ctx, name, method, want)
		}
	case "Log":
		if len(args) != 1 {
			return errExpr(fmt.Errorf("interp: Log takes one message"))
		}
		msgFn := c.expr(args[0])
		return func(fr *frame) (Value, error) {
			mv, err := msgFn(fr)
			if err != nil {
				return Value{}, err
			}
			if fr.ctx.Log != nil {
				fr.ctx.Log(mv.D.String())
			}
			return Value{}, nil
		}
	case "Counter":
		if len(args) != 1 {
			return errExpr(fmt.Errorf("interp: Counter takes one name"))
		}
		if name, ok := constString(args[0]); ok {
			return func(fr *frame) (Value, error) {
				if fr.ctx.Counter != nil {
					fr.ctx.Counter(name, 1)
				}
				return Value{}, nil
			}
		}
		nameFn := c.expr(args[0])
		return func(fr *frame) (Value, error) {
			nv, err := nameFn(fr)
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
		}
	default:
		return errExpr(fmt.Errorf("interp: unknown ctx method %q", method))
	}
}

func (c *compiler) iterCall(method string, args []ast.Expr) exprFn {
	switch method {
	case "Next":
		return func(fr *frame) (Value, error) { return fr.iterNext(), nil }
	case "Int", "Float", "Str":
		want := scalarKind(method)
		return func(fr *frame) (Value, error) {
			return fr.iterScalar(method, want)
		}
	case "FieldInt", "FieldFloat", "FieldStr", "HasField":
		acc := iterFieldAccessor(method)
		if len(args) == 1 {
			getRec := func(fr *frame) (*serde.Record, error) { return fr.iterRecord(method) }
			return c.compileFieldRead(getRec, acc, args[0])
		}
		return func(fr *frame) (Value, error) {
			if _, err := fr.iterRecord(method); err != nil {
				return Value{}, err
			}
			return Value{}, fmt.Errorf("interp: %s takes exactly one field name", acc)
		}
	default:
		return errExpr(fmt.Errorf("interp: unknown iterator method %q", method))
	}
}
