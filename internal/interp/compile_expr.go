package interp

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"

	"manimal/internal/lang"
	"manimal/internal/predicate"
	"manimal/internal/serde"
)

// Expression lowering. All name resolution (frame slot vs. global cell),
// all call dispatch (record accessor vs. ctx method vs. iterator method vs.
// helper vs. builtin) and every choice between the typed and the boxed
// convention happens once here instead of per evaluation.

// expr lowers one expression. The kind it arrives at is the one infer
// arrived at for the node: both apply the rules of kinds.go to the same
// operand kinds.
func (c *compiler) expr(e ast.Expr) texpr {
	t := c.lower(e)
	t.e = e
	return t
}

func (c *compiler) lower(e ast.Expr) texpr {
	switch ex := e.(type) {
	case *ast.BasicLit:
		v, err := litValue(ex)
		if err != nil {
			return dynX(errExpr(err))
		}
		return constExpr(v.D)
	case *ast.Ident:
		return c.ident(ex.Name)
	case *ast.ParenExpr:
		return c.lower(ex.X)
	case *ast.UnaryExpr:
		return c.unary(ex)
	case *ast.BinaryExpr:
		if ex.Op == token.LAND || ex.Op == token.LOR {
			return c.logical(ex)
		}
		return c.binop(ex.Op, c.expr(ex.X), c.expr(ex.Y), false)
	case *ast.IndexExpr:
		return c.index(ex)
	case *ast.CallExpr:
		return c.call(ex)
	default:
		return dynX(errExpr(fmt.Errorf("interp: unsupported expression %T", e)))
	}
}

// box is the boxed form of an expression: the lowering itself for a dynamic
// one, derived by boxing the typed closure otherwise. Every consumer that
// needs a Value goes through here, which is what makes compiledFunc.boxed
// the complete inventory of the sites still paying for one.
func (c *compiler) box(t texpr) exprFn {
	c.cf.boxed = append(c.cf.boxed, t.e)
	if t.v != nil {
		return t.v
	}
	switch t.k {
	case kInt:
		return boxed(t.i, IntVal)
	case kFloat:
		return boxed(t.f, FloatVal)
	case kStr:
		return boxed(t.s, StrVal)
	default:
		return boxed(t.b, BoolVal)
	}
}

func boxed[T any](f fn[T], box func(T) Value) exprFn {
	return func(fr *frame) (Value, error) {
		x, err := f(fr)
		if err != nil {
			return Value{}, err
		}
		return box(x), nil
	}
}

// errExpr compiles an expression whose evaluation always fails with err.
func errExpr(err error) exprFn {
	return func(*frame) (Value, error) { return Value{}, err }
}

// constExpr compiles a constant in the convention of its kind.
func constExpr(d serde.Datum) texpr {
	switch d.Kind {
	case serde.KindInt64:
		x := d.Int()
		return intX(func(*frame) (int64, error) { return x, nil })
	case serde.KindFloat64:
		x := d.Float()
		return floatX(func(*frame) (float64, error) { return x, nil })
	case serde.KindString:
		x := d.Str()
		return strX(func(*frame) (string, error) { return x, nil })
	case serde.KindBool:
		x := d.Flag()
		return boolX(func(*frame) (bool, error) { return x, nil })
	default:
		v := Scalar(d)
		return dynX(func(*frame) (Value, error) { return v, nil })
	}
}

// ident compiles a variable read: from the typed or the boxed half of the
// frame slot if the name has one, else from the executor's global cell.
func (c *compiler) ident(name string) texpr {
	switch name {
	case "true", "false":
		return constExpr(serde.Bool(name == "true"))
	}
	undefined := errUndefined(name)
	i, ok := c.fn.SlotIndex(name)
	if !ok {
		if g, ok := c.ex.globals[name]; ok {
			return dynX(func(*frame) (Value, error) { return *g, nil })
		}
		return dynX(errExpr(undefined))
	}
	switch c.slotKind[i] {
	case kInt:
		return intX(func(fr *frame) (int64, error) {
			if !fr.defined[i] {
				return 0, undefined
			}
			return int64(fr.typed[i].w), nil
		})
	case kFloat:
		return floatX(func(fr *frame) (float64, error) {
			if !fr.defined[i] {
				return 0, undefined
			}
			return fr.typed[i].float(), nil
		})
	case kStr:
		return strX(func(fr *frame) (string, error) {
			if !fr.defined[i] {
				return "", undefined
			}
			return fr.typed[i].s, nil
		})
	case kBool:
		return boolX(func(fr *frame) (bool, error) {
			if !fr.defined[i] {
				return false, undefined
			}
			return fr.typed[i].w != 0, nil
		})
	default:
		c.noteParamRead(name)
		return dynX(func(fr *frame) (Value, error) {
			if !fr.defined[i] {
				return Value{}, undefined
			}
			return fr.slots[i], nil
		})
	}
}

// cond compiles a condition: it must evaluate to a bool scalar.
func (c *compiler) cond(e ast.Expr) fn[bool] {
	t := c.expr(e)
	if t.k == kBool {
		return t.b
	}
	f := c.box(t)
	return func(fr *frame) (bool, error) {
		v, err := f(fr)
		if err != nil {
			return false, err
		}
		return v.truth()
	}
}

func (c *compiler) unary(ex *ast.UnaryExpr) texpr {
	x := c.expr(ex.X)
	op := ex.Op
	switch {
	case op == token.ADD && x.k != kDyn:
		return x
	case op == token.SUB && x.k == kInt:
		return intX(call1(x.i, func(v int64) int64 { return -v }))
	case op == token.SUB && x.k == kFloat:
		return floatX(call1(x.f, func(v float64) float64 { return -v }))
	case op == token.NOT && x.k == kBool:
		return boolX(call1(x.b, func(v bool) bool { return !v }))
	}
	// A dynamic operand, or one whose static kind the operator rejects (!5,
	// -"a"): checked, and failed, when the node executes.
	xFn := c.box(x)
	return unboxed(unaryKind(op, x.k), func(fr *frame) (Value, error) {
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
	})
}

// logical compiles the short-circuit operators.
func (c *compiler) logical(ex *ast.BinaryExpr) texpr {
	lFn := c.cond(ex.X)
	rFn := c.cond(ex.Y)
	short := ex.Op == token.LOR // the left value that decides the result
	return boolX(func(fr *frame) (bool, error) {
		l, err := lFn(fr)
		if err != nil || l == short {
			return short, err
		}
		return rFn(fr)
	})
}

// binop compiles l op r for the comparison and arithmetic operators, with
// predicate.EvalBinary's semantics (the walker calls it): int/float
// promotion, datum-order comparison, errors on division by zero. Operands of
// fitting static kinds compute unboxed; anything else — a dynamic operand,
// kinds that conflict — is handed to EvalBinary itself at run time.
// rFirst evaluates the right operand before the left (op-assign).
func (c *compiler) binop(op token.Token, l, r texpr, rFirst bool) texpr {
	switch {
	case isComparison(op):
		switch {
		case l.k == kInt && r.k == kInt:
			return boolX(compare(op, l.i, r.i))
		case numeric(l.k) && numeric(r.k):
			return boolX(compare(op, l.asFloat(), r.asFloat()))
		case l.k == kStr && r.k == kStr:
			return boolX(compare(op, l.s, r.s))
		case l.k == kBool && r.k == kBool && (op == token.EQL || op == token.NEQ):
			return boolX(call2(l.b, r.b, func(x, y bool) bool { return (x == y) == (op == token.EQL) }))
		}
	default:
		switch arithKind(op, l.k, r.k) {
		case kInt:
			return intX(intArith(op, l.i, r.i, rFirst))
		case kFloat:
			return floatX(floatArith(op, l.asFloat(), r.asFloat(), rFirst))
		case kStr:
			if rFirst {
				return strX(call2(r.s, l.s, func(y, x string) string { return x + y }))
			}
			return strX(call2(l.s, r.s, func(x, y string) string { return x + y }))
		}
	}
	lFn, rFn := c.box(l), c.box(r)
	return unboxed(binaryKind(op, l.k, r.k), func(fr *frame) (Value, error) {
		var lv, rv Value
		var err error
		if rFirst {
			if rv, err = rFn(fr); err == nil {
				lv, err = lFn(fr)
			}
		} else {
			if lv, err = lFn(fr); err == nil {
				rv, err = rFn(fr)
			}
		}
		if err != nil {
			return Value{}, err
		}
		ld, err := lv.scalar()
		if err != nil {
			return Value{}, err
		}
		rd, err := rv.scalar()
		if err != nil {
			return Value{}, err
		}
		out, err := predicate.EvalBinary(op, ld, rd)
		if err != nil {
			return Value{}, err
		}
		return Scalar(out), nil
	})
}

// compare compiles a comparison of two operands of one kind. <= and >= are
// "not greater" and "not less": serde.Datum.Compare orders a NaN equal to
// everything, and EvalBinary compares through it.
func compare[T int64 | float64 | string](op token.Token, l, r fn[T]) fn[bool] {
	return func(fr *frame) (bool, error) {
		x, err := l(fr)
		if err != nil {
			return false, err
		}
		y, err := r(fr)
		if err != nil {
			return false, err
		}
		switch op {
		case token.EQL:
			return x == y, nil
		case token.NEQ:
			return x != y, nil
		case token.LSS:
			return x < y, nil
		case token.LEQ:
			return !(x > y), nil
		case token.GTR:
			return x > y, nil
		default:
			return !(x < y), nil
		}
	}
}

// The text is predicate.EvalBinary's: typed arithmetic fails as it does.
var (
	errDivZero = errors.New("predicate: integer division by zero")
	errModZero = errors.New("predicate: integer modulo by zero")
)

// intArith compiles int arithmetic. With rFirst, r is evaluated before l.
func intArith(op token.Token, l, r fn[int64], rFirst bool) fn[int64] {
	first, second := l, r
	if rFirst {
		first, second = r, l
	}
	return func(fr *frame) (int64, error) {
		x, err := first(fr)
		if err != nil {
			return 0, err
		}
		y, err := second(fr)
		if err != nil {
			return 0, err
		}
		if rFirst {
			x, y = y, x
		}
		switch op {
		case token.ADD:
			return x + y, nil
		case token.SUB:
			return x - y, nil
		case token.MUL:
			return x * y, nil
		case token.QUO:
			if y == 0 {
				return 0, errDivZero
			}
			return x / y, nil
		default:
			if y == 0 {
				return 0, errModZero
			}
			return x % y, nil
		}
	}
}

// floatArith compiles float arithmetic (arithKind admits no float %).
func floatArith(op token.Token, l, r fn[float64], rFirst bool) fn[float64] {
	first, second := l, r
	if rFirst {
		first, second = r, l
	}
	return func(fr *frame) (float64, error) {
		x, err := first(fr)
		if err != nil {
			return 0, err
		}
		y, err := second(fr)
		if err != nil {
			return 0, err
		}
		if rFirst {
			x, y = y, x
		}
		switch op {
		case token.ADD:
			return x + y, nil
		case token.SUB:
			return x - y, nil
		case token.MUL:
			return x * y, nil
		default:
			return x / y, nil
		}
	}
}

// index compiles x[i]: a list element or a map value, either way a datum of
// no statically known kind.
func (c *compiler) index(ex *ast.IndexExpr) texpr {
	xFn := c.box(c.expr(ex.X))
	iFn := c.box(c.expr(ex.Index))
	return dynX(func(fr *frame) (Value, error) {
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
	})
}

// call resolves the dispatch target at compile time: stdlib package, ctx
// parameter, iterator parameter, record receiver, then user-defined helper,
// then plain builtin. The call's static kind is callKind's: each target
// lowers to that kind, natively where it can and by unboxing a dynamic
// computation (or a closure that always fails) where it cannot.
func (c *compiler) call(call *ast.CallExpr) texpr {
	k := c.callKind(call)
	if recv, method, ok := lang.MethodOn(call); ok {
		switch {
		case recv == "strings" || recv == "strconv" || recv == "math":
			return c.builtin(recv+"."+method, call.Args, k)
		case recv == c.ctxName:
			return c.ctxCall(method, call.Args, k)
		case recv == c.iterName:
			return c.iterCall(method, call.Args, k)
		default:
			return c.accessor(recv, method, call.Args, k)
		}
	}
	name, _ := lang.CallName(call)
	if callee, ok := c.funcs[name]; ok && !lang.IsWellKnown(name) {
		return dynX(c.helperCall(callee, call.Args))
	}
	return c.builtin(name, call.Args, k)
}

// args compiles a call's argument list into one closure that evaluates the
// arguments left to right, boxed, onto the executor's argument stack and
// returns where they start; the caller reads ex.stack[base:] and pops back
// to base. The stack — not a buffer owned by the call site — is what keeps a
// call allocation-free and re-entrant: in f(a, f(b, c)) the inner call runs
// between the outer call's first and second push.
func (c *compiler) args(ts []texpr) func(*frame) (base int, err error) {
	fns := make([]exprFn, len(ts))
	for i, t := range ts {
		fns[i] = c.box(t)
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

func (c *compiler) exprs(es []ast.Expr) []texpr {
	ts := make([]texpr, len(es))
	for i, e := range es {
		ts[i] = c.expr(e)
	}
	return ts
}

func (c *compiler) builtin(name string, args []ast.Expr, k kind) texpr {
	// make(map[K]V) is special: its argument is a type, not a value.
	if name == "make" {
		if len(args) != 1 {
			return dynX(errExpr(fmt.Errorf("interp: make takes exactly one type argument")))
		}
		if _, ok := args[0].(*ast.MapType); !ok {
			return dynX(errExpr(fmt.Errorf("interp: make supports only map types")))
		}
		return dynX(func(*frame) (Value, error) { return NewMapVal(), nil })
	}
	ts := c.exprs(args)
	b, ok := builtins[name]
	if ok && b.typed != nil {
		if t, ok := b.typed(ts); ok {
			return t
		}
	}
	impl := b.impl
	if !ok {
		// Reported after the arguments have been evaluated, like any other
		// failure of the callee.
		impl = func([]Value) (Value, error) {
			return Value{}, fmt.Errorf("interp: unknown function %q", name)
		}
	}
	argsFn := c.args(ts)
	return unboxed(k, func(fr *frame) (Value, error) {
		base, err := argsFn(fr)
		if err != nil {
			return Value{}, err
		}
		ex := fr.ex
		v, err := impl(ex.stack[base:])
		ex.stack = ex.stack[:base]
		return v, err
	})
}

// helperCall compiles a call of a user-defined helper: the arguments move
// from the argument stack into the (dynamic) parameter slots of the frame
// one below the caller's, and the callee's body runs there. The validator
// has checked the argument count against the callee's parameters.
func (c *compiler) helperCall(callee *compiledFunc, args []ast.Expr) exprFn {
	argsFn := c.args(c.exprs(args))
	return func(fr *frame) (Value, error) {
		base, err := argsFn(fr)
		if err != nil {
			return Value{}, err
		}
		if fr.depth >= fr.ex.maxDepth {
			return Value{}, fmt.Errorf("interp: call depth exceeded %d in %s (runaway recursion?)", fr.ex.maxDepth, callee.name)
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

// strArg compiles an operand that must be a string: the typed closure when
// it statically is one, else the boxed value checked when it is used.
func (c *compiler) strArg(e ast.Expr) fn[string] {
	t := c.expr(e)
	if t.k == kStr {
		return t.s
	}
	f := c.box(t)
	return func(fr *frame) (string, error) {
		v, err := f(fr)
		if err != nil {
			return "", err
		}
		return v.str()
	}
}

// fieldSite is one record-field read site: recv.Int("f"), values.FieldStr(f).
// It caches the (schema, field)→index resolution: records of one input
// stream share a schema and most sites pass a constant field name, so after
// the first record the lookup is a pointer comparison plus an (almost always
// pointer-equal) string comparison. The field must be part of the key:
// accessor field names may be computed per record. Executors are
// single-threaded by contract, which makes the per-site cache safe.
//
// A site on Map's record parameter with a constant field name is also BOUND
// to each batch InvokeMapBatch runs (bind): it then reads its column vector
// directly, and the state below the memo is valid for that batch only.
type fieldSite struct {
	acc  string     // accessor name, for error text
	want serde.Kind // the kind the accessor demands; KindInvalid for Has
	// Memo of the last resolution.
	schema *serde.Schema
	field  string
	idx    int
	// Batch binding: col says the read is Col(idx)[row]; otherwise the site
	// yields the kind's zero (a masked column) or fails with err.
	col bool
	err error
}

func (s *fieldSite) resolve(schema *serde.Schema, field string) {
	if schema != s.schema || field != s.field {
		s.schema, s.field, s.idx = schema, field, schema.IndexOf(field)
	}
}

func (s *fieldSite) errMissing() error {
	return fmt.Errorf("interp: record has no field %q (schema %s)", s.field, s.schema)
}

func (s *fieldSite) errKind(got serde.Kind) error {
	return fmt.Errorf("interp: field %q is %v, accessor %s wants %v", s.field, got, s.acc, s.want)
}

// read is the record-backed field read.
func (s *fieldSite) read(rec *serde.Record, field string) (serde.Datum, error) {
	s.resolve(rec.Schema(), field)
	if s.want == serde.KindInvalid {
		return serde.Bool(s.idx >= 0), nil
	}
	if s.idx < 0 {
		return serde.Datum{}, s.errMissing()
	}
	d := rec.At(s.idx)
	if d.Kind != s.want {
		return serde.Datum{}, s.errKind(d.Kind)
	}
	return d, nil
}

// bind points the site at batch b: exactly what reading the field from b's
// materialized row would do, decided once for all of the batch's rows.
func (s *fieldSite) bind(b *serde.Batch) {
	s.resolve(b.Schema(), s.field)
	s.col, s.err = false, nil
	switch {
	case s.want == serde.KindInvalid: // Has: a constant of the schema
	case s.idx < 0:
		s.err = s.errMissing()
	case !b.Decoded(s.idx):
		if got := s.schema.Field(s.idx).Kind; got != s.want {
			s.err = s.errKind(got)
		}
	default:
		if got := b.Col(s.idx).Kind(); got != s.want {
			s.err = s.errKind(got)
		} else {
			s.col = true
		}
	}
}

// bound compiles the read of a bound site: from the batch's column when the
// frame runs a batch row, from the frame's record (InvokeMap) otherwise.
func (s *fieldSite) bound(k kind) texpr {
	switch {
	case s.want == serde.KindInvalid:
		return boolX(func(fr *frame) (bool, error) {
			if fr.batch != nil {
				return s.idx >= 0, nil
			}
			d, err := s.read(fr.rec, s.field)
			return d.Flag(), err
		})
	case k == kInt:
		return intX(func(fr *frame) (int64, error) {
			if b := fr.batch; b != nil {
				if s.col {
					return b.Col(s.idx).Ints()[fr.row], nil
				}
				return 0, s.err
			}
			d, err := s.read(fr.rec, s.field)
			return d.Int(), err
		})
	case k == kFloat:
		return floatX(func(fr *frame) (float64, error) {
			if b := fr.batch; b != nil {
				if s.col {
					return b.Col(s.idx).Floats()[fr.row], nil
				}
				return 0, s.err
			}
			d, err := s.read(fr.rec, s.field)
			return d.Float(), err
		})
	case k == kStr:
		return strX(func(fr *frame) (string, error) {
			if b := fr.batch; b != nil {
				if s.col {
					return b.Col(s.idx).Strs()[fr.row], nil
				}
				return "", s.err
			}
			d, err := s.read(fr.rec, s.field)
			return d.Str(), err
		})
	default:
		return boolX(func(fr *frame) (bool, error) {
			if b := fr.batch; b != nil {
				if s.col {
					return b.Col(s.idx).Bools()[fr.row], nil
				}
				return false, s.err
			}
			d, err := s.read(fr.rec, s.field)
			return d.Flag(), err
		})
	}
}

// accessor compiles recv.Method(field). Known accessors with one argument
// read through a fieldSite: bound to the input's columns when recv is Map's
// record parameter and the field name a constant, else from whatever record
// recv holds at run time.
func (c *compiler) accessor(recv, method string, args []ast.Expr, k kind) texpr {
	want, typed := accessorKind(method)
	if (typed || method == "Has") && len(args) == 1 {
		site := &fieldSite{acc: method, want: want}
		// Raw has no typed convention; its reads stay record-backed.
		if field, ok := constString(args[0]); ok && recv == c.recName && want != serde.KindBytes {
			site.field = field
			c.cf.fields = append(c.cf.fields, site)
			return site.bound(k)
		}
		return c.fieldRead(c.recordOf(recv), site, args[0], k)
	}

	// Slow path: wrong arity or a method name that is not a record accessor
	// (the validator admits ctx/iter method names here; they are reported
	// when the call executes). Defer entirely to the recordAccess kernel, in
	// order: receiver check, arity check, argument evaluation, kernel.
	readRec := c.recordOf(recv)
	var fieldFn fn[string]
	if len(args) == 1 {
		fieldFn = c.strArg(args[0])
	}
	return unboxed(k, func(fr *frame) (Value, error) {
		rec, err := readRec(fr)
		if err != nil {
			return Value{}, err
		}
		if fieldFn == nil {
			return Value{}, fmt.Errorf("interp: %s takes exactly one field name", method)
		}
		field, err := fieldFn(fr)
		if err != nil {
			return Value{}, err
		}
		return recordAccess(rec, method, field)
	})
}

// recordOf compiles the read of an accessor's receiver, which must hold a
// record at run time (a typed slot never does).
func (c *compiler) recordOf(recv string) fn[*serde.Record] {
	notRecord := fmt.Errorf("interp: %q is not a record, ctx, or iterator", recv)
	recvFn := c.ident(recv).v
	return func(fr *frame) (*serde.Record, error) {
		if recvFn == nil {
			return nil, notRecord
		}
		v, err := recvFn(fr)
		if err != nil || v.Kind != ValRecord {
			return nil, notRecord
		}
		return v.rec(), nil
	}
}

// fieldRead lowers the field-argument handling shared by record accessors
// and iterator Field* methods: a constant field name is captured at compile
// time, a dynamic one is evaluated per call. getRec supplies the record
// (receiver variable or current iterator value) and carries that path's own
// checks.
func (c *compiler) fieldRead(getRec fn[*serde.Record], site *fieldSite, arg ast.Expr, k kind) texpr {
	if field, ok := constString(arg); ok {
		return fromDatum(k, nil, func(fr *frame) (serde.Datum, error) {
			rec, err := getRec(fr)
			if err != nil {
				return serde.Datum{}, err
			}
			return site.read(rec, field)
		})
	}
	fieldFn := c.strArg(arg)
	return fromDatum(k, nil, func(fr *frame) (serde.Datum, error) {
		rec, err := getRec(fr)
		if err != nil {
			return serde.Datum{}, err
		}
		field, err := fieldFn(fr)
		if err != nil {
			return serde.Datum{}, err
		}
		return site.read(rec, field)
	})
}

// emit compiles ctx.Emit(key, value). Typed operands become the emitted
// datums directly; a dynamic key must turn out a scalar, a dynamic value a
// scalar or a record. This is the closure every Map runs per output pair, so
// the two conventions are branches of one closure, not closures of their own.
func (c *compiler) emit(args []ast.Expr) stmtFn {
	if len(args) != 2 {
		return errStmt(fmt.Errorf("interp: Emit takes (key, value)"))
	}
	key, val := c.expr(args[0]), c.expr(args[1])
	var keyFn, valFn exprFn // set for a dynamic operand
	if key.k == kDyn {
		keyFn = c.box(key)
	}
	if val.k == kDyn {
		valFn = c.box(val)
	}
	return func(fr *frame) (ctrl, error) {
		var kd serde.Datum
		var ev EmitValue
		var err error
		if keyFn == nil {
			kd, err = key.datum(fr)
		} else {
			kd, err = dynKey(keyFn, fr)
		}
		if err != nil {
			return ctrlNone, err
		}
		if valFn == nil {
			ev.D, err = val.datum(fr)
		} else {
			ev, err = dynValue(valFn, fr)
		}
		if err != nil {
			return ctrlNone, err
		}
		if fr.ctx.Emit == nil {
			return ctrlNone, fmt.Errorf("interp: context has no emitter")
		}
		return ctrlNone, fr.ctx.Emit(kd, ev)
	}
}

func dynKey(f exprFn, fr *frame) (serde.Datum, error) {
	v, err := f(fr)
	if err != nil {
		return serde.Datum{}, err
	}
	d, err := v.scalar()
	if err != nil {
		return serde.Datum{}, fmt.Errorf("interp: emit key: %w", err)
	}
	return d, nil
}

func dynValue(f exprFn, fr *frame) (EmitValue, error) {
	v, err := f(fr)
	if err != nil {
		return EmitValue{}, err
	}
	return FromValue(v)
}

// void adapts a statement-shaped ctx call to expression position.
func void(f stmtFn) texpr {
	return dynX(func(fr *frame) (Value, error) {
		_, err := f(fr)
		return Value{}, err
	})
}

func (c *compiler) ctxCall(method string, args []ast.Expr, k kind) texpr {
	switch method {
	case "Emit":
		return void(c.emit(args))
	case "ConfInt", "ConfFloat", "ConfStr":
		if len(args) != 1 {
			return unboxed(k, errExpr(fmt.Errorf("interp: %s takes one parameter name", method)))
		}
		want := confKind(method)
		if name, ok := constString(args[0]); ok {
			return fromDatum(k, nil, func(fr *frame) (serde.Datum, error) {
				return confLookup(fr.ctx, name, method, want)
			})
		}
		nameFn := c.strArg(args[0])
		return fromDatum(k, nil, func(fr *frame) (serde.Datum, error) {
			name, err := nameFn(fr)
			if err != nil {
				return serde.Datum{}, err
			}
			return confLookup(fr.ctx, name, method, want)
		})
	case "Log":
		if len(args) != 1 {
			return dynX(errExpr(fmt.Errorf("interp: Log takes one message")))
		}
		msgFn := c.box(c.expr(args[0]))
		return dynX(func(fr *frame) (Value, error) {
			mv, err := msgFn(fr)
			if err != nil {
				return Value{}, err
			}
			if fr.ctx.Log != nil {
				fr.ctx.Log(mv.D.String())
			}
			return Value{}, nil
		})
	case "Counter":
		if len(args) != 1 {
			return dynX(errExpr(fmt.Errorf("interp: Counter takes one name")))
		}
		nameFn := c.strArg(args[0])
		return dynX(func(fr *frame) (Value, error) {
			name, err := nameFn(fr)
			if err != nil {
				return Value{}, err
			}
			if fr.ctx.Counter != nil {
				fr.ctx.Counter(name, 1)
			}
			return Value{}, nil
		})
	default:
		return dynX(errExpr(fmt.Errorf("interp: unknown ctx method %q", method)))
	}
}

func (c *compiler) iterCall(method string, args []ast.Expr, k kind) texpr {
	switch method {
	case "Next":
		return boolX(func(fr *frame) (bool, error) { return fr.iterNext(), nil })
	case "Int", "Float", "Str":
		want := scalarKind(method)
		return fromDatum(k, nil, func(fr *frame) (serde.Datum, error) {
			return fr.iterScalar(method, want)
		})
	case "FieldInt", "FieldFloat", "FieldStr", "HasField":
		acc := iterFieldAccessor(method)
		getRec := func(fr *frame) (*serde.Record, error) { return fr.iterRecord(method) }
		if len(args) == 1 {
			want, _ := accessorKind(acc)
			return c.fieldRead(getRec, &fieldSite{acc: acc, want: want}, args[0], k)
		}
		return unboxed(k, func(fr *frame) (Value, error) {
			if _, err := getRec(fr); err != nil {
				return Value{}, err
			}
			return Value{}, fmt.Errorf("interp: %s takes exactly one field name", acc)
		})
	default:
		return dynX(errExpr(fmt.Errorf("interp: unknown iterator method %q", method)))
	}
}
