package interp

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"manimal/internal/serde"
)

// recordAccess is the record-accessor kernel: read field from rec per
// accessor method semantics. Call sites with a known accessor and a single
// argument take the memoized fast path (accessField) instead.
func recordAccess(rec *serde.Record, method, field string) (Value, error) {
	d, ok := rec.Lookup(field)
	if method == "Has" {
		return BoolVal(ok), nil
	}
	if !ok {
		return Value{}, fmt.Errorf("interp: record has no field %q (schema %s)", field, rec.Schema())
	}
	want, ok := accessorKind(method)
	if !ok {
		return Value{}, fmt.Errorf("interp: unknown record accessor %q", method)
	}
	if d.Kind != want {
		return Value{}, fmt.Errorf("interp: field %q is %v, accessor %s wants %v", field, d.Kind, method, want)
	}
	return Scalar(d), nil
}

// accessorKind maps a typed record-accessor name to the field kind it
// demands ("Has" is not typed and returns false).
func accessorKind(method string) (serde.Kind, bool) {
	switch method {
	case "Int":
		return serde.KindInt64, true
	case "Float":
		return serde.KindFloat64, true
	case "Str":
		return serde.KindString, true
	case "Raw":
		return serde.KindBytes, true
	case "Flag":
		return serde.KindBool, true
	default:
		return serde.KindInvalid, false
	}
}

// Iterator kernels.

// iterNext advances the reduce value iterator.
func (fr *frame) iterNext() bool {
	fr.iterOK = fr.iter.Next()
	if fr.iterOK {
		fr.iterCur = fr.iter.Value()
	}
	return fr.iterOK
}

// iterScalar reads the current scalar value as want.
func (fr *frame) iterScalar(method string, want serde.Kind) (serde.Datum, error) {
	if !fr.iterOK {
		return serde.Datum{}, fmt.Errorf("interp: values.%s before a successful Next", method)
	}
	if fr.iterCur.IsRecord() {
		return serde.Datum{}, fmt.Errorf("interp: values.%s on a record value; use Field%s", method, method)
	}
	d := fr.iterCur.D
	if d.Kind != want {
		return serde.Datum{}, fmt.Errorf("interp: current value is %v, values.%s wants %v", d.Kind, method, want)
	}
	return d, nil
}

// iterRecord returns the current record value for a Field* method.
func (fr *frame) iterRecord(method string) (*serde.Record, error) {
	if !fr.iterOK {
		return nil, fmt.Errorf("interp: values.%s before a successful Next", method)
	}
	if !fr.iterCur.IsRecord() {
		return nil, fmt.Errorf("interp: values.%s on a scalar value", method)
	}
	return fr.iterCur.Rec, nil
}

// iterFieldAccessor maps an iterator Field* method to the record accessor
// it delegates to.
func iterFieldAccessor(method string) string {
	switch method {
	case "FieldInt":
		return "Int"
	case "FieldFloat":
		return "Float"
	case "FieldStr":
		return "Str"
	default:
		return "Has"
	}
}

// confLookup is the ctx.Conf* kernel: read a job configuration parameter
// demanding the kind the method implies.
func confLookup(ctx *Context, name, method string, want serde.Kind) (serde.Datum, error) {
	d, ok := ctx.Conf[name]
	if !ok {
		return serde.Datum{}, fmt.Errorf("interp: job config has no parameter %q", name)
	}
	if d.Kind != want {
		return serde.Datum{}, fmt.Errorf("interp: config %q is %v, %s wants %v", name, d.Kind, method, want)
	}
	return d, nil
}

// confKind maps ConfInt/ConfFloat/ConfStr to the datum kind it demands.
func confKind(method string) serde.Kind {
	return scalarKind(strings.TrimPrefix(method, "Conf"))
}

// scalarKind maps an Int/Float/Str method suffix to a datum kind.
func scalarKind(method string) serde.Kind {
	switch method {
	case "Int":
		return serde.KindInt64
	case "Float":
		return serde.KindFloat64
	default:
		return serde.KindString
	}
}

// builtinImpl evaluates one whitelisted function over already-evaluated
// boxed arguments. args aliases the executor's argument stack and must not
// be retained.
type builtinImpl func(args []Value) (Value, error)

// builtin is one row of the whitelisted-function table. Every function has
// the boxed implementation, which a call site uses when an operand is
// dynamic (or of the wrong static kind: impl's own check then raises the
// runtime error). ret is the static kind of its result — kDyn for the
// list-valued ones — and typed, where set, lowers a call whose operands'
// static kinds fit the function's signature to a typed closure that takes
// them unboxed, with no trip over the argument stack. Both forms of a row
// are derived from one Go function (fn1, fn2, num1, num2), so they cannot
// drift apart. Together with make (whose argument is a type; see
// compiler.builtin) the table is asserted by test to implement every name
// in lang.PureFuncs ∪ lang.ImpureFuncs, so the analyzer's purity knowledge
// and the runtime agree.
type builtin struct {
	ret   kind
	retOf func(args kind) kind // min, max: the result has the kind the operands share
	impl  builtinImpl
	typed func(args []texpr) (texpr, bool)
}

// builtinKind is the static kind of a call of the named function; args
// yields the join of its arguments' kinds.
func builtinKind(name string, args func() kind) kind {
	b, ok := builtins[name]
	switch {
	case !ok:
		return kDyn
	case b.retOf != nil:
		return b.retOf(args())
	default:
		return b.ret
	}
}

// kindOps is what deriving both forms of a builtin needs to know about an
// operand or result kind: how the boxed form unboxes/boxes it and how the
// typed form picks/wraps its closure.
type kindOps[T any] struct {
	k     kind
	unbox func(Value) (T, error)
	pick  func(*texpr) fn[T]
	box   func(T) Value
	wrap  func(fn[T]) texpr
}

var (
	intK   = kindOps[int64]{kInt, Value.integer, func(t *texpr) fn[int64] { return t.i }, IntVal, intX}
	strK   = kindOps[string]{kStr, Value.str, func(t *texpr) fn[string] { return t.s }, StrVal, strX}
	floatK = kindOps[float64]{k: kFloat, box: FloatVal, wrap: floatX}
	boolK  = kindOps[bool]{k: kBool, box: BoolVal, wrap: boolX}
	// listK is a list result: built boxed by the function itself.
	listK = kindOps[Value]{k: kDyn, box: func(v Value) Value { return v }, wrap: dynX}
)

// call1 and call2 apply a Go function to typed operands.
func call1[A, R any](a fn[A], f func(A) R) fn[R] {
	return func(fr *frame) (R, error) {
		x, err := a(fr)
		if err != nil {
			var zero R
			return zero, err
		}
		return f(x), nil
	}
}

func call2[A, B, R any](a fn[A], b fn[B], f func(A, B) R) fn[R] {
	return func(fr *frame) (R, error) {
		var zero R
		x, err := a(fr)
		if err != nil {
			return zero, err
		}
		y, err := b(fr)
		if err != nil {
			return zero, err
		}
		return f(x, y), nil
	}
}

// fn1 and fn2 derive a table row from a Go function of one or two operands.
func fn1[A, R any](a kindOps[A], r kindOps[R], f func(A) R) builtin {
	return builtin{
		ret: r.k,
		impl: func(args []Value) (Value, error) {
			x, err := a.unbox(args[0])
			if err != nil {
				return Value{}, err
			}
			return r.box(f(x)), nil
		},
		typed: func(args []texpr) (texpr, bool) {
			if len(args) != 1 || args[0].k != a.k {
				return texpr{}, false
			}
			return r.wrap(call1(a.pick(&args[0]), f)), true
		},
	}
}

func fn2[A, B, R any](a kindOps[A], b kindOps[B], r kindOps[R], f func(A, B) R) builtin {
	return builtin{
		ret: r.k,
		impl: func(args []Value) (Value, error) {
			x, err := a.unbox(args[0])
			if err != nil {
				return Value{}, err
			}
			y, err := b.unbox(args[1])
			if err != nil {
				return Value{}, err
			}
			return r.box(f(x, y)), nil
		},
		typed: func(args []texpr) (texpr, bool) {
			if len(args) != 2 || args[0].k != a.k || args[1].k != b.k {
				return texpr{}, false
			}
			return r.wrap(call2(a.pick(&args[0]), b.pick(&args[1]), f)), true
		},
	}
}

// num is the math builtins' operand rule: an int or a float, as a float.
func num(name string, args []Value, i int) (float64, error) {
	d, err := args[i].scalar()
	if err != nil {
		return 0, err
	}
	switch d.Kind {
	case serde.KindInt64:
		return float64(d.Int()), nil
	case serde.KindFloat64:
		return d.Float(), nil
	default:
		return 0, fmt.Errorf("interp: %s arg %d: expected number, got %v", name, i, d.Kind)
	}
}

// num1 and num2 are fn1 and fn2 for the math functions.
func num1(name string, f func(float64) float64) builtin {
	return builtin{
		ret: kFloat,
		impl: func(args []Value) (Value, error) {
			x, err := num(name, args, 0)
			if err != nil {
				return Value{}, err
			}
			return FloatVal(f(x)), nil
		},
		typed: func(args []texpr) (texpr, bool) {
			if !numeric(args[0].k) {
				return texpr{}, false
			}
			return floatX(call1(args[0].asFloat(), f)), true
		},
	}
}

func num2(name string, f func(x, y float64) float64) builtin {
	return builtin{
		ret: kFloat,
		impl: func(args []Value) (Value, error) {
			x, err := num(name, args, 0)
			if err != nil {
				return Value{}, err
			}
			y, err := num(name, args, 1)
			if err != nil {
				return Value{}, err
			}
			return FloatVal(f(x, y)), nil
		},
		typed: func(args []texpr) (texpr, bool) {
			if !numeric(args[0].k) || !numeric(args[1].k) {
				return texpr{}, false
			}
			return floatX(call2(args[0].asFloat(), args[1].asFloat(), f)), true
		},
	}
}

// minmax is min or max: boxed, the extreme of any scalars in datum order;
// typed when every operand is an int.
func minmax(name string) builtin {
	isMin := name == "min"
	wins := func(c int) bool { return (isMin && c < 0) || (!isMin && c > 0) }
	return builtin{
		retOf: func(args kind) kind {
			if args == kInt || args == kNone {
				return args
			}
			return kDyn
		},
		impl: func(args []Value) (Value, error) {
			if len(args) < 2 {
				return Value{}, fmt.Errorf("interp: %s takes at least two arguments", name)
			}
			best, err := args[0].scalar()
			if err != nil {
				return Value{}, err
			}
			for _, a := range args[1:] {
				d, err := a.scalar()
				if err != nil {
					return Value{}, err
				}
				if wins(d.Compare(best)) {
					best = d
				}
			}
			return Scalar(best), nil
		},
		typed: func(args []texpr) (texpr, bool) {
			fs := make([]fn[int64], len(args))
			for i := range args {
				if args[i].k != kInt {
					return texpr{}, false
				}
				fs[i] = args[i].i
			}
			if len(fs) < 2 {
				return texpr{}, false
			}
			return intX(func(fr *frame) (int64, error) {
				best, err := fs[0](fr)
				if err != nil {
					return 0, err
				}
				for _, f := range fs[1:] {
					x, err := f(fr)
					if err != nil {
						return 0, err
					}
					if (isMin && x < best) || (!isMin && x > best) {
						best = x
					}
				}
				return best, nil
			}), true
		},
	}
}

// strList boxes the result of a list-valued function. It is the only
// constructor of lists in the language, which is what lets a range
// statement bind its element variable as a string (compiler.infer).
func strList(parts []string) Value {
	ds := make([]serde.Datum, len(parts))
	for i, p := range parts {
		ds[i] = serde.String(p)
	}
	return ListVal(ds)
}

var builtins = map[string]builtin{
	"len": {
		ret: kInt,
		impl: func(args []Value) (Value, error) {
			if len(args) != 1 {
				return Value{}, fmt.Errorf("interp: len takes one argument")
			}
			switch args[0].Kind {
			case ValScalar:
				if args[0].D.Kind == serde.KindString {
					return IntVal(int64(len(args[0].D.Str()))), nil
				}
				if args[0].D.Kind == serde.KindBytes {
					return IntVal(int64(len(args[0].D.Raw()))), nil
				}
				return Value{}, fmt.Errorf("interp: len of %v", args[0].D.Kind)
			case ValList:
				return IntVal(int64(len(args[0].list()))), nil
			case ValMap:
				return IntVal(int64(len(args[0].dict()))), nil
			default:
				return Value{}, fmt.Errorf("interp: len of %v", args[0].Kind)
			}
		},
		typed: func(args []texpr) (texpr, bool) {
			if len(args) != 1 || args[0].k != kStr {
				return texpr{}, false
			}
			return intX(call1(args[0].s, func(s string) int64 { return int64(len(s)) })), true
		},
	},
	"min": minmax("min"),
	"max": minmax("max"),

	"strings.Contains":  fn2(strK, strK, boolK, strings.Contains),
	"strings.HasPrefix": fn2(strK, strK, boolK, strings.HasPrefix),
	"strings.HasSuffix": fn2(strK, strK, boolK, strings.HasSuffix),
	"strings.Index":     fn2(strK, strK, intK, func(s, sub string) int64 { return int64(strings.Index(s, sub)) }),
	"strings.ToLower":   fn1(strK, strK, strings.ToLower),
	"strings.ToUpper":   fn1(strK, strK, strings.ToUpper),
	"strings.TrimSpace": fn1(strK, strK, strings.TrimSpace),
	"strings.Split":     fn2(strK, strK, listK, func(s, sep string) Value { return strList(strings.Split(s, sep)) }),
	"strings.Fields":    fn1(strK, listK, func(s string) Value { return strList(strings.Fields(s)) }),
	"strings.Join": {
		ret: kStr,
		impl: func(args []Value) (Value, error) {
			if args[0].Kind != ValList {
				return Value{}, fmt.Errorf("interp: strings.Join needs a list")
			}
			sep, err := args[1].str()
			if err != nil {
				return Value{}, err
			}
			list := args[0].list()
			parts := make([]string, len(list))
			for i, d := range list {
				parts[i] = d.String()
			}
			return StrVal(strings.Join(parts, sep)), nil
		},
	},
	"strings.Replace": {
		ret: kStr,
		impl: func(args []Value) (Value, error) {
			s, err := args[0].str()
			if err != nil {
				return Value{}, err
			}
			old, err := args[1].str()
			if err != nil {
				return Value{}, err
			}
			new_, err := args[2].str()
			if err != nil {
				return Value{}, err
			}
			n, err := args[3].integer()
			if err != nil {
				return Value{}, err
			}
			return StrVal(strings.Replace(s, old, new_, int(n))), nil
		},
	},

	// Language spec: Atoi/ParseFloat are single-valued; unparsable input
	// yields 0, and ParseFloat's optional bit-size argument is ignored (a
	// call that passes it takes the boxed form).
	"strconv.Atoi": fn1(strK, intK, func(s string) int64 {
		v, _ := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		return v
	}),
	"strconv.Itoa": fn1(intK, strK, func(v int64) string { return strconv.FormatInt(v, 10) }),
	"strconv.ParseFloat": fn1(strK, floatK, func(s string) float64 {
		v, _ := strconv.ParseFloat(strings.TrimSpace(s), 64)
		return v
	}),

	"math.Abs":   num1("math.Abs", math.Abs),
	"math.Floor": num1("math.Floor", math.Floor),
	"math.Sqrt":  num1("math.Sqrt", math.Sqrt),
	"math.Max":   num2("math.Max", math.Max),
	"math.Min":   num2("math.Min", math.Min),
}
