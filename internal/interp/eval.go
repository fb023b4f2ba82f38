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
func (fr *frame) iterNext() Value {
	fr.iterOK = fr.iter.Next()
	if fr.iterOK {
		fr.iterCur = fr.iter.Value()
	}
	return BoolVal(fr.iterOK)
}

// iterScalar reads the current scalar value as want.
func (fr *frame) iterScalar(method string, want serde.Kind) (Value, error) {
	if !fr.iterOK {
		return Value{}, fmt.Errorf("interp: values.%s before a successful Next", method)
	}
	if fr.iterCur.IsRecord() {
		return Value{}, fmt.Errorf("interp: values.%s on a record value; use Field%s", method, method)
	}
	d := fr.iterCur.D
	if d.Kind != want {
		return Value{}, fmt.Errorf("interp: current value is %v, values.%s wants %v", d.Kind, method, want)
	}
	return Scalar(d), nil
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
func confLookup(ctx *Context, name, method string, want serde.Kind) (Value, error) {
	d, ok := ctx.Conf[name]
	if !ok {
		return Value{}, fmt.Errorf("interp: job config has no parameter %q", name)
	}
	if d.Kind != want {
		return Value{}, fmt.Errorf("interp: config %q is %v, %s wants %v", name, d.Kind, method, want)
	}
	return Scalar(d), nil
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
// arguments; the compiler resolves the function value once per call site.
// args aliases the executor's argument stack and must not be retained.
// Together with make (whose argument is a type; see compiler.builtin) the
// builtins table is asserted by test to implement every name in
// lang.PureFuncs ∪ lang.ImpureFuncs, so the analyzer's purity knowledge
// and the runtime agree.
type builtinImpl func(args []Value) (Value, error)

var builtins = buildBuiltins()

func buildBuiltins() map[string]builtinImpl {
	num := func(name string, args []Value, i int) (float64, error) {
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
	// twoStrings builds an impl over two string arguments.
	twoStrings := func(f func(s, sub string) Value) builtinImpl {
		return func(args []Value) (Value, error) {
			s, err := args[0].str()
			if err != nil {
				return Value{}, err
			}
			sub, err := args[1].str()
			if err != nil {
				return Value{}, err
			}
			return f(s, sub), nil
		}
	}
	oneString := func(f func(s string) Value) builtinImpl {
		return func(args []Value) (Value, error) {
			s, err := args[0].str()
			if err != nil {
				return Value{}, err
			}
			return f(s), nil
		}
	}
	minmax := func(name string) builtinImpl {
		return func(args []Value) (Value, error) {
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
				c := d.Compare(best)
				if (name == "min" && c < 0) || (name == "max" && c > 0) {
					best = d
				}
			}
			return Scalar(best), nil
		}
	}
	unaryMath := func(name string, f func(float64) float64) builtinImpl {
		return func(args []Value) (Value, error) {
			x, err := num(name, args, 0)
			if err != nil {
				return Value{}, err
			}
			return FloatVal(f(x)), nil
		}
	}
	binaryMath := func(name string, f func(x, y float64) float64) builtinImpl {
		return func(args []Value) (Value, error) {
			x, err := num(name, args, 0)
			if err != nil {
				return Value{}, err
			}
			y, err := num(name, args, 1)
			if err != nil {
				return Value{}, err
			}
			return FloatVal(f(x, y)), nil
		}
	}
	strList := func(parts []string) Value {
		ds := make([]serde.Datum, len(parts))
		for i, p := range parts {
			ds[i] = serde.String(p)
		}
		return ListVal(ds)
	}

	return map[string]builtinImpl{
		"len": func(args []Value) (Value, error) {
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
		"min": minmax("min"),
		"max": minmax("max"),

		"strings.Contains":  twoStrings(func(s, sub string) Value { return BoolVal(strings.Contains(s, sub)) }),
		"strings.HasPrefix": twoStrings(func(s, sub string) Value { return BoolVal(strings.HasPrefix(s, sub)) }),
		"strings.HasSuffix": twoStrings(func(s, sub string) Value { return BoolVal(strings.HasSuffix(s, sub)) }),
		"strings.Index":     twoStrings(func(s, sub string) Value { return IntVal(int64(strings.Index(s, sub))) }),
		"strings.ToLower":   oneString(func(s string) Value { return StrVal(strings.ToLower(s)) }),
		"strings.ToUpper":   oneString(func(s string) Value { return StrVal(strings.ToUpper(s)) }),
		"strings.TrimSpace": oneString(func(s string) Value { return StrVal(strings.TrimSpace(s)) }),
		"strings.Split":     twoStrings(func(s, sep string) Value { return strList(strings.Split(s, sep)) }),
		"strings.Fields":    oneString(func(s string) Value { return strList(strings.Fields(s)) }),
		"strings.Join": func(args []Value) (Value, error) {
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
		"strings.Replace": func(args []Value) (Value, error) {
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

		// Language spec: Atoi/ParseFloat are single-valued; unparsable input
		// yields 0, and ParseFloat's optional bit-size argument is ignored.
		"strconv.Atoi": oneString(func(s string) Value {
			v, _ := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			return IntVal(v)
		}),
		"strconv.Itoa": func(args []Value) (Value, error) {
			v, err := args[0].integer()
			if err != nil {
				return Value{}, err
			}
			return StrVal(strconv.FormatInt(v, 10)), nil
		},
		"strconv.ParseFloat": oneString(func(s string) Value {
			v, _ := strconv.ParseFloat(strings.TrimSpace(s), 64)
			return FloatVal(v)
		}),

		"math.Abs":   unaryMath("math.Abs", math.Abs),
		"math.Floor": unaryMath("math.Floor", math.Floor),
		"math.Sqrt":  unaryMath("math.Sqrt", math.Sqrt),
		"math.Max":   binaryMath("math.Max", math.Max),
		"math.Min":   binaryMath("math.Min", math.Min),
	}
}
