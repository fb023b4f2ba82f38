package interp

import (
	"fmt"
	"strings"
	"testing"

	"manimal/internal/lang"
	"manimal/internal/serde"
)

var testSchema = serde.MustSchema(
	serde.Field{Name: "url", Kind: serde.KindString},
	serde.Field{Name: "rank", Kind: serde.KindInt64},
	serde.Field{Name: "score", Kind: serde.KindFloat64},
	serde.Field{Name: "ok", Kind: serde.KindBool},
)

func record(url string, rank int64, score float64, ok bool) *serde.Record {
	r := serde.NewRecord(testSchema)
	r.MustSet("url", serde.String(url))
	r.MustSet("rank", serde.Int(rank))
	r.MustSet("score", serde.Float(score))
	r.MustSet("ok", serde.Bool(ok))
	return r
}

type emitted struct {
	k serde.Datum
	v EmitValue
}

// runMap executes src's Map over the records and returns emissions.
func runMap(t *testing.T, src string, conf map[string]serde.Datum, recs ...*serde.Record) []emitted {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ex, err := New(p)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	var out []emitted
	ctx := &Context{
		Conf: conf,
		Emit: func(k serde.Datum, v EmitValue) error {
			out = append(out, emitted{k, v})
			return nil
		},
	}
	for i, r := range recs {
		if err := ex.InvokeMap(serde.Int(int64(i)), r, ctx); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	return out
}

func TestSelectionSemantics(t *testing.T) {
	out := runMap(t, `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("rank") > ctx.ConfInt("t") {
		ctx.Emit(v.Str("url"), v.Int("rank"))
	}
}
`, map[string]serde.Datum{"t": serde.Int(5)},
		record("a", 3, 0, false), record("b", 7, 0, false), record("c", 10, 0, false))
	if len(out) != 2 || out[0].k.Str() != "b" || out[1].k.Str() != "c" {
		t.Fatalf("out = %+v", out)
	}
}

func TestArithmeticAndLoops(t *testing.T) {
	out := runMap(t, `
func Map(k, v *Record, ctx *Ctx) {
	sum := 0
	for i := 1; i <= 10; i++ {
		if i == 5 {
			continue
		}
		if i == 9 {
			break
		}
		sum += i
	}
	ctx.Emit(k, sum)
}
`, nil, record("", 0, 0, false))
	// 1+2+3+4+6+7+8 = 31
	if len(out) != 1 || out[0].v.D.Int() != 31 {
		t.Fatalf("out = %+v", out)
	}
}

func TestStringOpsAndRange(t *testing.T) {
	out := runMap(t, `
func Map(k, v *Record, ctx *Ctx) {
	for i, w := range strings.Split(v.Str("url"), "/") {
		if strings.HasPrefix(w, "p") {
			ctx.Emit(strings.ToUpper(w), i)
		}
	}
}
`, nil, record("site/page/part", 0, 0, false))
	if len(out) != 2 || out[0].k.Str() != "PAGE" || out[0].v.D.Int() != 1 || out[1].k.Str() != "PART" {
		t.Fatalf("out = %+v", out)
	}
}

func TestMapsAndTwoValueLookup(t *testing.T) {
	out := runMap(t, `
func Map(k, v *Record, ctx *Ctx) {
	seen := make(map[string]bool)
	words := strings.Fields(v.Str("url"))
	for _, w := range words {
		dup := seen[w]
		if !dup {
			seen[w] = true
			ctx.Emit(w, len(seen))
		}
	}
	total, found := seen["a"]
	if found && total {
		ctx.Emit("had-a", 1)
	}
}
`, nil, record("a b a c b", 0, 0, false))
	if len(out) != 4 {
		t.Fatalf("out = %+v", out)
	}
	if out[3].k.Str() != "had-a" {
		t.Fatalf("two-value lookup failed: %+v", out[3])
	}
}

// Member variables persist across invocations within one executor (the
// Figure 2 behaviour) and reset across executors (fresh task).
func TestGlobalsPersistPerExecutor(t *testing.T) {
	src := `
var calls int

func Map(k, v *Record, ctx *Ctx) {
	calls++
	ctx.Emit(k, calls)
}
`
	out := runMap(t, src, nil, record("", 0, 0, false), record("", 0, 0, false), record("", 0, 0, false))
	if out[0].v.D.Int() != 1 || out[1].v.D.Int() != 2 || out[2].v.D.Int() != 3 {
		t.Fatalf("member variable did not persist: %+v", out)
	}
	// A fresh executor starts over.
	out2 := runMap(t, src, nil, record("", 0, 0, false))
	if out2[0].v.D.Int() != 1 {
		t.Fatalf("fresh executor saw stale member state: %+v", out2)
	}
}

func TestReduceIteration(t *testing.T) {
	p, err := lang.Parse(`
func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(k, 0)
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	sum := 0
	n := 0
	for values.Next() {
		sum = sum + values.Int()
		n++
	}
	ctx.Emit(key, sum*100+n)
}
`)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	var got []emitted
	ctx := &Context{Emit: func(k serde.Datum, v EmitValue) error {
		got = append(got, emitted{k, v})
		return nil
	}}
	it := &sliceIter{vals: []EmitValue{{D: serde.Int(5)}, {D: serde.Int(7)}, {D: serde.Int(1)}}}
	if err := ex.InvokeReduce(serde.String("g"), it, ctx); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].v.D.Int() != 13*100+3 {
		t.Fatalf("got = %+v", got)
	}
}

func TestReduceRecordValues(t *testing.T) {
	p, err := lang.Parse(`
func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(k, v)
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	best := 0
	for values.Next() {
		if values.HasField("rank") {
			r := values.FieldInt("rank")
			if r > best {
				best = r
			}
		}
	}
	ctx.Emit(key, best)
}
`)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	var got []emitted
	ctx := &Context{Emit: func(k serde.Datum, v EmitValue) error {
		got = append(got, emitted{k, v})
		return nil
	}}
	it := &sliceIter{vals: []EmitValue{
		{Rec: record("a", 4, 0, false)},
		{Rec: record("b", 9, 0, false)},
		{Rec: record("c", 2, 0, false)},
	}}
	if err := ex.InvokeReduce(serde.String("g"), it, ctx); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].v.D.Int() != 9 {
		t.Fatalf("got = %+v", got)
	}
}

type sliceIter struct {
	vals []EmitValue
	pos  int
	cur  EmitValue
}

func (it *sliceIter) Next() bool {
	if it.pos >= len(it.vals) {
		return false
	}
	it.cur = it.vals[it.pos]
	it.pos++
	return true
}

func (it *sliceIter) Value() EmitValue { return it.cur }

func TestSideEffectHooks(t *testing.T) {
	p, err := lang.Parse(`
func Map(k, v *Record, ctx *Ctx) {
	ctx.Log("processing")
	ctx.Counter("seen")
	ctx.Emit(k, 1)
}
`)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	var logs []string
	counters := map[string]int64{}
	ctx := &Context{
		Emit:    func(serde.Datum, EmitValue) error { return nil },
		Log:     func(m string) { logs = append(logs, m) },
		Counter: func(n string, d int64) { counters[n] += d },
	}
	if err := ex.InvokeMap(serde.Int(0), record("", 0, 0, false), ctx); err != nil {
		t.Fatal(err)
	}
	if len(logs) != 1 || counters["seen"] != 1 {
		t.Fatalf("logs=%v counters=%v", logs, counters)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"missing-field", `func Map(k, v *Record, ctx *Ctx) { ctx.Emit(k, v.Int("nope")) }`, "no field"},
		{"kind-mismatch", `func Map(k, v *Record, ctx *Ctx) { ctx.Emit(k, v.Str("rank")) }`, "accessor Str wants"},
		{"missing-conf", `func Map(k, v *Record, ctx *Ctx) { ctx.Emit(k, ctx.ConfInt("zzz")) }`, "no parameter"},
		{"div-zero", `func Map(k, v *Record, ctx *Ctx) { ctx.Emit(k, 1/(v.Int("rank")-v.Int("rank"))) }`, "division by zero"},
		{"index-oob", `func Map(k, v *Record, ctx *Ctx) { parts := strings.Split(v.Str("url"), "/")
			ctx.Emit(k, parts[99]) }`, "out of range"},
		{"emit-map", `func Map(k, v *Record, ctx *Ctx) { m := make(map[string]bool)
			ctx.Emit(k, m) }`, "cannot emit"},
		{"infinite-loop", `func Map(k, v *Record, ctx *Ctx) { for { } }`, "iterations"},
	}
	for _, tc := range cases {
		p, err := lang.Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		ex, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &Context{Emit: func(serde.Datum, EmitValue) error { return nil }}
		err = ex.InvokeMap(serde.Int(0), record("a/b", 1, 0, false), ctx)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestBuiltinCoverage asserts the interpreter implements exactly the
// function set the analyzer has purity knowledge of: every entry of
// lang.PureFuncs and lang.ImpureFuncs must evaluate (not report "unknown
// function"), so the analyzer and the runtime can never disagree about what
// exists.
func TestBuiltinCoverage(t *testing.T) {
	samples := map[string]string{
		"strings.Contains":   `strings.Contains("ab", "a")`,
		"strings.HasPrefix":  `strings.HasPrefix("ab", "a")`,
		"strings.HasSuffix":  `strings.HasSuffix("ab", "b")`,
		"strings.ToLower":    `strings.ToLower("AB")`,
		"strings.ToUpper":    `strings.ToUpper("ab")`,
		"strings.TrimSpace":  `strings.TrimSpace(" a ")`,
		"strings.Index":      `strings.Index("ab", "b")`,
		"strings.Split":      `len(strings.Split("a,b", ","))`,
		"strings.Fields":     `len(strings.Fields("a b"))`,
		"strings.Join":       `strings.Join(strings.Fields("a b"), "-")`,
		"strings.Replace":    `strings.Replace("aaa", "a", "b", 2)`,
		"strconv.Atoi":       `strconv.Atoi("12")`,
		"strconv.Itoa":       `strconv.Itoa(12)`,
		"strconv.ParseFloat": `strconv.ParseFloat("1.5")`,
		"math.Abs":           `math.Abs(-1.5)`,
		"math.Max":           `math.Max(1.0, 2.0)`,
		"math.Min":           `math.Min(1.0, 2.0)`,
		"math.Floor":         `math.Floor(1.5)`,
		"math.Sqrt":          `math.Sqrt(4.0)`,
		"len":                `len("abc")`,
		"min":                `min(1, 2)`,
		"max":                `max(1, 2)`,
		"make":               `len(make(map[string]bool))`,
	}
	all := make(map[string]bool)
	for f := range lang.PureFuncs {
		all[f] = true
	}
	for f := range lang.ImpureFuncs {
		all[f] = true
	}
	for f := range all {
		expr, ok := samples[f]
		if !ok {
			t.Errorf("no interpreter sample for whitelisted function %s", f)
			continue
		}
		src := fmt.Sprintf(`func Map(k, v *Record, ctx *Ctx) { ctx.Emit(k, %s) }`, expr)
		p, err := lang.Parse(src)
		if err != nil {
			t.Errorf("%s: parse: %v", f, err)
			continue
		}
		ex, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &Context{Emit: func(serde.Datum, EmitValue) error { return nil }}
		if err := ex.InvokeMap(serde.Int(0), record("", 0, 0, false), ctx); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

func TestAtoiLanguageSpec(t *testing.T) {
	// The language defines strconv.Atoi as single-valued with 0 on failure.
	out := runMap(t, `
func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(strconv.Atoi("17"), strconv.Atoi("not a number"))
}
`, nil, record("", 0, 0, false))
	if out[0].k.Int() != 17 || out[0].v.D.Int() != 0 {
		t.Fatalf("Atoi semantics: %+v", out[0])
	}
}

func TestShortCircuit(t *testing.T) {
	// && must not evaluate its right side when the left is false: the
	// out-of-range index would otherwise fail.
	out := runMap(t, `
func Map(k, v *Record, ctx *Ctx) {
	parts := strings.Split(v.Str("url"), "/")
	if len(parts) > 5 && len(parts[5]) > 0 {
		ctx.Emit(k, 1)
	} else {
		ctx.Emit(k, 2)
	}
}
`, nil, record("a/b", 0, 0, false))
	if out[0].v.D.Int() != 2 {
		t.Fatalf("short-circuit failed: %+v", out)
	}
}
