package interp

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"manimal/internal/lang"
	"manimal/internal/programs"
	"manimal/internal/serde"
)

// The differential test is the paper's "no change to program output"
// invariant applied to the interpreter itself: for every benchmark program
// and every construct the language admits, the compiled-closure executor
// and the reference tree-walker (walker_test.go) must produce identical
// emitted key/value streams, user counters, log lines and error texts on
// the same generated input — through Map (both of the executor's doors:
// InvokeMap per record and InvokeMapBatch over column vectors), Reduce, and
// Combine.

// diffCase is one program under differential test.
type diffCase struct {
	name       string
	source     string
	schemaText string
	conf       map[string]serde.Datum
	// wantErr, when set, must appear in at least one invocation's error
	// (from both engines: the error texts are compared like everything
	// else); when empty no invocation may fail.
	wantErr string
	// masked names fields the batch leaves undecoded (field-pruned); they
	// read as their kind's zero, which is what the records hold for them.
	masked []string
}

// errCase builds a program whose Map emits, then — for about half of the
// generated records — executes one statement the language admits but the
// runtime cannot carry out, then emits again. The emissions on either side
// pin the error to the execution of that statement: a failure at New, or
// at entry to Map, would lose the first emission of every record and the
// second emission of the records that skip the statement.
func errCase(name, decls, bad, wantErr string) diffCase {
	return diffCase{
		name: "error-" + name,
		source: decls + `
func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(v.Str("url"), 1)
	if v.Int("rank") > 1500 {
		` + bad + `
	}
	ctx.Emit(v.Str("url"), 2)
}
`,
		schemaText: "url:string,rank:int64,content:string",
		wantErr:    wantErr,
	}
}

func diffCases() []diffCase {
	webPages := "url:string,rank:int64,content:string"
	userVisits := "sourceIP:string,destURL:string,visitDate:int64,adRevenue:int64," +
		"userAgent:string,countryCode:string,languageCode:string,searchWord:string,duration:int64"
	threshold := map[string]serde.Datum{"threshold": serde.Int(1000)}
	return []diffCase{
		{name: "benchmark1-selection", source: programs.Benchmark1Selection, schemaText: "tuple:string", conf: threshold},
		{name: "benchmark2-aggregation", source: programs.Benchmark2Aggregation, schemaText: userVisits},
		{name: "benchmark3-join-uservisits", source: programs.Benchmark3JoinUserVisits, schemaText: userVisits,
			conf: map[string]serde.Datum{"dateLo": serde.Int(300), "dateHi": serde.Int(1500)}},
		{name: "benchmark3-join-rankings", source: programs.Benchmark3JoinRankings,
			schemaText: "pageURL:string,pageRank:int64,avgDuration:int64"},
		{name: "benchmark4-udf-aggregation", source: programs.Benchmark4UDFAggregation, schemaText: "content:string"},
		{name: "selection-query", source: programs.SelectionQuery, schemaText: webPages, conf: threshold},
		{name: "projection-query", source: programs.ProjectionQuery, schemaText: webPages, conf: threshold},
		{name: "delta-query", source: programs.DeltaQuery, schemaText: userVisits},
		{name: "compression-query", source: programs.CompressionQuery, schemaText: userVisits},
		// Non-constant accessor field names are legal (lang.IsRecordAccessor
		// documents them defeating projection); the compiled fast path must
		// not confuse one dynamic field with another at the same call site.
		{name: "dynamic-fields", source: `
func Map(k, v *Record, ctx *Ctx) {
	for _, f := range strings.Split("url,content,rank", ",") {
		if v.Has(f) {
			if f == "rank" {
				ctx.Emit(v.Int(f), v)
			} else {
				ctx.Emit(v.Str(f), v)
			}
		}
	}
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	for values.Next() {
		for _, f := range strings.Split("url,content", ",") {
			if values.HasField(f) {
				ctx.Emit(key, values.FieldStr(f))
			}
		}
	}
}
`, schemaText: webPages},
		// A synthetic program covering constructs the paper benchmarks do
		// not reach: member variables, ++/--, op-assign, maps with two-value
		// lookup, ranges, min/max, math/strconv builtins, counters, logging.
		{name: "kitchen-sink", source: `
var calls int

func Map(k, v *Record, ctx *Ctx) {
	calls++
	ctx.Counter("records")
	seen := make(map[string]bool)
	best := 0
	for i, w := range strings.Fields(v.Str("content")) {
		dup, found := seen[w]
		if found && dup {
			continue
		}
		seen[w] = true
		score := min(len(w)*3, 40) + max(i, 2)
		score += strconv.Atoi(w)
		if score > best {
			best = score
		}
		if strings.HasPrefix(w, "http://") {
			ctx.Log(strings.ToUpper(w))
			ctx.Emit(w, score)
		}
	}
	rank := v.Int("rank")
	if rank%2 == 0 && len(seen) > 0 {
		ctx.Emit(strconv.Itoa(calls), math.Sqrt(math.Abs(0.0-rank)))
	}
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	sum := 0
	n := 0
	for values.Next() {
		sum += values.Int()
		n++
	}
	if n > 1 {
		ctx.Emit(key, sum)
	} else {
		ctx.Emit(key, 0-sum)
	}
}
`, schemaText: webPages, wantErr: "current value is float64, values.Int wants int64"},

		// Helpers. A pure guard over a *Record parameter that itself calls a
		// helper, a blank parameter, and helpers used from all three stages.
		{name: "helper-guard", source: `
func above(x int64, t int64) bool {
	return x > t
}

func hot(r *Record, _ string, t int64) bool {
	return above(r.Int("rank"), t) && strings.HasPrefix(r.Str("url"), "http")
}

func clamp(x int64) int64 {
	if x > 2500 {
		return 2500
	}
	return x
}

func Map(k, v *Record, ctx *Ctx) {
	if hot(v, "unused", ctx.ConfInt("threshold")) {
		ctx.Emit(v.Str("url"), clamp(v.Int("rank")))
	}
}

func Combine(key Datum, values *Iter, ctx *Ctx) {
	best := 0
	for values.Next() {
		best = max(best, clamp(values.Int()))
	}
	ctx.Emit(key, best)
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	n := 0
	for values.Next() {
		if above(values.Int(), 2000) {
			n++
		}
	}
	ctx.Emit(key, clamp(n))
}
`, schemaText: webPages, conf: threshold},
		// A helper that writes a package-level variable another helper (and
		// Map) reads: member-variable state lives in the executor, not the
		// frame, and survives across helper calls and across invocations.
		{name: "helper-global-write", source: `
var seen int
var last string

func note(url string) int {
	seen++
	last = url
	return seen
}

func previous() string {
	return last
}

func Map(k, v *Record, ctx *Ctx) {
	prev := previous()
	n := note(v.Str("url"))
	ctx.Emit(prev, n)
	if n%7 == 0 {
		ctx.Emit(last, seen)
	}
}
`, schemaText: webPages},
		// Recursion: direct, mutual, declared after use, and a call nested in
		// the argument list of a call to the same function — the inner
		// activation reuses the frame depth the outer one is about to take.
		{name: "helper-recursion", source: `
func Map(k, v *Record, ctx *Ctx) {
	n := v.Int("rank") % 12
	ctx.Emit(fib(n), add3(n, add3(1, n, add3(n, n, n)), 2))
	if even(n) {
		ctx.Emit(v.Str("url"), strings.ToUpper(v.Str("url")))
	}
}

func fib(n int64) int64 {
	if n < 2 {
		return n
	}
	return fib(n-1) + fib(n-2)
}

func add3(a int64, b int64, c int64) int64 {
	return a + b*10 + c*100
}

func even(n int64) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}

func odd(n int64) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}
`, schemaText: webPages},
		// Runaway recursion stops at maxCallDepth instead of the Go stack's end.
		{name: "helper-runaway-recursion", source: `
func down(n int64) int64 {
	if n < 0 {
		return n
	}
	return down(n + 1)
}

func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(k, 0)
	ctx.Emit(k, down(v.Int("rank")-1500))
}
`, schemaText: webPages, wantErr: "call depth exceeded 64 in down"},
		// A helper that falls off its end — by running out of statements, or
		// by a stray break — is an error of the call, not of New.
		{name: "helper-falls-off", source: `
func sign(x int64) int64 {
	if x > 2000 {
		return 1
	}
	if x < 1000 {
		break
	}
}

func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(k, 0)
	ctx.Emit(k, sign(v.Int("rank")))
}
`, schemaText: webPages, wantErr: "helper sign fell off the end without returning"},
		// Stage-function-only receivers do not exist inside a helper.
		{name: "helper-no-ctx", source: `
func leak(ctx *Record) bool {
	return ctx.ConfInt("rank") > 0
}

func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(k, leak(v))
}
`, schemaText: webPages, wantErr: "unknown record accessor"},

		// Constructs the language admits and the runtime cannot carry out:
		// each fails when — and only when — the statement executes.
		// A parameter named after a stdlib package: the validator sees a
		// method on a parameter, the runtime a function that does not exist —
		// reported after its arguments have been evaluated.
		{name: "error-unknown-function", source: `
var evals int

func count(s string) string {
	evals++
	return s
}

func Map(strings, v *Record, ctx *Ctx) {
	ctx.Emit(evals, 1)
	if v.Int("rank") > 1500 {
		ctx.Emit(v.Str("url"), strings.Has(count("url")))
	}
	ctx.Emit(evals, 2)
}
`, schemaText: webPages, wantErr: `unknown function "strings.Has"`},
		errCase("make-non-map", "", `m := make([]int)
		ctx.Emit(k, m)`, "make supports only map types"),
		errCase("zero-value", "", `var a, b []string
		ctx.Emit(a, b)`, "unsupported var type"),
		errCase("range-global", "var g int", `for g = range strings.Fields(v.Str("content")) {
			ctx.Emit(k, g)
		}`, `cannot bind "g" as a local variable`),
		errCase("two-value-call", "", `a, b := strings.Fields(v.Str("content"))
		ctx.Emit(a, b)`, "two-value assignment requires a map index"),
		errCase("incdec-map-element", "", `m := make(map[string]int)
		m["a"]++`, "++/-- target must be a variable"),
		errCase("literal-range", "", `ctx.Emit(k, 99999999999999999999)`, "value out of range"),
		errCase("type-as-value", "", `x := map[string]int
		ctx.Emit(k, x)`, "unsupported expression *ast.MapType"),
		errCase("undefined-variable", "", `ctx.Emit(k, nowhere)`, `undefined variable "nowhere"`),
		errCase("ctx-method-unknown", "", `ctx.Emit(k, ctx.Int("rank"))`, `unknown ctx method "Int"`),
		errCase("ctx-method-arity", "", `ctx.Emit(k)`, "Emit takes (key, value)"),
		errCase("accessor-unknown", "", `ctx.Emit(k, v.Next("rank"))`, `unknown record accessor "Next"`),
		errCase("accessor-arity", "", `ctx.Emit(k, v.Int("rank", "url"))`, "Int takes exactly one field name"),
		errCase("receiver-not-record", "", `ctx.Emit(k, k.Int("rank"))`, `"k" is not a record, ctx, or iterator`),

		// The typed/dynamic boundary. A slot every definition of which agrees
		// on a kind lives unboxed and is computed on by typed closures; these
		// cases sit on the edges of that rule.
		// One name, two kinds: the slot stays dynamic and the program runs.
		{name: "typed-two-kinds", source: `
func Map(k, v *Record, ctx *Ctx) {
	x := v.Int("rank")
	if x > 1500 {
		x = v.Str("url")
	}
	ctx.Emit(x, x)
	y := 1
	y = y + 0.5
	y += 2
	ctx.Emit(v.Str("url"), y*2)
}
`, schemaText: webPages},
		// A typed slot read before it is defined: in a branch not taken, and
		// textually before its only definition inside a loop.
		{name: "typed-read-before-def", source: `
func Map(k, v *Record, ctx *Ctx) {
	first := true
	for _, w := range strings.Fields(v.Str("content")) {
		if !first {
			ctx.Emit(prev, w)
		}
		prev = w
		first = false
	}
	if v.Int("rank") > 1500 {
		n = v.Int("rank") / 2
	}
	ctx.Emit(k, n+1)
}
`, schemaText: webPages, wantErr: `undefined variable "n"`},
		// Accessor and field disagree: the same error from a record and from
		// a column, raised when the site executes.
		errCase("accessor-kind", "", `ctx.Emit(k, v.Int("url")+1)`, `field "url" is string, accessor Int wants int64`),
		errCase("accessor-missing", "", `ctx.Emit(k, v.Str("nowhere"))`, `record has no field "nowhere"`),
		// Masked (field-pruned) columns read as zero values through every
		// accessor, bound or record-backed, and through an escaping record.
		{name: "masked-fields", source: `
func size(r *Record) int64 {
	return len(r.Str("content")) + r.Int("rank")
}

func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(v.Str("content")+v.Str("url"), v.Int("rank")+len(v.Str("content")))
	ctx.Emit(size(v), v.Has("content") && !v.Has("absent"))
	for _, f := range strings.Split("content,rank", ",") {
		if f == "rank" {
			ctx.Emit(f, v.Int(f))
		} else {
			ctx.Emit(f, v.Str(f))
		}
	}
	ctx.Emit(k, v)
}
`, schemaText: webPages, masked: []string{"content", "rank"}},
		errCase("typed-div-zero", "", `z := v.Int("rank") - v.Int("rank")
		ctx.Emit(k, 7/z)`, "predicate: integer division by zero"),
		errCase("typed-mod-zero", "", `z := v.Int("rank") - v.Int("rank")
		q := 7
		q %= z
		ctx.Emit(k, q)`, "predicate: integer modulo by zero"),
		{name: "typed-int-overflow", source: `
func Map(k, v *Record, ctx *Ctx) {
	lo := -9223372036854775807 - 1
	m := v.Int("rank") - v.Int("rank") - 1
	ctx.Emit(lo/m, lo%m)
	ctx.Emit(lo-1, lo*m)
	lo /= m
	ctx.Emit(k, -lo)
}
`, schemaText: webPages},
		// NaN orders as equal to everything under serde.Datum.Compare, so
		// nan <= x and nan >= x hold while nan == nan does not.
		{name: "typed-float-nan", source: `
func Map(k, v *Record, ctx *Ctx) {
	nan := math.Sqrt(0.0 - 1.0)
	x := v.Int("rank") / 7.0
	ctx.Emit(nan+x, nan < x)
	ctx.Emit(nan <= x, nan >= x)
	ctx.Emit(nan == nan, nan != nan)
	ctx.Emit(nan > v.Int("rank"), v.Int("rank") <= nan)
	ctx.Emit(x-0.5 < x, -x*2.0 >= x/3)
	x -= nan
	ctx.Emit(k, x)
}
`, schemaText: webPages},
		{name: "typed-strings", source: `
func Map(k, v *Record, ctx *Ctx) {
	s := v.Str("url")
	t := s + "/" + v.Str("content")
	s += "#"
	ctx.Emit(t, s < t)
	ctx.Emit(s == t, s >= "http")
	ctx.Emit(strings.ToUpper(s)+strconv.Itoa(len(t)), strings.Index(t, "42"))
	ctx.Emit(true == (s != t), false != true)
}
`, schemaText: webPages},
		// Kinds that conflict statically keep the dynamic lowering: the
		// walker-defined error, and only when the expression executes.
		errCase("static-compare", "", `ctx.Emit(k, 1 < "a")`, "ordered comparison of int64 and string"),
		errCase("static-not", "", `ctx.Emit(k, !5)`, "! of int64"),
		errCase("static-neg", "", `ctx.Emit(k, -"a")`, "- of string"),
		errCase("static-arith", "", `ctx.Emit(1 == "a", "a"-"b")`, "unsupported string - string"),
		errCase("static-float-mod", "", `ctx.Emit(k, 1.5%2.0)`, "unsupported float64 % float64"),
		errCase("static-cond", "", `if v.Int("rank") {
			ctx.Emit(k, 3)
		}`, "condition is int64, not bool"),
		errCase("static-builtin-arg", "", `ctx.Emit(k, strings.HasPrefix(1, "a"))`, "expected string, got int64"),
		errCase("static-incdec", "", `s := v.Str("url")
		s++`, "++/-- on string"),
		// A package-level variable is dynamic whatever its declaration says.
		{name: "global-any-kind", source: `
var g int

func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(k, g)
	m := make(map[string]string)
	m["u"] = v.Str("url")
	g = m["u"]
	ctx.Emit(g, g+"!")
	g = m["absent"]
	ctx.Emit(k, g)
	g = v.Int("rank")
	g++
}
`, schemaText: webPages},
		// Range variables are an int and a string; here they feed typed
		// operators and builtins, survive a second string definition, and —
		// n — fall back to dynamic under an int one.
		{name: "typed-range", source: `
func Map(k, v *Record, ctx *Ctx) {
	for i, w := range strings.Fields(v.Str("content")) {
		if strings.HasPrefix(w, "http://") && i > 0 {
			ctx.Emit(w, i*len(w))
		}
	}
	w = "tail"
	ctx.Emit(w, strings.HasSuffix(w, "il"))
	for _, n := range strings.Split(v.Str("url"), "/") {
		ctx.Emit(n, min(len(n), 3, 9))
	}
	n = 7
	ctx.Emit(k, n+1)
	for k = range strings.Fields(v.Str("content")) {
		ctx.Emit(k, max(k, 2))
	}
}
`, schemaText: webPages},
		// Lists are the []string Split and Fields return: ranged over straight
		// from the call and through a variable, indexed, measured and joined.
		{name: "list-ops", source: `
func Map(k, v *Record, ctx *Ctx) {
	parts := strings.Split(v.Str("url"), "/")
	ctx.Emit(strings.Join(parts, "|"), len(parts))
	if len(parts) > 2 {
		ctx.Emit(parts[len(parts)-1], parts[0]+parts[2])
	}
	words := strings.Fields(v.Str("content"))
	for i, w := range words {
		if i+1 < len(words) && len(w) > len(words[i+1]) {
			ctx.Emit(w, words[i+1])
		}
	}
	for _, u := range strings.Fields(v.Str("content")) {
		if strings.HasPrefix(u, "http://") {
			ctx.Emit(strings.Join(strings.Split(u, "/"), " "), len(strings.Split(u, ".")))
		}
	}
	ctx.Emit(k, strings.Join(strings.Fields(""), ","))
}
`, schemaText: webPages},
		// The record parameter escapes — to a helper and into Emit — while
		// other reads of it stay bound to columns; and a Map that rebinds the
		// parameter loses the binding altogether.
		{name: "record-escapes", source: `
func rank(r *Record) int64 {
	return r.Int("rank")
}

func Map(k, v *Record, ctx *Ctx) {
	if rank(v) > 1000 && v.Int("rank") == rank(v) {
		ctx.Emit(v.Str("url"), v)
	}
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	for values.Next() {
		ctx.Emit(values.FieldInt("rank"), values.FieldStr("url")+key)
	}
}
`, schemaText: webPages},
		{name: "record-rebound", source: `
func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(v.Str("url"), v.Int("rank"))
	if v.Int("rank") > 1500 {
		v = v.Int("rank")
		ctx.Emit(k, v)
		ctx.Emit(k, v.Int("rank"))
	}
}
`, schemaText: webPages, wantErr: `"v" is not a record, ctx, or iterator`},
	}
}

// genRecords builds count deterministic records for the schema, with field
// contents slanted so that the benchmark programs take all their branches
// (pipe-separated tuples, URL-bearing content, colliding keys). Fields named
// in masked hold their kind's zero value.
func genRecords(tb testing.TB, schemaText string, count int, masked ...string) []*serde.Record {
	tb.Helper()
	schema, err := serde.ParseSchema(schemaText)
	if err != nil {
		tb.Fatalf("schema: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	vocab := []string{"alpha", "beta", "http://a.example/x", "http://b.example/y", "42", "gamma"}
	recs := make([]*serde.Record, count)
	for i := range recs {
		rec := serde.NewRecord(schema)
		for f := 0; f < schema.NumFields(); f++ {
			field := schema.Field(f)
			var d serde.Datum
			switch {
			case field.Name == "tuple":
				d = serde.String(fmt.Sprintf("url%d|%d|junk", rng.Intn(5), rng.Intn(3000)))
			case field.Name == "content":
				words := ""
				for w := 0; w < 6; w++ {
					if w > 0 {
						words += " "
					}
					words += vocab[rng.Intn(len(vocab))]
				}
				d = serde.String(words)
			case field.Kind == serde.KindString:
				d = serde.String(vocab[rng.Intn(3)])
			case field.Kind == serde.KindInt64:
				d = serde.Int(int64(rng.Intn(3000)))
			case field.Kind == serde.KindFloat64:
				d = serde.Float(rng.Float64() * 100)
			case field.Kind == serde.KindBool:
				d = serde.Bool(rng.Intn(2) == 0)
			default:
				tb.Fatalf("unsupported field kind %v", field.Kind)
			}
			if slices.Contains(masked, field.Name) {
				d = serde.ZeroOf(field.Kind)
			}
			rec.MustSet(field.Name, d)
		}
		recs[i] = rec
	}
	return recs
}

// capture is one executor run's observable output.
type capture struct {
	emits    []emitted
	logs     []string
	counters map[string]int64
	errs     []string
}

// context returns a Context recording into c. Emitted records are cloned,
// as the Emit contract demands of anything that retains them: the batch
// door emits one reused record.
func (c *capture) context(conf map[string]serde.Datum) *Context {
	c.counters = make(map[string]int64)
	return &Context{
		Conf: conf,
		Emit: func(k serde.Datum, v EmitValue) error {
			if v.IsRecord() {
				v.Rec = v.Rec.Clone()
			}
			c.emits = append(c.emits, emitted{k.CloneData(), EmitValue{D: v.D.CloneData(), Rec: v.Rec}})
			return nil
		},
		Log:     func(m string) { c.logs = append(c.logs, m) },
		Counter: func(n string, d int64) { c.counters[n] += d },
	}
}

func (c *capture) note(err error) {
	if err != nil {
		c.errs = append(c.errs, err.Error())
	}
}

// emitKey is a datum's identity for comparison and grouping. A program can
// emit the invalid datum (its ctx or iterator parameter, read as a value).
func emitKey(d serde.Datum) string {
	if !d.IsValid() {
		return "<invalid>"
	}
	return string(d.AppendTagged(nil))
}

func compareCaptures(t *testing.T, phase string, a, b capture) {
	t.Helper()
	if len(a.errs) != len(b.errs) {
		t.Fatalf("%s: error count differs: compiled %v vs walker %v", phase, a.errs, b.errs)
	}
	for i := range a.errs {
		if a.errs[i] != b.errs[i] {
			t.Fatalf("%s: error %d differs:\ncompiled: %s\nwalker:   %s", phase, i, a.errs[i], b.errs[i])
		}
	}
	if len(a.emits) != len(b.emits) {
		t.Fatalf("%s: emission count differs: compiled %d vs walker %d", phase, len(a.emits), len(b.emits))
	}
	for i := range a.emits {
		ka, kb := emitKey(a.emits[i].k), emitKey(b.emits[i].k)
		if ka != kb {
			t.Fatalf("%s: emission %d key differs: compiled %v vs walker %v", phase, i, a.emits[i].k, b.emits[i].k)
		}
		va, vb := a.emits[i].v, b.emits[i].v
		if va.IsRecord() != vb.IsRecord() {
			t.Fatalf("%s: emission %d value shape differs", phase, i)
		}
		if va.IsRecord() {
			if !va.Rec.Equal(vb.Rec) {
				t.Fatalf("%s: emission %d record differs: compiled %v vs walker %v", phase, i, va.Rec, vb.Rec)
			}
		} else if emitKey(va.D) != emitKey(vb.D) {
			t.Fatalf("%s: emission %d value differs: compiled %v vs walker %v", phase, i, va.D, vb.D)
		}
	}
	if len(a.logs) != len(b.logs) {
		t.Fatalf("%s: log count differs: compiled %d vs walker %d", phase, len(a.logs), len(b.logs))
	}
	for i := range a.logs {
		if a.logs[i] != b.logs[i] {
			t.Fatalf("%s: log %d differs: %q vs %q", phase, i, a.logs[i], b.logs[i])
		}
	}
	if len(a.counters) != len(b.counters) {
		t.Fatalf("%s: counters differ: compiled %v vs walker %v", phase, a.counters, b.counters)
	}
	for n, va := range a.counters {
		if vb, ok := b.counters[n]; !ok || va != vb {
			t.Fatalf("%s: counter %q differs: compiled %d vs walker %d", phase, n, va, b.counters[n])
		}
	}
}

// fillBatch packs records into a Batch the way the batch scanner does:
// every field decode admits (nil: all) decoded into its column vector, base
// as the whole-file index of row 0, every row selected.
func fillBatch(b *serde.Batch, schema *serde.Schema, recs []*serde.Record, base int64, decode func(field int) bool) {
	n := len(recs)
	b.Reset(schema, n, base)
	for f := 0; f < schema.NumFields(); f++ {
		if decode != nil && !decode(f) {
			continue
		}
		col := b.Col(f)
		switch schema.Field(f).Kind {
		case serde.KindString:
			dst := col.ResizeStrs(n)
			for i, r := range recs {
				dst[i] = r.At(f).Str()
			}
		case serde.KindInt64:
			dst := col.ResizeInts(n)
			for i, r := range recs {
				dst[i] = r.At(f).Int()
			}
		case serde.KindFloat64:
			dst := col.ResizeFloats(n)
			for i, r := range recs {
				dst[i] = r.At(f).Float()
			}
		case serde.KindBool:
			dst := col.ResizeBools(n)
			for i, r := range recs {
				dst[i] = r.At(f).Flag()
			}
		}
		b.SetDecoded(f)
	}
	b.SelectAll()
}

// diffLimits lets the fuzzer bound what an arbitrary program may run.
type diffLimits struct{ maxLoop, maxDepth int }

// runDifferential runs prog through the compiled executor and the
// tree-walker over identical input and fails t on any observable
// difference: Map over recs — compiled twice, by InvokeMap per record and
// by InvokeMapBatch over the same rows as columns (masked fields left
// undecoded), one row per call so that a failing row costs both engines
// that row only — then Reduce and Combine over the walker's (verified
// identical) map output, grouped by key in first-seen order. It returns
// every error text the compiled executor raised.
func runDifferential(t *testing.T, prog *lang.Program, recs []*serde.Record, conf map[string]serde.Datum, masked []string, lim *diffLimits) []string {
	t.Helper()
	newEx := func() *Executor {
		ex, err := New(prog)
		if err != nil {
			t.Fatalf("lang.Parse accepted a program interp.New rejects: %v\n%s", err, prog.Source)
		}
		// Every function — stage functions and helpers — is compiled.
		for name := range prog.Funcs {
			if !ex.Compiled(name) {
				t.Fatalf("function %s was not compiled\n%s", name, prog.Source)
			}
		}
		if lim != nil {
			ex.maxLoop, ex.maxDepth = lim.maxLoop, lim.maxDepth
		}
		return ex
	}
	rowEx, batchEx, walkEx := newEx(), newEx(), &treeWalker{ex: newEx()}

	var mapC, mapB, mapW capture
	ctxC, ctxB, ctxW := mapC.context(conf), mapB.context(conf), mapW.context(conf)
	const batchRows = 64
	var b serde.Batch
	for i, r := range recs {
		mapC.note(rowEx.InvokeMap(serde.Int(int64(i)), r, ctxC))
		mapW.note(walkEx.InvokeMap(serde.Int(int64(i)), r, ctxW))
		if i%batchRows == 0 {
			schema := r.Schema()
			fillBatch(&b, schema, recs[i:min(i+batchRows, len(recs))], int64(i), func(f int) bool {
				return !slices.Contains(masked, schema.Field(f).Name)
			})
		}
		b.SetSel([]int32{int32(i % batchRows)})
		mapB.note(batchEx.InvokeMapBatch(&b, ctxB))
	}
	compareCaptures(t, "map", mapC, mapW)
	compareCaptures(t, "map-batch", mapB, mapW)
	allErrs := mapC.errs

	for _, fn := range []string{lang.ReduceFuncName, lang.CombineFuncName} {
		if prog.Funcs[fn] == nil {
			continue
		}
		groups, order := groupByKey(mapW.emits)
		var redC, redW capture
		rctxC, rctxW := redC.context(conf), redW.context(conf)
		for _, key := range order {
			invoke := func(ex stageInvoker, ctx *Context, cap *capture) {
				it := &sliceIter{vals: groups[key].vals}
				if fn == lang.ReduceFuncName {
					cap.note(ex.InvokeReduce(groups[key].key, it, ctx))
				} else {
					cap.note(ex.InvokeCombine(groups[key].key, it, ctx))
				}
			}
			invoke(rowEx, rctxC, &redC)
			invoke(walkEx, rctxW, &redW)
		}
		compareCaptures(t, fn, redC, redW)
		allErrs = append(allErrs, redC.errs...)
	}
	return allErrs
}

func TestCompiledMatchesTreeWalker(t *testing.T) {
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := lang.Parse(tc.source)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			recs := genRecords(t, tc.schemaText, 200, tc.masked...)
			allErrs := runDifferential(t, prog, recs, tc.conf, tc.masked, nil)
			if tc.wantErr == "" && len(allErrs) > 0 {
				t.Fatalf("unexpected error: %s", allErrs[0])
			}
			if tc.wantErr != "" && !slices.ContainsFunc(allErrs, func(e string) bool { return strings.Contains(e, tc.wantErr) }) {
				t.Fatalf("no invocation failed with %q; errors: %v", tc.wantErr, allErrs)
			}
		})
	}
}

// stageInvoker is what the Executor and the tree-walker have in common.
type stageInvoker interface {
	InvokeMap(k serde.Datum, v *serde.Record, ctx *Context) error
	InvokeReduce(key serde.Datum, values ValueIter, ctx *Context) error
	InvokeCombine(key serde.Datum, values ValueIter, ctx *Context) error
}

type keyGroup struct {
	key  serde.Datum
	vals []EmitValue
}

func groupByKey(emits []emitted) (map[string]*keyGroup, []string) {
	groups := make(map[string]*keyGroup)
	var order []string
	for _, e := range emits {
		k := emitKey(e.k)
		g, ok := groups[k]
		if !ok {
			g = &keyGroup{key: e.k}
			groups[k] = g
			order = append(order, k)
		}
		g.vals = append(g.vals, e.v)
	}
	return groups, order
}
