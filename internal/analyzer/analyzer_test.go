package analyzer

import (
	"math/rand"
	"strings"
	"testing"

	"manimal/internal/interp"
	"manimal/internal/lang"
	"manimal/internal/predicate"
	"manimal/internal/serde"
)

// --- selection ---

func TestSelectNestedConditions(t *testing.T) {
	d := mustAnalyze(t, `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("rank") > 10 {
		if v.Str("url") == "x" {
			ctx.Emit(k, 1)
		} else {
			ctx.Emit(k, 2)
		}
	}
}
`, webPageSchema)
	if d.Select == nil {
		t.Fatalf("nested selection not detected: %v", d.Notes)
	}
	canon := d.Select.Formula.Canon()
	// Two paths: rank>10 && url==x, rank>10 && !(url==x).
	if !strings.Contains(canon, "OR") {
		t.Errorf("expected two disjuncts, got %s", canon)
	}
	if len(d.Select.IndexKeys) != 1 || d.Select.IndexKeys[0] != `v.Int("rank")` {
		t.Errorf("index keys = %v (rank bounds every disjunct; url only one polarity)", d.Select.IndexKeys)
	}
}

func TestSelectDisjunction(t *testing.T) {
	d := mustAnalyze(t, `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("rank") > 9000 || v.Int("rank") < 10 {
		ctx.Emit(k, v.Int("rank"))
	}
}
`, webPageSchema)
	if d.Select == nil {
		t.Fatalf("disjunctive selection not detected: %v", d.Notes)
	}
	ivs, ok, err := d.Select.Formula.RangesFor(`v.Int("rank")`, nil)
	if err != nil || !ok || len(ivs) != 2 {
		t.Fatalf("ranges = %v ok=%v err=%v", ivs, ok, err)
	}
}

func TestSelectThroughLocals(t *testing.T) {
	d := mustAnalyze(t, `
func Map(k, v *Record, ctx *Ctx) {
	r := v.Int("rank")
	threshold := ctx.ConfInt("t") * 2
	if r > threshold {
		ctx.Emit(k, r)
	}
}
`, webPageSchema)
	if d.Select == nil {
		t.Fatalf("local-resolved selection not detected: %v", d.Notes)
	}
	want := `((v.Int("rank") > (ctx.ConfInt("t") * 2)))`
	if got := d.Select.Formula.Canon(); got != want {
		t.Errorf("formula = %s, want %s", got, want)
	}
	ivs, ok, err := d.Select.Formula.RangesFor(`v.Int("rank")`, predicate.Config{"t": serde.Int(50)})
	if err != nil || !ok || len(ivs) != 1 || ivs[0].String() != "(100, +inf)" {
		t.Fatalf("ranges = %v ok=%v err=%v", ivs, ok, err)
	}
}

func TestSelectRejectsEmitInLoop(t *testing.T) {
	d := mustAnalyze(t, `
func Map(k, v *Record, ctx *Ctx) {
	for _, w := range strings.Fields(v.Str("content")) {
		if len(w) > 3 {
			ctx.Emit(w, 1)
		}
	}
}
`, webPageSchema)
	if d.Select != nil {
		t.Fatalf("loop emit must not yield a selection, got %s", d.Select.Formula.Canon())
	}
}

func TestSelectRejectsGlobalInEmitArgs(t *testing.T) {
	// Figure 2 variant: the condition is clean, but the emitted VALUE
	// depends on a member variable — skipping invocations would change it.
	d := mustAnalyze(t, `
var count int

func Map(k, v *Record, ctx *Ctx) {
	count++
	if v.Int("rank") > 1 {
		ctx.Emit(k, count)
	}
}
`, webPageSchema)
	if d.Select != nil {
		t.Fatal("selection accepted despite member-variable emit value")
	}
}

func TestSelectRejectsMultiDefConditionVar(t *testing.T) {
	d := mustAnalyze(t, `
func Map(k, v *Record, ctx *Ctx) {
	t := 10
	if v.Int("rank") > 100 {
		t = 20
	}
	if v.Int("rank") > t {
		ctx.Emit(k, 1)
	}
}
`, webPageSchema)
	// Both defs of t are functional, but the formula cannot be resolved to
	// inputs through a unique definition; the analyzer must give it up
	// rather than guess.
	if d.Select != nil {
		t.Fatalf("ambiguous local resolved incorrectly: %s", d.Select.Formula.Canon())
	}
}

func TestSelectNotPresentWhenUnconditional(t *testing.T) {
	d := mustAnalyze(t, `
func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(v.Str("url"), v.Int("rank"))
}
`, webPageSchema)
	if d.Select != nil {
		t.Fatal("unconditional emit produced a selection")
	}
}

func TestSelectGuardReturn(t *testing.T) {
	d := mustAnalyze(t, `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("rank") <= ctx.ConfInt("t") {
		return
	}
	ctx.Emit(k, v.Int("rank"))
}
`, webPageSchema)
	if d.Select == nil {
		t.Fatalf("guard-return selection not detected: %v", d.Notes)
	}
	// The emit path takes the FALSE edge of rank <= t, i.e. rank > t.
	ivs, ok, err := d.Select.Formula.RangesFor(`v.Int("rank")`, predicate.Config{"t": serde.Int(7)})
	if err != nil || !ok || len(ivs) != 1 || ivs[0].String() != "(7, +inf)" {
		t.Fatalf("ranges = %v ok=%v err=%v", ivs, ok, err)
	}
}

func TestSelectStringPredicateNotIndexable(t *testing.T) {
	d := mustAnalyze(t, `
func Map(k, v *Record, ctx *Ctx) {
	if strings.Contains(v.Str("url"), "example") {
		ctx.Emit(k, 1)
	}
}
`, webPageSchema)
	if d.Select == nil {
		t.Fatalf("pure boolean-call selection not detected: %v", d.Notes)
	}
	if len(d.Select.IndexKeys) != 0 {
		t.Errorf("a Contains predicate has no range; keys = %v", d.Select.IndexKeys)
	}
}

func TestSelectConfDependentKeyExcluded(t *testing.T) {
	d := mustAnalyze(t, `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("rank")+ctx.ConfInt("bias") > 100 {
		ctx.Emit(k, 1)
	}
}
`, webPageSchema)
	if d.Select == nil {
		t.Fatalf("selection not detected: %v", d.Notes)
	}
	// The only candidate key embeds job config, so no reusable index exists.
	if len(d.Select.IndexKeys) != 0 {
		t.Errorf("config-dependent key accepted: %v", d.Select.IndexKeys)
	}
}

// --- projection ---

func TestProjectIgnoresLogOnlyUses(t *testing.T) {
	// content is used only for a debug log: "other reasons to use inputs —
	// log messages, debugging text — we optimize away" (paper Appendix C).
	d := mustAnalyze(t, `
func Map(k, v *Record, ctx *Ctx) {
	ctx.Log(v.Str("content"))
	if v.Int("rank") > 1 {
		ctx.Emit(v.Str("url"), v.Int("rank"))
	}
}
`, webPageSchema)
	if d.Project == nil {
		t.Fatalf("projection not detected: %v", d.Notes)
	}
	for _, f := range d.Project.UsedFields {
		if f == "content" {
			t.Error("log-only field counted as used")
		}
	}
	if len(d.Project.DroppedFields) != 1 || d.Project.DroppedFields[0] != "content" {
		t.Errorf("dropped = %v", d.Project.DroppedFields)
	}
}

func TestProjectDynamicFieldNameRejected(t *testing.T) {
	d := mustAnalyze(t, `
func Map(k, v *Record, ctx *Ctx) {
	name := strings.TrimSpace(v.Str("url"))
	ctx.Emit(k, v.Str(name))
}
`, webPageSchema)
	if d.Project != nil {
		t.Fatal("dynamic field access must defeat projection")
	}
}

func TestProjectWholeRecordEmitRejected(t *testing.T) {
	d := mustAnalyze(t, `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("rank") > 1 {
		ctx.Emit(k, v)
	}
}
`, webPageSchema)
	if d.Project != nil {
		t.Fatal("whole-record emit must defeat projection")
	}
	// But selection still applies (paper Benchmark 3's exact shape).
	if d.Select == nil {
		t.Fatalf("selection lost: %v", d.Notes)
	}
}

// --- direct operation ---

func TestDirectOpSameFieldEquality(t *testing.T) {
	schema := serde.MustSchema(
		serde.Field{Name: "a", Kind: serde.KindString},
		serde.Field{Name: "b", Kind: serde.KindString},
	)
	d := mustAnalyze(t, `
func Map(k, v *Record, ctx *Ctx) {
	if v.Str("a") == v.Str("a") {
		ctx.Emit(v.Str("b"), 1)
	}
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	n := 0
	for values.Next() {
		n = n + values.Int()
	}
	ctx.Emit(0, n)
}
`, schema)
	if d.DirectOp == nil {
		t.Fatalf("direct-op not detected: %v", d.Notes)
	}
	if len(d.DirectOp.Fields) != 2 {
		t.Errorf("fields = %v, want both a (same-field equality) and b (emit key)", d.DirectOp.Fields)
	}
}

func TestDirectOpRejectsLiteralComparison(t *testing.T) {
	d := mustAnalyze(t, `
func Map(k, v *Record, ctx *Ctx) {
	if v.Str("url") == "http://x" {
		ctx.Emit(v.Int("rank"), 1)
	}
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	n := 0
	for values.Next() {
		n = n + values.Int()
	}
	ctx.Emit(0, n)
}
`, webPageSchema)
	if d.DirectOp != nil {
		t.Fatalf("literal comparison needs dictionary translation; fields = %v", d.DirectOp.Fields)
	}
}

func TestDirectOpRejectsOrderedUse(t *testing.T) {
	d := mustAnalyze(t, `
func Map(k, v *Record, ctx *Ctx) {
	if v.Str("url") < v.Str("url") {
		ctx.Emit(v.Str("url"), 1)
	}
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	for values.Next() {
		ctx.Emit(0, values.Int())
	}
}
`, webPageSchema)
	if d.DirectOp != nil {
		t.Fatal("ordered comparison accepted for direct-op")
	}
}

// --- side effects ---

func TestSideEffectsDetected(t *testing.T) {
	d := mustAnalyze(t, `
func Map(k, v *Record, ctx *Ctx) {
	ctx.Log("saw a record")
	ctx.Counter("records")
	if v.Int("rank") > 1 {
		ctx.Emit(k, 1)
	}
}
`, webPageSchema)
	if len(d.SideEffects) != 2 {
		t.Fatalf("side effects = %v", d.SideEffects)
	}
	// Side effects do not block the optimization itself (paper Section
	// 2.2: they are fair game).
	if d.Select == nil {
		t.Fatalf("selection blocked by side effects: %v", d.Notes)
	}
}

// --- the load-bearing safety property ---

// TestFormulaMatchesExecution: for every program with a detected selection,
// the DNF must be true exactly when the interpreted map() emits. This is
// the "safe: observes the semantics of the original program" guarantee the
// whole system rests on.
func TestFormulaMatchesExecution(t *testing.T) {
	progs := []string{
		sec2Program,
		`func Map(k, v *Record, ctx *Ctx) {
			if v.Int("rank") > ctx.ConfInt("t") && v.Int("rank") < 90 {
				ctx.Emit(k, 1)
			}
		}`,
		`func Map(k, v *Record, ctx *Ctx) {
			if v.Int("rank") < 10 || v.Int("rank") > 90 {
				ctx.Emit(k, v.Int("rank"))
			}
		}`,
		`func Map(k, v *Record, ctx *Ctx) {
			if v.Int("rank") <= ctx.ConfInt("t") {
				return
			}
			ctx.Emit(k, v.Int("rank"))
		}`,
		`func Map(k, v *Record, ctx *Ctx) {
			r := v.Int("rank") * 2
			if r > 50 {
				if v.Str("url") == "a" {
					ctx.Emit(k, 1)
				} else {
					ctx.Emit(k, 2)
				}
			}
		}`,
	}
	conf := map[string]serde.Datum{"t": serde.Int(42)}
	rnd := rand.New(rand.NewSource(99))
	urls := []string{"a", "b"}
	for pi, src := range progs {
		p, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("prog %d: %v", pi, err)
		}
		d, err := Analyze(p, webPageSchema)
		if err != nil {
			t.Fatalf("prog %d: %v", pi, err)
		}
		if d.Select == nil {
			t.Fatalf("prog %d: no selection: %v", pi, d.Notes)
		}
		ex, err := interp.New(p)
		if err != nil {
			t.Fatal(err)
		}
		// The formula, run as a Map of its own: it emits exactly where the
		// formula holds.
		formula := d.Select.Formula.Canon()
		cond := strings.NewReplacer(" AND ", " && ", " OR ", " || ").Replace(formula)
		fp, err := lang.Parse("func Map(k, v *Record, ctx *Ctx) {\n\tif " + cond + " {\n\t\tctx.Emit(k, 1)\n\t}\n}\n")
		if err != nil {
			t.Fatalf("prog %d: formula %s as a program: %v", pi, formula, err)
		}
		fex, err := interp.New(fp)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			rec := serde.NewRecord(webPageSchema)
			rec.MustSet("url", serde.String(urls[rnd.Intn(2)]))
			rec.MustSet("rank", serde.Int(int64(rnd.Intn(120))))
			rec.MustSet("content", serde.String("x"))
			emitted := false
			ctx := &interp.Context{
				Conf: conf,
				Emit: func(serde.Datum, interp.EmitValue) error {
					emitted = true
					return nil
				},
			}
			if err := ex.InvokeMap(serde.Int(int64(i)), rec, ctx); err != nil {
				t.Fatalf("prog %d: invoke: %v", pi, err)
			}
			want := emitted
			emitted = false
			if err := fex.InvokeMap(serde.Int(int64(i)), rec, ctx); err != nil {
				t.Fatalf("prog %d: formula: %v", pi, err)
			}
			want, emitted = emitted, want
			if want != emitted {
				t.Fatalf("prog %d, record %s: formula says %v, map emitted %v\nformula: %s",
					pi, rec, want, emitted, d.Select.Formula.Canon())
			}
		}
	}
}
