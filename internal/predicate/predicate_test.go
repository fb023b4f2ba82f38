package predicate

import (
	"go/parser"
	"go/token"
	"math/rand"
	"testing"

	"manimal/internal/serde"
)

func parseExpr(t *testing.T, src string) Expr {
	t.Helper()
	ast, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	e, err := FromAST(ast, "v", "ctx")
	if err != nil {
		t.Fatalf("convert %q: %v", src, err)
	}
	return e
}

func TestCanonForms(t *testing.T) {
	cases := map[string]string{
		`v.Int("rank") > 1`:                               `(v.Int("rank") > 1)`,
		`v.Int("rank") > ctx.ConfInt("t")`:                `(v.Int("rank") > ctx.ConfInt("t"))`,
		`strconv.Atoi(strings.Split(v.Str("t"), "|")[1])`: `strconv.Atoi(strings.Split(v.Str("t"), "|")[1])`,
		`-5`:                        `-5`,
		`v.Int("a") + 2*v.Int("b")`: `(v.Int("a") + (2 * v.Int("b")))`,
	}
	for src, want := range cases {
		if got := parseExpr(t, src).Canon(); got != want {
			t.Errorf("Canon(%q) = %q, want %q", src, got, want)
		}
	}
}

func TestFromASTRejects(t *testing.T) {
	for _, src := range []string{
		`freeVariable > 1`,
		`v.Int(name)`, // non-constant field name
		`unknownFunc(1)`,
	} {
		ast, err := parser.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := FromAST(ast, "v", "ctx"); err == nil {
			t.Errorf("FromAST(%q) accepted", src)
		}
	}
}

// rankRow is one record of the property tests' rank/score/url schema.
type rankRow struct {
	rank  int64
	score float64
	url   string
}

// atomHolds evaluates one field-versus-bindable comparison atom on r
// through the vector filter: the atom's zone interval (Zones), tested on a
// one-row column by the kernel of the field's kind. A != atom holds where
// its == interval does not.
func atomHolds(t *testing.T, a Atom, r rankRow, conf Config) bool {
	t.Helper()
	ex, ok := a.Expr.(Binary)
	if !ok {
		t.Fatalf("atom %s is not a comparison", a.Canon())
	}
	negated := a.Negated
	if ex.Op == token.NEQ {
		ex.Op, negated = token.EQL, !negated
	}
	f, ok, err := DNF{{Atom{Expr: ex}}}.Zones(conf)
	if err != nil || !ok || len(f) != 1 || len(f[0]) != 1 {
		t.Fatalf("atom %s has no one-field interval: %v %v %v", a.Canon(), f, ok, err)
	}
	b, mask := f[0][0], []bool{true}
	switch b.Field {
	case "rank":
		b.Iv.FilterInt64([]int64{r.rank}, mask)
	case "score":
		b.Iv.FilterFloat64([]float64{r.score}, mask)
	case "url":
		b.Iv.FilterString([]string{r.url}, mask)
	default:
		t.Fatalf("atom %s bounds unknown field %s", a.Canon(), b.Field)
	}
	return mask[0] != negated
}

// dnfHolds evaluates a formula of comparison atoms on r through the
// vector filter (atomHolds).
func dnfHolds(t *testing.T, d DNF, r rankRow, conf Config) bool {
	t.Helper()
	for _, c := range d {
		all := true
		for _, a := range c {
			if !atomHolds(t, a, r, conf) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// ToDNF must preserve semantics: for random records, the DNF — evaluated
// through the vector filter — holds exactly where the original expression,
// written out in Go, does, including under negation and De Morgan
// rewrites.
func TestToDNFSemanticsProperty(t *testing.T) {
	exprs := []struct {
		src  string
		want func(r rankRow) bool
	}{
		{`v.Int("rank") > 5`, func(r rankRow) bool { return r.rank > 5 }},
		{`v.Int("rank") > 5 && v.Float("score") < 0.5`, func(r rankRow) bool { return r.rank > 5 && r.score < 0.5 }},
		{`v.Int("rank") > 5 || v.Float("score") < 0.5`, func(r rankRow) bool { return r.rank > 5 || r.score < 0.5 }},
		{`!(v.Int("rank") > 5)`, func(r rankRow) bool { return !(r.rank > 5) }},
		{`!(v.Int("rank") > 5 && v.Str("url") == "a")`, func(r rankRow) bool { return !(r.rank > 5 && r.url == "a") }},
		{`!(v.Int("rank") < 2 || !(v.Float("score") >= 0.25))`, func(r rankRow) bool { return !(r.rank < 2 || !(r.score >= 0.25)) }},
		{`v.Int("rank") == 3 || (v.Int("rank") > 7 && v.Int("rank") <= 9)`, func(r rankRow) bool { return r.rank == 3 || (r.rank > 7 && r.rank <= 9) }},
		{`v.Int("rank") != 4 && (v.Str("url") == "a" || v.Float("score") > 0.75)`, func(r rankRow) bool { return r.rank != 4 && (r.url == "a" || r.score > 0.75) }},
	}
	rnd := rand.New(rand.NewSource(42))
	conf := Config{}
	urls := []string{"a", "b"}
	for _, tc := range exprs {
		e := parseExpr(t, tc.src)
		dnf := ToDNF(e, false)
		neg := ToDNF(e, true)
		for i := 0; i < 500; i++ {
			r := rankRow{rank: int64(rnd.Intn(12)), score: float64(rnd.Intn(4)) / 4, url: urls[rnd.Intn(2)]}
			want := tc.want(r)
			if got := dnfHolds(t, dnf, r, conf); got != want {
				t.Fatalf("%q on %+v: dnf %v, expr %v", tc.src, r, got, want)
			}
			if got := dnfHolds(t, neg, r, conf); got != !want {
				t.Fatalf("%q negated on %+v: %v", tc.src, r, got)
			}
		}
	}
}

func TestIndexableKeys(t *testing.T) {
	cases := []struct {
		src  string
		want []string
	}{
		{`v.Int("rank") > 5`, []string{`v.Int("rank")`}},
		{`5 < v.Int("rank")`, []string{`v.Int("rank")`}},
		{`v.Int("rank") > 5 || v.Int("rank") < 2`, []string{`v.Int("rank")`}},
		{`v.Int("rank") > 5 || v.Float("score") < 0.5`, nil}, // neither bounds every disjunct
		{`v.Int("rank") > 5 && v.Float("score") < 0.5`, []string{`v.Float("score")`, `v.Int("rank")`}},
		{`v.Int("rank") != 5`, nil},             // inequality is not a range
		{`v.Int("rank") > v.Int("other")`, nil}, // both sides data-dependent
		{`v.Int("rank") == ctx.ConfInt("x")`, []string{`v.Int("rank")`}},
	}
	for _, tc := range cases {
		dnf := ToDNF(parseExpr(t, tc.src), false)
		got := dnf.IndexableKeys()
		if len(got) != len(tc.want) {
			t.Errorf("IndexableKeys(%q) = %v, want %v", tc.src, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("IndexableKeys(%q) = %v, want %v", tc.src, got, tc.want)
			}
		}
	}
}

func TestRangesFor(t *testing.T) {
	conf := Config{"t": serde.Int(100)}
	dnf := ToDNF(parseExpr(t, `(v.Int("rank") > ctx.ConfInt("t") && v.Int("rank") <= 200) || v.Int("rank") == 7`), false)
	ivs, ok, err := dnf.RangesFor(`v.Int("rank")`, conf)
	if err != nil || !ok {
		t.Fatalf("RangesFor: ok=%v err=%v", ok, err)
	}
	if len(ivs) != 2 {
		t.Fatalf("got %d intervals: %v", len(ivs), ivs)
	}
	if ivs[0].String() != "[7, 7]" {
		t.Errorf("first interval = %s", ivs[0])
	}
	if ivs[1].String() != "(100, 200]" {
		t.Errorf("second interval = %s", ivs[1])
	}

	// A disjunct without a bound on the key makes the index unusable.
	dnf2 := ToDNF(parseExpr(t, `v.Int("rank") > 5 || v.Str("url") == "a"`), false)
	if _, ok, _ := dnf2.RangesFor(`v.Int("rank")`, conf); ok {
		t.Error("unbounded disjunct reported as indexable")
	}

	// Missing config parameter must error, not panic.
	dnf3 := ToDNF(parseExpr(t, `v.Int("rank") > ctx.ConfInt("missing")`), false)
	if _, _, err := dnf3.RangesFor(`v.Int("rank")`, Config{}); err == nil {
		t.Error("missing config parameter accepted")
	}
}

// Ranges are a safe cover: every record satisfying the formula must fall
// inside one of the merged intervals.
func TestRangeCoverProperty(t *testing.T) {
	conf := Config{"t": serde.Int(50)}
	exprs := []string{
		`v.Int("rank") > ctx.ConfInt("t")`,
		`v.Int("rank") > 10 && v.Int("rank") < 90 && v.Str("url") == "a"`,
		`v.Int("rank") < 20 || (v.Int("rank") >= 40 && v.Int("rank") < 60)`,
		`v.Int("rank") == 33 || v.Int("rank") == 66`,
		`v.Int("rank") >= 10 && v.Int("rank") <= 10`,
	}
	rnd := rand.New(rand.NewSource(7))
	for _, src := range exprs {
		dnf := ToDNF(parseExpr(t, src), false)
		ivs, ok, err := dnf.RangesFor(`v.Int("rank")`, conf)
		if err != nil || !ok {
			t.Fatalf("%q: ok=%v err=%v", src, ok, err)
		}
		for i := 0; i < 2000; i++ {
			rank := int64(rnd.Intn(120))
			sat := dnfHolds(t, dnf, rankRow{rank: rank, score: 0.5, url: "a"}, conf)
			if sat && !covered(ivs, serde.Int(rank)) {
				t.Fatalf("%q: rank %d satisfies formula but is outside %v", src, rank, ivs)
			}
		}
	}
}

func covered(ivs []Interval, d serde.Datum) bool {
	for _, iv := range ivs {
		if iv.Empty {
			continue
		}
		if iv.Lo.IsValid() {
			c := d.Compare(iv.Lo)
			if c < 0 || (c == 0 && !iv.LoInc) {
				continue
			}
		}
		if iv.Hi.IsValid() {
			c := d.Compare(iv.Hi)
			if c > 0 || (c == 0 && !iv.HiInc) {
				continue
			}
		}
		return true
	}
	return false
}

func TestMergeIntervals(t *testing.T) {
	iv := func(lo, hi int64, loInc, hiInc bool) Interval {
		return Interval{Lo: serde.Int(lo), Hi: serde.Int(hi), LoInc: loInc, HiInc: hiInc}
	}
	merged := MergeIntervals([]Interval{
		iv(10, 20, true, true),
		iv(15, 30, true, true),
		iv(40, 50, true, false),
		iv(50, 60, true, true), // adjacent at 50: [40,50) ∪ [50,60] = [40,60]
		{Empty: true},
	})
	if len(merged) != 2 {
		t.Fatalf("merged = %v", merged)
	}
	if merged[0].String() != "[10, 30]" || merged[1].String() != "[40, 60]" {
		t.Fatalf("merged = %v, %v", merged[0], merged[1])
	}

	// Open endpoints that touch but do not overlap stay separate.
	sep := MergeIntervals([]Interval{iv(0, 5, true, false), iv(5, 9, false, true)})
	if len(sep) != 2 {
		t.Fatalf("(_,5) and (5,_) merged: %v", sep)
	}
}

func TestIntervalIntersect(t *testing.T) {
	a := Interval{Lo: serde.Int(10), LoInc: true}
	b := Interval{Hi: serde.Int(20), HiInc: false}
	got := a.Intersect(b)
	if got.String() != "[10, 20)" {
		t.Fatalf("intersect = %s", got)
	}
	empty := Interval{Lo: serde.Int(30), LoInc: true}.Intersect(b)
	if !empty.Empty {
		t.Fatalf("disjoint intersect = %s", empty)
	}
	point := Interval{Lo: serde.Int(20), LoInc: true}.Intersect(Interval{Hi: serde.Int(20), HiInc: true})
	if point.Empty || point.String() != "[20, 20]" {
		t.Fatalf("point intersect = %s", point)
	}
}

func TestEvalBinaryPromotion(t *testing.T) {
	got, err := EvalBinary(token.ADD, serde.Int(1), serde.Float(0.5))
	if err != nil || got.Kind != serde.KindFloat64 || got.Float() != 1.5 {
		t.Fatalf("1 + 0.5 = %v (%v)", got, err)
	}
	if _, err := EvalBinary(token.QUO, serde.Int(1), serde.Int(0)); err == nil {
		t.Error("integer division by zero accepted")
	}
	if _, err := EvalBinary(token.LSS, serde.Int(1), serde.String("x")); err == nil {
		t.Error("cross-kind ordered comparison accepted")
	}
	cat, err := EvalBinary(token.ADD, serde.String("a"), serde.String("b"))
	if err != nil || cat.Str() != "ab" {
		t.Fatalf("string concat = %v (%v)", cat, err)
	}
}
