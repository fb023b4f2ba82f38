package predicate

import (
	"go/token"
	"testing"

	"manimal/internal/serde"
)

func fieldInt(name string) Expr   { return Field{Accessor: "Int", Name: name} }
func fieldFloat(name string) Expr { return Field{Accessor: "Float", Name: name} }
func fieldStr(name string) Expr   { return Field{Accessor: "Str", Name: name} }
func ci(v int64) Expr             { return Const{serde.Int(v)} }
func bin(op token.Token, l, r Expr) Expr {
	return Binary{Op: op, L: l, R: r}
}

func TestZonesSimpleRange(t *testing.T) {
	// rank > 10 && rank <= 100
	d := ToDNF(bin(token.LAND,
		bin(token.GTR, fieldInt("rank"), ci(10)),
		bin(token.LEQ, fieldInt("rank"), ci(100))), false)
	f, ok, err := d.Zones(nil)
	if err != nil || !ok {
		t.Fatalf("Zones: ok=%v err=%v", ok, err)
	}
	if len(f) != 1 || len(f[0]) != 1 || f[0][0].Field != "rank" {
		t.Fatalf("filter = %s", f)
	}
	iv := f[0][0].Iv
	if iv.Lo.Int() != 10 || iv.LoInc || iv.Hi.Int() != 100 || !iv.HiInc {
		t.Fatalf("interval = %s", iv)
	}
	rec := mustRecord(t, "rank:int64", serde.Int(50))
	if !f.MatchesRecord(rec) {
		t.Fatal("50 should match (10, 100]")
	}
	rec = mustRecord(t, "rank:int64", serde.Int(10))
	if f.MatchesRecord(rec) {
		t.Fatal("10 should miss (10, 100]")
	}
}

func TestZonesConfBindingAndPromotion(t *testing.T) {
	// score >= threshold (float accessor, int conf value: promoted)
	d := ToDNF(bin(token.GEQ, fieldFloat("score"), Conf{Accessor: "ConfInt", Name: "threshold"}), false)
	f, ok, err := d.Zones(Config{"threshold": serde.Int(5)})
	if err != nil || !ok {
		t.Fatalf("Zones: ok=%v err=%v", ok, err)
	}
	if got := f[0][0].Iv.Lo; got.Kind != serde.KindFloat64 || got.Float() != 5 {
		t.Fatalf("lo bound = %v", got)
	}
}

func TestZonesUnboundedDisjunct(t *testing.T) {
	// (rank > 10) OR (name-has-call): second disjunct bounds nothing.
	d := DNF{
		{Atom{Expr: bin(token.GTR, fieldInt("rank"), ci(10))}},
		{Atom{Expr: Call{Name: "strings.Contains"}}},
	}
	if _, ok, err := d.Zones(nil); err != nil || ok {
		t.Fatalf("unbounded disjunct must yield ok=false (ok=%v err=%v)", ok, err)
	}
}

func TestZonesContradictoryDisjunctDropped(t *testing.T) {
	// (rank > 10 && rank < 5) OR (rank == 7): first disjunct is empty.
	d := DNF{
		{Atom{Expr: bin(token.GTR, fieldInt("rank"), ci(10))},
			Atom{Expr: bin(token.LSS, fieldInt("rank"), ci(5))}},
		{Atom{Expr: bin(token.EQL, fieldInt("rank"), ci(7))}},
	}
	f, ok, err := d.Zones(nil)
	if err != nil || !ok {
		t.Fatalf("Zones: ok=%v err=%v", ok, err)
	}
	if len(f) != 1 {
		t.Fatalf("contradictory disjunct survived: %s", f)
	}
	if !f.MatchesRecord(mustRecord(t, "rank:int64", serde.Int(7))) {
		t.Fatal("7 should match")
	}
	if f.MatchesRecord(mustRecord(t, "rank:int64", serde.Int(11))) {
		t.Fatal("11 should miss")
	}
}

func TestZonesAllDisjunctsEmpty(t *testing.T) {
	// rank > 10 && rank < 5: statically false — zero-conjunct filter that
	// rejects everything.
	d := DNF{
		{Atom{Expr: bin(token.GTR, fieldInt("rank"), ci(10))},
			Atom{Expr: bin(token.LSS, fieldInt("rank"), ci(5))}},
	}
	f, ok, err := d.Zones(nil)
	if err != nil || !ok {
		t.Fatalf("Zones: ok=%v err=%v", ok, err)
	}
	if len(f) != 0 {
		t.Fatalf("filter = %s", f)
	}
	if f.MatchesRecord(mustRecord(t, "rank:int64", serde.Int(7))) {
		t.Fatal("statically false formula matched a record")
	}
}

func TestZonesStringEquality(t *testing.T) {
	d := ToDNF(bin(token.EQL, fieldStr("cc"), Const{serde.String("DE")}), false)
	f, ok, err := d.Zones(nil)
	if err != nil || !ok {
		t.Fatalf("Zones: ok=%v err=%v", ok, err)
	}
	if !f.MatchesRecord(mustRecord(t, "cc:string", serde.String("DE"))) {
		t.Fatal("DE should match")
	}
	if f.MatchesRecord(mustRecord(t, "cc:string", serde.String("US"))) {
		t.Fatal("US should miss")
	}
}

func TestZonesFields(t *testing.T) {
	d := DNF{
		{Atom{Expr: bin(token.GTR, fieldInt("b"), ci(1))},
			Atom{Expr: bin(token.LSS, fieldInt("a"), ci(9))}},
		{Atom{Expr: bin(token.EQL, fieldInt("c"), ci(3))}},
	}
	f, ok, err := d.Zones(nil)
	if err != nil || !ok {
		t.Fatal(err)
	}
	got := f.Fields()
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("fields = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fields = %v, want %v", got, want)
		}
	}
}

func mustRecord(t *testing.T, schemaText string, vals ...serde.Datum) *serde.Record {
	t.Helper()
	s, err := serde.ParseSchema(schemaText)
	if err != nil {
		t.Fatal(err)
	}
	r := serde.NewRecord(s)
	for i, v := range vals {
		if err := r.SetAt(i, v); err != nil {
			t.Fatal(err)
		}
	}
	return r
}
