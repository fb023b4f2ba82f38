package serde

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randDatum(rnd *rand.Rand) Datum {
	switch rnd.Intn(5) {
	case 0:
		return Int(rnd.Int63() - rnd.Int63())
	case 1:
		// Avoid NaN: total-order transforms are tested on ordered values.
		return Float(rnd.NormFloat64() * math.Pow(10, float64(rnd.Intn(20)-10)))
	case 2:
		b := make([]byte, rnd.Intn(24))
		rnd.Read(b)
		return String(string(b))
	case 3:
		b := make([]byte, rnd.Intn(24))
		rnd.Read(b)
		return Bytes(b)
	default:
		return Bool(rnd.Intn(2) == 0)
	}
}

func TestDatumValueRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		d := randDatum(rnd)
		buf := d.AppendValue(nil)
		got, n, err := DecodeValue(d.Kind, buf)
		if err != nil {
			t.Fatalf("decode %v: %v", d, err)
		}
		if n != len(buf) {
			t.Fatalf("decode %v consumed %d of %d", d, n, len(buf))
		}
		if !got.Equal(d) {
			t.Fatalf("round trip %v -> %v", d, got)
		}
	}
}

func TestDatumTaggedRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		d := randDatum(rnd)
		buf := d.AppendTagged(nil)
		got, n, err := DecodeTagged(buf)
		if err != nil || n != len(buf) || !got.Equal(d) {
			t.Fatalf("tagged round trip %v -> %v (n=%d err=%v)", d, got, n, err)
		}
	}
}

// The load-bearing property of the whole shuffle and B+Tree: byte order of
// sort keys equals datum order.
func TestSortKeyOrderProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		a, b := randDatum(rnd), randDatum(rnd)
		want := a.Compare(b)
		got := bytes.Compare(a.SortKey(), b.SortKey())
		if sign(got) != sign(want) {
			t.Fatalf("order mismatch: %#v vs %#v: datum %d, bytes %d", a, b, want, got)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

func TestSortKeyRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		d := randDatum(rnd)
		buf := d.SortKey()
		got, n, err := DecodeSortKey(buf)
		if err != nil || n != len(buf) || !got.Equal(d) {
			t.Fatalf("sort key round trip %#v -> %#v (n=%d of %d, err=%v)", d, got, n, len(buf), err)
		}
	}
}

// Strings containing NUL bytes must still round-trip and order correctly
// (the escaping scheme is easy to get wrong).
func TestSortKeyNulEscaping(t *testing.T) {
	cases := []string{"", "\x00", "\x00\x00", "a\x00b", "a", "a\x00", "ab", "\x00\xff", "\xff"}
	for _, a := range cases {
		for _, b := range cases {
			da, db := String(a), String(b)
			if sign(bytes.Compare(da.SortKey(), db.SortKey())) != sign(da.Compare(db)) {
				t.Errorf("order mismatch for %q vs %q", a, b)
			}
		}
		got, _, err := DecodeSortKey(String(a).SortKey())
		if err != nil || got.Str() != a {
			t.Errorf("round trip %q -> %q (%v)", a, got.Str(), err)
		}
	}
}

// Quick property: int64 sort keys order like the integers.
func TestIntSortKeyQuick(t *testing.T) {
	f := func(a, b int64) bool {
		return sign(bytes.Compare(Int(a).SortKey(), Int(b).SortKey())) == sign(Int(a).Compare(Int(b)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Quick property: float64 sort keys order like the floats (NaN excluded).
func TestFloatSortKeyQuick(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		return sign(bytes.Compare(Float(a).SortKey(), Float(b).SortKey())) == sign(Float(a).Compare(Float(b)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaParseRoundTrip(t *testing.T) {
	s, err := ParseSchema("url:string, rank:int64, score:float64, raw:bytes, ok:bool")
	if err != nil {
		t.Fatal(err)
	}
	if s.NumFields() != 5 {
		t.Fatalf("NumFields = %d", s.NumFields())
	}
	reparsed, err := ParseSchema(s.String())
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(reparsed) {
		t.Fatalf("round trip: %s vs %s", s, reparsed)
	}
}

func TestSchemaBinaryRoundTrip(t *testing.T) {
	s := MustSchema(
		Field{Name: "a", Kind: KindInt64},
		Field{Name: "long-name-with-µnicode", Kind: KindString},
	)
	buf := s.AppendBinary(nil)
	got, n, err := DecodeSchema(buf)
	if err != nil || n != len(buf) || !s.Equal(got) {
		t.Fatalf("binary round trip failed: %v (n=%d)", err, n)
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewSchema(Field{Name: "a", Kind: KindInt64}, Field{Name: "a", Kind: KindString}); err == nil {
		t.Error("duplicate field accepted")
	}
	if _, err := NewSchema(Field{Name: "", Kind: KindInt64}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewSchema(Field{Name: "x", Kind: KindInvalid}); err == nil {
		t.Error("invalid kind accepted")
	}
	if _, err := ParseSchema(""); err == nil {
		t.Error("empty schema text accepted")
	}
	if _, err := ParseSchema("a:complex128"); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestSchemaProject(t *testing.T) {
	s := MustSchema(
		Field{Name: "a", Kind: KindInt64},
		Field{Name: "b", Kind: KindString},
		Field{Name: "c", Kind: KindFloat64},
	)
	p, err := s.Project("c", "a")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "c:float64,a:int64" {
		t.Fatalf("projection = %s", p)
	}
	if _, err := s.Project("nope"); err == nil {
		t.Error("projection of unknown field accepted")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	s := MustSchema(
		Field{Name: "i", Kind: KindInt64},
		Field{Name: "f", Kind: KindFloat64},
		Field{Name: "s", Kind: KindString},
		Field{Name: "b", Kind: KindBytes},
		Field{Name: "t", Kind: KindBool},
	)
	r := NewRecord(s)
	r.MustSet("i", Int(-42))
	r.MustSet("f", Float(3.25))
	r.MustSet("s", String("hello"))
	r.MustSet("b", Bytes([]byte{0, 1, 2}))
	r.MustSet("t", Bool(true))

	buf := r.AppendBinary(nil)
	got, n, err := DecodeRecord(s, buf)
	if err != nil || n != len(buf) {
		t.Fatalf("decode: %v (n=%d)", err, n)
	}
	if !r.Equal(got) {
		t.Fatalf("round trip: %s vs %s", r, got)
	}
	if got.Int("i") != -42 || got.Float("f") != 3.25 || got.Str("s") != "hello" || !got.Flag("t") {
		t.Error("typed accessors wrong")
	}
}

func TestRecordKindChecks(t *testing.T) {
	s := MustSchema(Field{Name: "i", Kind: KindInt64})
	r := NewRecord(s)
	if err := r.Set("i", String("oops")); err == nil {
		t.Error("kind mismatch accepted")
	}
	if err := r.Set("nope", Int(1)); err == nil {
		t.Error("unknown field accepted")
	}
	r.MustSet("i", Int(5))
	defer func() {
		if recover() == nil {
			t.Error("Str on int64 field did not panic")
		}
	}()
	_ = r.Str("i")
}

func TestRecordCloneIsDeep(t *testing.T) {
	s := MustSchema(Field{Name: "b", Kind: KindBytes})
	r := NewRecord(s)
	src := []byte{1, 2, 3}
	r.MustSet("b", Bytes(src))
	c := r.Clone()
	src[0] = 99 // Raw() is a read-only borrow: mutate the source, not the view
	if r.Raw("b")[0] != 99 {
		t.Error("record does not borrow the bytes it was set from")
	}
	if c.Raw("b")[0] == 99 {
		t.Error("clone shares byte storage")
	}
}

func TestDecodeTruncated(t *testing.T) {
	d := String("hello world")
	buf := d.AppendValue(nil)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeValue(KindString, buf[:cut]); err == nil && cut < len(buf) {
			// Short prefixes that happen to parse as a shorter string are
			// impossible here because the length prefix demands more bytes.
			t.Fatalf("truncated decode at %d succeeded", cut)
		}
	}
	if _, _, err := DecodeValue(KindFloat64, []byte{1, 2}); err == nil {
		t.Error("truncated float accepted")
	}
	if _, _, err := DecodeSortKey(nil); err == nil {
		t.Error("empty sort key accepted")
	}
}
