package serde

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"unsafe"
)

// A Datum is returned by value from every interpreter closure, record
// accessor and vector read. On amd64 a copy of more than 64 bytes stops
// being a run of inline moves and becomes a call into runtime.duffcopy,
// which at 72 bytes was a quarter of Map/Reduce CPU. 32 bytes leaves room
// for interp.Value and interp.EmitValue (gated in that package) to wrap a
// Datum and stay under the line. A new field fails here, not in a profile.
func TestDatumSize(t *testing.T) {
	if got := unsafe.Sizeof(Datum{}); got > 32 {
		t.Fatalf("unsafe.Sizeof(Datum{}) = %d, want <= 32", got)
	}
}

// fatDatum is the layout Datum replaced — one field per kind, side by
// side — with the Equal and Compare it had. It is the reference the compact
// representation must agree with.
type fatDatum struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    []byte
	flag bool
}

func (d fatDatum) equal(o fatDatum) bool {
	if d.kind != o.kind {
		return false
	}
	switch d.kind {
	case KindInt64:
		return d.i == o.i
	case KindFloat64:
		return d.f == o.f
	case KindString:
		return d.s == o.s
	case KindBytes:
		return bytes.Equal(d.b, o.b)
	default:
		return d.flag == o.flag
	}
}

func (d fatDatum) compare(o fatDatum) int {
	if d.kind != o.kind {
		if d.kind < o.kind {
			return -1
		}
		return 1
	}
	switch d.kind {
	case KindInt64:
		return cmpOrdered(d.i, o.i)
	case KindFloat64:
		return cmpOrdered(d.f, o.f)
	case KindString:
		return bytes.Compare([]byte(d.s), []byte(o.s))
	case KindBytes:
		return bytes.Compare(d.b, o.b)
	default:
		switch {
		case d.flag == o.flag:
			return 0
		case !d.flag:
			return -1
		}
		return 1
	}
}

// appendValue is the wire encoding spelled out per kind.
func (d fatDatum) appendValue(dst []byte) []byte {
	switch d.kind {
	case KindInt64:
		return binary.AppendVarint(dst, d.i)
	case KindFloat64:
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(d.f))
	case KindString:
		return append(binary.AppendUvarint(dst, uint64(len(d.s))), d.s...)
	case KindBytes:
		return append(binary.AppendUvarint(dst, uint64(len(d.b))), d.b...)
	default:
		if d.flag {
			return append(dst, 1)
		}
		return append(dst, 0)
	}
}

// buildDatum makes the same value both ways from fuzzable parts: sel picks
// the kind, w is the int64, the float64's bits or (bit 0) the bool, and p
// the string or bytes payload.
func buildDatum(sel uint8, w int64, p []byte) (Datum, fatDatum) {
	switch kind := Kind(sel%5) + KindInt64; kind {
	case KindInt64:
		return Int(w), fatDatum{kind: kind, i: w}
	case KindFloat64:
		f := math.Float64frombits(uint64(w))
		return Float(f), fatDatum{kind: kind, f: f}
	case KindString:
		return String(string(p)), fatDatum{kind: kind, s: string(p)}
	case KindBytes:
		return Bytes(p), fatDatum{kind: kind, b: p}
	default:
		return Bool(w&1 == 1), fatDatum{kind: kind, flag: w&1 == 1}
	}
}

// checkDatum holds one datum to its reference: accessors, both encodings,
// both decoders, the sort key, and CloneData.
func checkDatum(t *testing.T, d Datum, ref fatDatum) {
	t.Helper()
	if d.Kind != ref.kind || !d.IsValid() {
		t.Fatalf("kind %v, want %v", d.Kind, ref.kind)
	}
	// Accessors: the datum's own kind answers, every other returns zero.
	// Floats are compared by bits so NaN payloads and -0.0 are held exactly.
	if d.Int() != ref.i || math.Float64bits(d.Float()) != math.Float64bits(ref.f) ||
		d.Str() != ref.s || !bytes.Equal(d.Raw(), ref.b) || len(d.Raw()) != len(ref.b) || d.Flag() != ref.flag {
		t.Fatalf("accessors of %v: Int=%d Float=%x Str=%q Raw=%x Flag=%v, want %+v",
			d, d.Int(), math.Float64bits(d.Float()), d.Str(), d.Raw(), d.Flag(), ref)
	}

	val := d.AppendValue(nil)
	if want := ref.appendValue(nil); !bytes.Equal(val, want) {
		t.Fatalf("AppendValue(%v) = %x, want %x", d, val, want)
	}
	tagged := d.AppendTagged([]byte("prefix"))
	if want := append([]byte("prefix"), byte(ref.kind)); !bytes.Equal(tagged, append(want, val...)) {
		t.Fatalf("AppendTagged(%v) = %x", d, tagged)
	}

	var fromVal, fromTagged Datum
	if n, err := DecodeValueInto(d.Kind, val, &fromVal); err != nil || n != len(val) {
		t.Fatalf("DecodeValueInto(%v): n=%d of %d, err=%v", d, n, len(val), err)
	}
	if n, err := DecodeTaggedInto(tagged[len("prefix"):], &fromTagged); err != nil || n != len(val)+1 {
		t.Fatalf("DecodeTaggedInto(%v): n=%d, err=%v", d, n, err)
	}
	// A decoded string or bytes payload is a copy, not a view of the input:
	// it must survive the input buffer being overwritten.
	clear(val)
	clear(tagged)
	sameDatum(t, "DecodeValueInto", fromVal, d)
	sameDatum(t, "DecodeTaggedInto", fromTagged, d)

	key := d.SortKey()
	back, n, err := DecodeSortKey(key)
	if err != nil || n != len(key) {
		t.Fatalf("DecodeSortKey(%v): n=%d of %d, err=%v", d, n, len(key), err)
	}
	sameDatum(t, "DecodeSortKey", back, d)

	sameDatum(t, "CloneData", d.CloneData(), d)
}

// sameDatum is bit-for-bit identity (Equal is not: NaN != NaN, -0.0 == 0.0).
func sameDatum(t *testing.T, what string, got, want Datum) {
	t.Helper()
	if got.Kind != want.Kind || got.w != want.w || got.s != want.s {
		t.Fatalf("%s: got %v (%x), want %v (%x)", what, got, got.w, want, want.w)
	}
}

// checkPair holds Equal, Compare and the sort-key order of two datums to
// the reference.
func checkPair(t *testing.T, a Datum, ra fatDatum, b Datum, rb fatDatum) {
	t.Helper()
	if got, want := a.Equal(b), ra.equal(rb); got != want {
		t.Fatalf("Equal(%v, %v) = %v, want %v", a, b, got, want)
	}
	want := ra.compare(rb)
	if got := a.Compare(b); got != want {
		t.Fatalf("Compare(%v, %v) = %d, want %d", a, b, got, want)
	}
	// Sort keys order like Compare, except where Compare is not a total
	// order to begin with: NaN compares 0 with everything and -0.0 with
	// +0.0, while their sort keys (rightly) differ.
	if a.Kind == KindFloat64 && b.Kind == KindFloat64 && want == 0 && a.w != b.w {
		return
	}
	if got := sign(bytes.Compare(a.SortKey(), b.SortKey())); got != want {
		t.Fatalf("sort keys of %v and %v order %d, Compare says %d", a, b, got, want)
	}
}

var datumEdgeCases = []struct {
	name string
	sel  uint8
	w    int64
	p    []byte
}{
	{"int zero", 0, 0, nil},
	{"int min", 0, math.MinInt64, nil},
	{"int max", 0, math.MaxInt64, nil},
	{"int -1", 0, -1, nil},
	{"float zero", 1, 0, nil},
	{"float -0.0", 1, math.MinInt64, nil}, // only the sign bit set
	{"float NaN", 1, int64(math.Float64bits(math.NaN())), nil},
	{"float NaN with payload", 1, 0x7FF8_0000_DEAD_BEEF, nil},
	{"float negative NaN", 1, -1, nil},
	{"float +Inf", 1, int64(math.Float64bits(math.Inf(1))), nil},
	{"float -Inf", 1, int64(math.Float64bits(math.Inf(-1))), nil},
	{"float 1.5", 1, int64(math.Float64bits(1.5)), nil},
	{"string empty", 2, 0, nil},
	{"string ascii", 2, 0, []byte("hello")},
	{"string NUL", 2, 0, []byte("a\x00b")},
	{"string invalid UTF-8", 2, 0, []byte{0xFF, 0xFE, 0xC0, 0x80}},
	{"bytes nil", 3, 0, nil},
	{"bytes empty", 3, 0, []byte{}},
	{"bytes binary", 3, 0, []byte{0, 0xFF, 0, 1}},
	{"bytes that spell a string", 3, 0, []byte("hello")},
	{"bool false", 4, 0, nil},
	{"bool true", 4, 1, nil},
}

func TestDatumRepresentation(t *testing.T) {
	for _, a := range datumEdgeCases {
		da, ra := buildDatum(a.sel, a.w, a.p)
		t.Run(a.name, func(t *testing.T) { checkDatum(t, da, ra) })
		for _, b := range datumEdgeCases {
			db, rb := buildDatum(b.sel, b.w, b.p)
			checkPair(t, da, ra, db, rb)
		}
	}
	// Nil and empty bytes are one value, and Raw() of either has length 0.
	if !Bytes(nil).Equal(Bytes([]byte{})) || len(Bytes(nil).Raw()) != 0 || len(Bytes([]byte{}).Raw()) != 0 {
		t.Error("nil and empty bytes differ")
	}
	// Same payload, different kind: never equal, ordered by kind.
	if String("hello").Equal(Bytes([]byte("hello"))) || String("hello").Compare(Bytes([]byte("hello"))) >= 0 {
		t.Error("string and bytes of one payload are confused")
	}
}

// A typed accessor answers only for its own kind. For any other it returns
// the zero value of its type — what reading the unused field of the old
// side-by-side layout gave — and never the bits of the live payload: the
// int64, float64 and bool share one word, string and bytes one string.
func TestDatumWrongAccessorIsZero(t *testing.T) {
	nonzero := []Datum{
		Int(-1),
		Float(math.Float64frombits(0xFFFF_FFFF_FFFF_FFFF)),
		String("payload"),
		Bytes([]byte("payload")),
		Bool(true),
	}
	for _, d := range nonzero {
		k := d.Kind
		if k != KindInt64 && d.Int() != 0 {
			t.Errorf("%v datum: Int() = %d", k, d.Int())
		}
		if k != KindFloat64 && math.Float64bits(d.Float()) != 0 {
			t.Errorf("%v datum: Float() = %v", k, d.Float())
		}
		if k != KindString && d.Str() != "" {
			t.Errorf("%v datum: Str() = %q", k, d.Str())
		}
		if k != KindBytes && d.Raw() != nil {
			t.Errorf("%v datum: Raw() = %x", k, d.Raw())
		}
		if k != KindBool && d.Flag() {
			t.Errorf("%v datum: Flag() = true", k)
		}
	}
	var invalid Datum
	if invalid.Int() != 0 || invalid.Float() != 0 || invalid.Str() != "" || invalid.Raw() != nil || invalid.Flag() {
		t.Error("the invalid datum has a payload")
	}
}

// Bytes(buf) and the shared-buffer string decoders alias their source;
// Raw() and Str() are borrows of it. CloneData is what detaches a datum of
// either kind — the bytes view is string-backed, so both go through the
// same copy.
func TestCloneDataDetaches(t *testing.T) {
	for _, kind := range []Kind{KindString, KindBytes} {
		src := []byte("payload")
		var d Datum
		if kind == KindString {
			d = String(unsafeString(src)) // what DecodeStringColumnShared produces
		} else {
			d = Bytes(src)
		}
		c := d.CloneData()
		src[0] = 'X'
		if got := string(d.view()); got != "Xayload" {
			t.Errorf("%v: datum does not borrow its source buffer: %q", kind, got)
		}
		if got := string(c.view()); got != "payload" {
			t.Errorf("%v: CloneData shares the mutated source buffer: %q", kind, got)
		}
		if kind == KindBytes && (string(c.Raw()) != "payload" || string(d.Raw()) != "Xayload") {
			t.Errorf("Raw() disagrees with the payload: clone %q, original %q", c.Raw(), d.Raw())
		}
	}
}

func FuzzDatumRoundTrip(f *testing.F) {
	for i, a := range datumEdgeCases {
		b := datumEdgeCases[(i*7+3)%len(datumEdgeCases)]
		f.Add(a.sel, a.w, a.p, b.sel, b.w, b.p)
	}
	f.Fuzz(func(t *testing.T, selA uint8, wA int64, pA []byte, selB uint8, wB int64, pB []byte) {
		a, ra := buildDatum(selA, wA, pA)
		b, rb := buildDatum(selB, wB, pB)
		checkDatum(t, a, ra)
		checkDatum(t, b, rb)
		checkPair(t, a, ra, b, rb)
		checkPair(t, b, rb, a, ra)
	})
}
