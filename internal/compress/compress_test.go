package compress

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"manimal/internal/serde"
)

func TestDeltaIntRoundTrip(t *testing.T) {
	enc, err := NewDeltaEncoder(serde.KindInt64)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDeltaDecoder(serde.KindInt64)
	if err != nil {
		t.Fatal(err)
	}
	vals := []int64{0, 1, -1, 100, 99, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64, 7}
	var buf []byte
	for _, v := range vals {
		buf, err = enc.Append(buf, serde.Int(v))
		if err != nil {
			t.Fatal(err)
		}
	}
	pos := 0
	for i, want := range vals {
		d, n, err := dec.Decode(buf[pos:])
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if d.Int() != want {
			t.Fatalf("value %d = %d, want %d", i, d.Int(), want)
		}
		pos += n
	}
	if pos != len(buf) {
		t.Fatalf("consumed %d of %d", pos, len(buf))
	}
}

func TestDeltaFloatRoundTripQuick(t *testing.T) {
	f := func(vals []float64) bool {
		enc, _ := NewDeltaEncoder(serde.KindFloat64)
		dec, _ := NewDeltaDecoder(serde.KindFloat64)
		var buf []byte
		var err error
		for _, v := range vals {
			buf, err = enc.Append(buf, serde.Float(v))
			if err != nil {
				return false
			}
		}
		pos := 0
		for _, want := range vals {
			d, n, err := dec.Decode(buf[pos:])
			if err != nil {
				return false
			}
			// Bit-exact round trip, including NaN payloads.
			if math.Float64bits(d.Float()) != math.Float64bits(want) {
				return false
			}
			pos += n
		}
		return pos == len(buf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaResetAlignsWithBlocks(t *testing.T) {
	enc, _ := NewDeltaEncoder(serde.KindInt64)
	dec, _ := NewDeltaDecoder(serde.KindInt64)
	var block1, block2 []byte
	block1, _ = enc.Append(nil, serde.Int(1000))
	enc.Reset()
	block2, _ = enc.Append(nil, serde.Int(2000))
	// Without a matching Reset the decoder would read 2000 as 1000+delta.
	d1, _, _ := dec.Decode(block1)
	dec.Reset()
	d2, _, _ := dec.Decode(block2)
	if d1.Int() != 1000 || d2.Int() != 2000 {
		t.Fatalf("got %d, %d", d1.Int(), d2.Int())
	}
}

func TestDeltaCompressesSlowSeries(t *testing.T) {
	enc, _ := NewDeltaEncoder(serde.KindInt64)
	rnd := rand.New(rand.NewSource(1))
	var plain, delta []byte
	v := int64(1_500_000_000)
	for i := 0; i < 1000; i++ {
		v += int64(rnd.Intn(30))
		plain = serde.Int(v).AppendValue(plain)
		delta, _ = enc.Append(delta, serde.Int(v))
	}
	if len(delta)*3 > len(plain) {
		t.Errorf("delta %dB vs plain %dB: expected ~5x shrink on a slow series", len(delta), len(plain))
	}
}

func TestDeltaRejectsNonNumeric(t *testing.T) {
	if _, err := NewDeltaEncoder(serde.KindString); err == nil {
		t.Error("string delta encoder accepted")
	}
	if _, err := NewDeltaDecoder(serde.KindBool); err == nil {
		t.Error("bool delta decoder accepted")
	}
	enc, _ := NewDeltaEncoder(serde.KindInt64)
	if _, err := enc.Append(nil, serde.Float(1)); err == nil {
		t.Error("kind mismatch accepted")
	}
}

func TestDictionaryCodesStable(t *testing.T) {
	d := NewDictionary()
	a := d.Encode("alpha")
	b := d.Encode("beta")
	if a == b {
		t.Fatal("distinct terms share a code")
	}
	if d.Encode("alpha") != a {
		t.Fatal("re-encode changed code")
	}
	if got, err := d.Decode(a); err != nil || got != "alpha" {
		t.Fatalf("decode: %q, %v", got, err)
	}
	if _, err := d.Decode(99); err == nil {
		t.Error("out-of-range code accepted")
	}
	if c, ok := d.Lookup("beta"); !ok || c != b {
		t.Error("lookup failed")
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Error("phantom lookup")
	}
}

func TestDictionaryBinaryRoundTrip(t *testing.T) {
	d := NewDictionary()
	terms := []string{"", "x", "a longer term with spaces", "ünïcode", "x"}
	for _, s := range terms {
		d.Encode(s)
	}
	buf := d.AppendBinary(nil)
	got, n, err := DecodeDictionary(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("decode: %v (n=%d)", err, n)
	}
	if got.Len() != d.Len() {
		t.Fatalf("term count %d != %d", got.Len(), d.Len())
	}
	for _, s := range terms {
		want, _ := d.Lookup(s)
		if c, ok := got.Lookup(s); !ok || c != want {
			t.Errorf("term %q: code %d vs %d", s, c, want)
		}
	}
}

// Code strings must be injective: the entire correctness of direct
// operation rests on equal codes iff equal strings.
func TestCodeStringInjective(t *testing.T) {
	seen := make(map[string]uint64)
	for c := uint64(0); c < 100000; c++ {
		s := CodeString(c)
		if prev, dup := seen[s]; dup {
			t.Fatalf("codes %d and %d map to the same string", prev, c)
		}
		seen[s] = c
		back, err := ParseCodeString(s)
		if err != nil || back != c {
			t.Fatalf("round trip %d -> %q -> %d (%v)", c, s, back, err)
		}
	}
	if _, err := ParseCodeString("not-a-code-string-xyz"); err == nil {
		t.Error("garbage code string accepted")
	}
}

func TestDictionaryManyTerms(t *testing.T) {
	d := NewDictionary()
	for i := 0; i < 5000; i++ {
		d.Encode(fmt.Sprintf("term-%d", i))
	}
	buf := d.AppendBinary(nil)
	got, _, err := DecodeDictionary(buf)
	if err != nil || got.Len() != 5000 {
		t.Fatalf("decode: %v, len %d", err, got.Len())
	}
	if s, err := got.Decode(4999); err != nil || s != "term-4999" {
		t.Fatalf("decode(4999) = %q, %v", s, err)
	}
}
