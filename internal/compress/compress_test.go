package compress

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
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

// TestDecodedDictionaryAgreesWithWriter: a dictionary decoded from its
// footer bytes, which builds no term→code map until asked, answers Decode,
// Lookup and Encode exactly as the writer's dictionary does, including
// Encode of a term neither has seen.
func TestDecodedDictionaryAgreesWithWriter(t *testing.T) {
	w := NewDictionary()
	for i := 0; i < 300; i++ {
		w.Encode(fmt.Sprintf("http://host-%d/page", i%211))
	}
	w.Encode("")
	got, _, err := DecodeDictionary(w.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != w.Len() {
		t.Fatalf("decoded %d terms, the writer holds %d", got.Len(), w.Len())
	}
	for c := uint64(0); c < uint64(w.Len()); c++ {
		term, _ := w.Decode(c)
		if s, err := got.Decode(c); err != nil || s != term {
			t.Fatalf("Decode(%d) = %q, %v; the writer's is %q", c, s, err, term)
		}
		if code, ok := got.Lookup(term); !ok || code != c {
			t.Fatalf("Lookup(%q) = %d, %t; want %d", term, code, ok, c)
		}
		if code := got.Encode(term); code != c {
			t.Fatalf("Encode(%q) = %d; want %d", term, code, c)
		}
	}
	if _, ok := got.Lookup("absent"); ok {
		t.Error("decoded dictionary finds a term the writer never encoded")
	}
	if a, b := w.Encode("new"), got.Encode("new"); a != b || got.Len() != w.Len() {
		t.Errorf("Encode of a new term: writer %d, decoded %d (lengths %d, %d)", a, b, w.Len(), got.Len())
	}
}

// TestDecodedDictionaryConcurrentLookup: the first Lookups on a decoded
// dictionary race to build its map; run under -race, they must not.
func TestDecodedDictionaryConcurrentLookup(t *testing.T) {
	w := NewDictionary()
	for i := 0; i < 1000; i++ {
		w.Encode(fmt.Sprintf("term-%d", i))
	}
	d, _, err := DecodeDictionary(w.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if c, ok := d.Lookup(fmt.Sprintf("term-%d", i)); !ok || c != uint64(i) {
					t.Errorf("Lookup(term-%d) = %d, %t", i, c, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
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
