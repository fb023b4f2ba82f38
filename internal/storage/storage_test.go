package storage

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"manimal/internal/serde"
)

var testSchema = serde.MustSchema(
	serde.Field{Name: "url", Kind: serde.KindString},
	serde.Field{Name: "ts", Kind: serde.KindInt64},
	serde.Field{Name: "score", Kind: serde.KindFloat64},
)

func makeRecords(n int, seed int64) []*serde.Record {
	rnd := rand.New(rand.NewSource(seed))
	urls := []string{"http://a.example/x", "http://b.example/y", "http://c.example/z"}
	out := make([]*serde.Record, n)
	ts := int64(1_000_000)
	for i := range out {
		ts += int64(rnd.Intn(50))
		r := serde.NewRecord(testSchema)
		r.MustSet("url", serde.String(urls[rnd.Intn(len(urls))]))
		r.MustSet("ts", serde.Int(ts))
		r.MustSet("score", serde.Float(rnd.Float64()*100))
		out[i] = r
	}
	return out
}

func writeFile(t *testing.T, path string, recs []*serde.Record, opts WriterOptions) {
	t.Helper()
	w, err := NewWriter(path, testSchema, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readBack(t *testing.T, path string) []*serde.Record {
	t.Helper()
	got, _, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func requireEqual(t *testing.T, want, got []*serde.Record) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("record count %d != %d", len(got), len(want))
	}
	for i := range want {
		if !want[i].Equal(got[i]) {
			t.Fatalf("record %d: %s != %s", i, got[i], want[i])
		}
	}
}

func TestRoundTripPlain(t *testing.T) {
	recs := makeRecords(2500, 1)
	path := filepath.Join(t.TempDir(), "plain.rec")
	writeFile(t, path, recs, WriterOptions{BlockSize: 4 << 10})
	requireEqual(t, recs, readBack(t, path))
}

func TestRoundTripDelta(t *testing.T) {
	recs := makeRecords(2500, 2)
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.rec")
	delta := filepath.Join(dir, "delta.rec")
	writeFile(t, plain, recs, WriterOptions{BlockSize: 8 << 10})
	writeFile(t, delta, recs, WriterOptions{
		BlockSize: 8 << 10,
		Encodings: map[string]FieldEncoding{"ts": EncodeDelta, "score": EncodeDelta},
	})
	requireEqual(t, recs, readBack(t, delta))

	ps, _ := os.Stat(plain)
	ds, _ := os.Stat(delta)
	if ds.Size() >= ps.Size() {
		t.Errorf("delta file %d not smaller than plain %d (monotone ts should shrink)", ds.Size(), ps.Size())
	}
}

func TestRoundTripDict(t *testing.T) {
	recs := makeRecords(2500, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "dict.rec")
	writeFile(t, path, recs, WriterOptions{
		BlockSize: 8 << 10,
		Encodings: map[string]FieldEncoding{"url": EncodeDict},
	})
	// Default mode: lossless decode.
	requireEqual(t, recs, readBack(t, path))

	// Direct mode: codes instead of strings, injective.
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.DirectCodes = true
	sc, err := r.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	codeOf := make(map[string]string)
	i := 0
	for sc.Next() {
		orig := recs[i].Str("url")
		code := sc.Record().Str("url")
		if prev, ok := codeOf[orig]; ok && prev != code {
			t.Fatalf("code for %q changed: %x vs %x", orig, prev, code)
		}
		codeOf[orig] = code
		i++
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if len(codeOf) != 3 {
		t.Fatalf("expected 3 distinct codes, got %d", len(codeOf))
	}
	seen := make(map[string]bool)
	for _, c := range codeOf {
		if seen[c] {
			t.Fatal("codes are not injective")
		}
		seen[c] = true
	}
	if d := r.Dictionary("url"); d == nil || d.Len() != 3 {
		t.Errorf("dictionary missing or wrong size")
	}
}

func TestDictEncodingRequiresString(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.rec")
	_, err := NewWriter(path, testSchema, WriterOptions{
		Encodings: map[string]FieldEncoding{"ts": EncodeDict},
	})
	if err == nil {
		t.Fatal("dict on int64 accepted")
	}
}

func TestDeltaEncodingRequiresNumeric(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.rec")
	_, err := NewWriter(path, testSchema, WriterOptions{
		Encodings: map[string]FieldEncoding{"url": EncodeDelta},
	})
	if err == nil {
		t.Fatal("delta on string accepted")
	}
}

func TestBlockRangeScan(t *testing.T) {
	recs := makeRecords(3000, 4)
	path := filepath.Join(t.TempDir(), "blocks.rec")
	writeFile(t, path, recs, WriterOptions{BlockSize: 2 << 10})
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumBlocks() < 4 {
		t.Fatalf("expected many blocks, got %d", r.NumBlocks())
	}
	if r.NumRecords() != 3000 {
		t.Fatalf("NumRecords = %d", r.NumRecords())
	}

	// Scanning disjoint halves must cover everything exactly once.
	mid := r.NumBlocks() / 2
	total := 0
	for _, rng := range [][2]int{{0, mid}, {mid, r.NumBlocks()}} {
		sc, err := r.Scan(rng[0], rng[1])
		if err != nil {
			t.Fatal(err)
		}
		for sc.Next() {
			if !sc.Record().Equal(recs[total]) {
				t.Fatalf("record %d mismatch", total)
			}
			total++
		}
		if sc.Err() != nil {
			t.Fatal(sc.Err())
		}
	}
	if total != 3000 {
		t.Fatalf("split scan covered %d records", total)
	}
	if r.BytesRead() == 0 {
		t.Error("BytesRead not counted")
	}
	if _, err := r.Scan(-1, 2); err == nil {
		t.Error("negative block range accepted")
	}
	if _, err := r.Scan(0, r.NumBlocks()+1); err == nil {
		t.Error("out-of-range block accepted")
	}
}

func TestRecordsInBlocks(t *testing.T) {
	recs := makeRecords(1000, 5)
	path := filepath.Join(t.TempDir(), "counts.rec")
	writeFile(t, path, recs, WriterOptions{BlockSize: 2 << 10})
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.RecordsInBlocks(0, r.NumBlocks()); got != 1000 {
		t.Fatalf("RecordsInBlocks(all) = %d", got)
	}
	sum := int64(0)
	for i := 0; i < r.NumBlocks(); i++ {
		sum += r.RecordsInBlocks(i, i+1)
	}
	if sum != 1000 {
		t.Fatalf("per-block sum = %d", sum)
	}
}

func TestEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.rec")
	writeFile(t, path, nil, WriterOptions{})
	got := readBack(t, path)
	if len(got) != 0 {
		t.Fatalf("empty file read %d records", len(got))
	}
}

func TestSchemaMismatchAppend(t *testing.T) {
	other := serde.MustSchema(serde.Field{Name: "x", Kind: serde.KindInt64})
	path := filepath.Join(t.TempDir(), "s.rec")
	w, err := NewWriter(path, testSchema, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(serde.NewRecord(other)); err == nil {
		t.Fatal("schema mismatch accepted")
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "garbage")
	if err := os.WriteFile(bad, []byte("this is not a record file at all, definitely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad); err == nil {
		t.Fatal("garbage accepted")
	}
	// Truncated file: valid header, chopped footer.
	recs := makeRecords(100, 6)
	good := filepath.Join(dir, "good.rec")
	writeFile(t, good, recs, WriterOptions{})
	raw, _ := os.ReadFile(good)
	if err := os.WriteFile(bad, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad); err == nil {
		t.Fatal("truncated file accepted")
	}
}

// TestOpenBoundsTrailerLengths: every length and count readMeta takes from
// the file — header length, footer length, block count, segment lengths —
// is bounded by the file before anything is allocated from it. Each
// mutation of a fresh file must fail Open with ErrMalformedFile: no panic,
// no allocation sized by the mutated value.
func TestOpenBoundsTrailerLengths(t *testing.T) {
	good := filepath.Join(t.TempDir(), "good.rec")
	writeFile(t, good, makeRecords(500, 8), WriterOptions{BlockSize: 1 << 10})
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	const tail = 8 + len(magicFooter)
	ftrLen := int(binary.LittleEndian.Uint64(raw[len(raw)-tail:]))
	ftrStart := len(raw) - tail - ftrLen // the uvarint block count lives here
	huge := binary.AppendUvarint(nil, 1<<62)
	for _, tc := range []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"footer length past file start", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[len(b)-tail:], uint64(len(b)))
			return b
		}},
		{"footer length 2^63", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[len(b)-tail:], 1<<63)
			return b
		}},
		{"footer length all ones", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[len(b)-tail:], ^uint64(0))
			return b
		}},
		{"block count 2^62", func(b []byte) []byte {
			// Overwrites the count and the head of the first index entry;
			// the count alone must already be refused.
			copy(b[ftrStart:], huge)
			return b
		}},
		{"block count one more than stored", func(b []byte) []byte {
			b[ftrStart]++
			return b
		}},
		{"header length 2^62", func(b []byte) []byte {
			return append(append(append([]byte(nil), b[:len(magicHeader)]...), huge...), b[len(magicHeader)+1:]...)
		}},
		{"shorter than header plus trailer", func(b []byte) []byte {
			return append(append([]byte(nil), b[:len(magicHeader)+1]...), b[len(b)-tail+1:]...)
		}},
		{"block length past the data section", func(b []byte) []byte {
			// First index entry is records|length|crc|length|crc...; the
			// record count uvarint is one byte here (small blocks), the first
			// segment length follows.
			copy(b[ftrStart+2:], huge)
			return b
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := filepath.Join(t.TempDir(), "bad.rec")
			if err := os.WriteFile(bad, tc.mutate(append([]byte(nil), raw...)), 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := Open(bad)
			if err == nil {
				r.Close()
				t.Fatal("mutated trailer accepted")
			}
			if !errors.Is(err, ErrMalformedFile) {
				t.Fatalf("err = %v; want ErrMalformedFile", err)
			}
		})
	}
}

func TestAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.rec")
	w, err := NewWriter(path, testSchema, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(1, 7)
	if err := w.Append(recs[0]); err == nil {
		t.Fatal("append after close accepted")
	}
}
