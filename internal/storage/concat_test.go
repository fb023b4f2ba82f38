package storage

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"manimal/internal/durable"
	"manimal/internal/serde"
)

// concatOpts dictionary-encodes url and delta-encodes ts, so a concat
// exercises both the remapped and the copied segment paths.
var concatOpts = WriterOptions{
	BlockSize: 2 << 10,
	Encodings: map[string]FieldEncoding{"url": EncodeDict, "ts": EncodeDelta},
}

// concatRecords returns n records whose url draws from a pool that drifts
// with the record's position, so consecutive parts see partly shared and
// partly new terms in different first-seen orders.
func concatRecords(n int, seed int64) []*serde.Record {
	rnd := rand.New(rand.NewSource(seed))
	out := make([]*serde.Record, n)
	ts := int64(1_000_000)
	for i := range out {
		ts += int64(rnd.Intn(50))
		r := serde.NewRecord(testSchema)
		r.MustSet("url", serde.String(fmt.Sprintf("http://h%d.example/", i/200+rnd.Intn(12))))
		r.MustSet("ts", serde.Int(ts))
		r.MustSet("score", serde.Float(rnd.Float64()*100))
		out[i] = r
	}
	return out
}

// writeParts writes recs split at the given cut points into part files
// (an empty range makes an empty part) and returns their paths in order.
func writeParts(t *testing.T, dir string, recs []*serde.Record, cuts []int, opts WriterOptions) []string {
	t.Helper()
	var parts []string
	lo := 0
	for i, hi := range append(cuts, len(recs)) {
		p := filepath.Join(dir, fmt.Sprintf("part%d.rec", i))
		writeFile(t, p, recs[lo:hi], opts)
		parts = append(parts, p)
		lo = hi
	}
	return parts
}

// requireNoFile fails unless nothing — neither the file nor a temp file of
// its commit — exists at path.
func requireNoFile(t *testing.T, path string) {
	t.Helper()
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("%s exists after a failed concat (stat: %v)", path, err)
	}
	names, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range names {
		if base, ok := durable.IsTemp(de.Name()); ok && base == filepath.Base(path) {
			t.Fatalf("temp file %s left behind", de.Name())
		}
	}
}

// directCodes returns every record's dictionary code for field, in order.
func directCodes(t *testing.T, path, field string) []string {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Codes = CodeStrings
	sc, err := scanRows(r, 0, r.NumBlocks(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for sc.Next() {
		out = append(out, sc.Record().Str(field))
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	return out
}

// TestConcatMatchesSerialWriter: the concatenation reads back as the
// parts' records in order, and its dictionary — terms and every record's
// code — is the one a single Writer over the same records builds.
func TestConcatMatchesSerialWriter(t *testing.T) {
	dir := t.TempDir()
	recs := concatRecords(3000, 41)
	parts := writeParts(t, dir, recs, []int{700, 700, 1900}, concatOpts)
	dst := filepath.Join(dir, "all.rec")
	if err := Concat(context.Background(), dst, parts); err != nil {
		t.Fatal(err)
	}
	requireEqual(t, recs, readBack(t, dst))

	serial := filepath.Join(dir, "serial.rec")
	writeFile(t, serial, recs, concatOpts)
	got, err := Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	want, err := Open(serial)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	gd, wd := got.Dictionary("url"), want.Dictionary("url")
	if gd == nil || gd.Len() != wd.Len() {
		t.Fatalf("concat dictionary has %v terms, serial writer %d", gd, wd.Len())
	}
	for c := 0; c < wd.Len(); c++ {
		g, _ := gd.Decode(uint64(c))
		w, _ := wd.Decode(uint64(c))
		if g != w {
			t.Fatalf("code %d: concat term %q, serial term %q", c, g, w)
		}
	}
	gc, wc := directCodes(t, dst, "url"), directCodes(t, serial, "url")
	if len(gc) != len(wc) {
		t.Fatalf("%d codes, want %d", len(gc), len(wc))
	}
	for i := range wc {
		if gc[i] != wc[i] {
			t.Fatalf("record %d: code %x, serial writer %x", i, gc[i], wc[i])
		}
	}
	var partBlocks int
	for _, p := range parts {
		r, err := Open(p)
		if err != nil {
			t.Fatal(err)
		}
		partBlocks += r.NumBlocks()
		r.Close()
	}
	if got.NumBlocks() != partBlocks {
		t.Fatalf("concat has %d blocks, parts %d", got.NumBlocks(), partBlocks)
	}
}

// TestConcatZoneMapsCarryOver: a zone-map pushdown over the concatenation
// skips the same blocks and returns the same records as over the parts.
func TestConcatZoneMapsCarryOver(t *testing.T) {
	dir := t.TempDir()
	recs := concatRecords(4000, 42)
	parts := writeParts(t, dir, recs, []int{1300, 2600}, concatOpts)
	dst := filepath.Join(dir, "all.rec")
	if err := Concat(context.Background(), dst, parts); err != nil {
		t.Fatal(err)
	}
	minTS, maxTS := recs[0].Int("ts"), recs[len(recs)-1].Int("ts")
	pd := &Pushdown{Filter: tsFilter(serde.Int((minTS+maxTS)/3), serde.Int((minTS+maxTS)/3+(maxTS-minTS)/10)), Residual: true}

	skipped := func(path string) ([]*serde.Record, int64) {
		r, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		sc, err := scanRows(r, 0, r.NumBlocks(), pd)
		if err != nil {
			t.Fatal(err)
		}
		var out []*serde.Record
		for sc.Next() {
			out = append(out, sc.Record().Clone())
		}
		if sc.Err() != nil {
			t.Fatal(sc.Err())
		}
		return out, sc.Stats().BlocksSkipped
	}
	var want []*serde.Record
	var wantSkipped int64
	for _, p := range parts {
		got, n := skipped(p)
		want = append(want, got...)
		wantSkipped += n
	}
	got, gotSkipped := skipped(dst)
	if wantSkipped == 0 {
		t.Fatal("the filter prunes no block of the parts; the test proves nothing")
	}
	if gotSkipped != wantSkipped {
		t.Fatalf("concat skipped %d blocks, the parts %d", gotSkipped, wantSkipped)
	}
	requireEqual(t, want, got)
}

// TestConcatCorruptPart: a flipped byte in a part's segment fails the
// concat with a CorruptBlockError naming that part, and leaves nothing at
// the destination.
func TestConcatCorruptPart(t *testing.T) {
	dir := t.TempDir()
	parts := writeParts(t, dir, concatRecords(2000, 43), []int{1000}, concatOpts)
	r, err := Open(parts[1])
	if err != nil {
		t.Fatal(err)
	}
	blk := r.blocks[1].offset
	r.Close()
	raw, err := os.ReadFile(parts[1])
	if err != nil {
		t.Fatal(err)
	}
	raw[blk+3] ^= 0x10
	if err := os.WriteFile(parts[1], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	dst := filepath.Join(dir, "all.rec")
	err = Concat(context.Background(), dst, parts)
	var cbe *CorruptBlockError
	if !errors.As(err, &cbe) {
		t.Fatalf("err = %v; want a *CorruptBlockError", err)
	}
	if cbe.Path != parts[1] || cbe.Block != 1 {
		t.Errorf("corruption reported at %s block %d, want %s block 1", cbe.Path, cbe.Block, parts[1])
	}
	requireNoFile(t, dst)
}

// TestConcatRejectsMismatchedParts: parts must share schema and encodings.
func TestConcatRejectsMismatchedParts(t *testing.T) {
	dir := t.TempDir()
	recs := concatRecords(500, 44)
	base := filepath.Join(dir, "base.rec")
	writeFile(t, base, recs, concatOpts)
	plain := filepath.Join(dir, "plain.rec")
	writeFile(t, plain, recs, WriterOptions{})
	other := filepath.Join(dir, "other.rec")
	otherSchema := serde.MustSchema(serde.Field{Name: "url", Kind: serde.KindString})
	w, err := NewWriter(other, otherSchema, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for name, parts := range map[string][]string{"encodings": {base, plain}, "schema": {base, other}} {
		dst := filepath.Join(dir, name+".rec")
		if err := Concat(context.Background(), dst, parts); err == nil {
			t.Errorf("concat of parts with different %s succeeded", name)
		}
		requireNoFile(t, dst)
	}
}

// TestConcatCanceled: a canceled context fails the concat and removes its
// temp file.
func TestConcatCanceled(t *testing.T) {
	dir := t.TempDir()
	parts := writeParts(t, dir, concatRecords(2000, 45), []int{1000}, concatOpts)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dst := filepath.Join(dir, "all.rec")
	if err := Concat(ctx, dst, parts); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want context.Canceled", err)
	}
	requireNoFile(t, dst)
}
