package storage

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestOnDiskBitFlipDetected: flipping one byte inside a block on disk must
// surface as a typed CorruptBlockError (not a garbled decode) when the
// block is read, with the file, block index, and offset filled in.
func TestOnDiskBitFlipDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flip.rec")
	writeFile(t, path, makeRecords(2000, 1), WriterOptions{BlockSize: 4 << 10})

	// Flip a byte early in the first block's payload (the header before
	// the first block — magic plus schema — is not checksummed; a flip
	// there fails the schema parse instead).
	r0, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	blk0 := r0.blocks[0].offset
	r0.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[blk0+17] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open should succeed (the footer is intact): %v", err)
	}
	defer r.Close()
	sc, err := scanRows(r, 0, r.NumBlocks(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for sc.Next() {
	}
	err = sc.Err()
	if err == nil {
		t.Fatal("scan over a flipped block reported no error")
	}
	if !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("err = %v; want errors.Is(err, ErrCorruptBlock)", err)
	}
	var cbe *CorruptBlockError
	if !errors.As(err, &cbe) {
		t.Fatalf("err = %v; want a *CorruptBlockError in the chain", err)
	}
	if cbe.Path != path {
		t.Errorf("CorruptBlockError.Path = %q, want %q", cbe.Path, path)
	}
	if cbe.Block != 0 {
		t.Errorf("CorruptBlockError.Block = %d, want 0", cbe.Block)
	}
}

// TestChecksumCoversEveryBlock flips a byte in each block region in turn
// and requires every flip to be caught — no block is left unchecksummed.
func TestChecksumCoversEveryBlock(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.rec")
	writeFile(t, clean, makeRecords(3000, 2), WriterOptions{BlockSize: 4 << 10})
	r, err := Open(clean)
	if err != nil {
		t.Fatal(err)
	}
	nblocks := r.NumBlocks()
	type span struct{ off, len int64 }
	spans := make([]span, nblocks)
	nf := r.schema.NumFields()
	for i := range spans {
		spans[i].off = r.blocks[i].offset
		for _, sg := range r.segs[i*nf : (i+1)*nf] {
			spans[i].len += sg.length
		}
	}
	r.Close()
	if nblocks < 3 {
		t.Fatalf("want >= 3 blocks, got %d", nblocks)
	}
	raw, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range spans {
		mut := append([]byte(nil), raw...)
		mut[sp.off+sp.len/2] ^= 0x01
		path := filepath.Join(dir, "mut.rec")
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		rr, err := Open(path)
		if err != nil {
			t.Fatalf("block %d: open: %v", i, err)
		}
		sc, err := scanRows(rr, i, i+1, nil)
		if err != nil {
			t.Fatalf("block %d: scan: %v", i, err)
		}
		for sc.Next() {
		}
		if !errors.Is(sc.Err(), ErrCorruptBlock) {
			t.Errorf("block %d: flip not detected (err = %v)", i, sc.Err())
		}
		rr.Close()
	}
}

// drainScan runs a pushdown scan over every block of the file at path and
// returns the records it kept, the reader's BytesRead, and the scan error.
func drainScan(t *testing.T, path string, pd *Pushdown) (int, int64, error) {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sc, err := scanRows(r, 0, r.NumBlocks(), pd)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for sc.Next() {
		n++
	}
	return n, r.BytesRead(), sc.Err()
}

// TestPrunedScanReadsOnlyDecodedSegments: a field-pruned scan reads exactly
// the bytes of the segments it decodes — adjacent or not — and a full scan
// reads every segment, which together tile the data section.
func TestPrunedScanReadsOnlyDecodedSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pruned.rec")
	writeFile(t, path, makeRecords(3000, 31), WriterOptions{BlockSize: 4 << 10})
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	nf := r.schema.NumFields()
	segBytes := make([]int64, nf)
	var dataBytes int64 // the segments tile the data section
	for k, sg := range r.segs {
		segBytes[k%nf] += sg.length
		dataBytes += sg.length
	}
	r.Close()
	if r.NumBlocks() < 3 {
		t.Fatalf("want several blocks, got %d", r.NumBlocks())
	}

	for _, tc := range []struct {
		name   string
		fields []string // nil: full scan
		want   int64
	}{
		{"full", nil, dataBytes},
		{"one field", []string{"ts"}, segBytes[1]},
		{"adjacent pair", []string{"url", "ts"}, segBytes[0] + segBytes[1]},
		{"non-adjacent pair", []string{"url", "score"}, segBytes[0] + segBytes[2]},
		{"no field", []string{}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var pd *Pushdown
			if tc.fields != nil {
				pd = &Pushdown{Fields: tc.fields}
			}
			n, read, err := drainScan(t, path, pd)
			if err != nil || n != 3000 {
				t.Fatalf("scan kept %d of 3000 records, err %v", n, err)
			}
			if read != tc.want {
				t.Errorf("BytesRead = %d, want the decoded segments' %d", read, tc.want)
			}
		})
	}
}

// TestCorruptUnreadSegment: a flipped byte inside one field's segment fails
// every scan that decodes that field with a CorruptBlockError naming the
// block, and no scan that leaves the field masked.
func TestCorruptUnreadSegment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.rec")
	writeFile(t, path, makeRecords(2000, 32), WriterOptions{BlockSize: 4 << 10})
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	nf := r.schema.NumFields()
	const block, field = 1, 2 // "score" of the second block
	sg := r.segs[block*nf+field]
	r.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[sg.offset+sg.length/2] ^= 0x04
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if n, _, err := drainScan(t, path, &Pushdown{Fields: []string{"url", "ts"}}); err != nil || n != 2000 {
		t.Fatalf("scan that never reads the damaged segment: %d records, err %v", n, err)
	}
	for name, pd := range map[string]*Pushdown{
		"full scan":     nil,
		"pruned to it":  {Fields: []string{"score"}},
		"pruned around": {Fields: []string{"ts", "score"}},
	} {
		_, _, err := drainScan(t, path, pd)
		var cbe *CorruptBlockError
		if !errors.As(err, &cbe) || !errors.Is(err, ErrCorruptBlock) || cbe.Block != block {
			t.Errorf("%s: err = %v; want a CorruptBlockError for block %d", name, err, block)
		}
	}
}

// TestWriterAbortNeverTouchesFinalPath: aborting a writer mid-stream (a
// losing or failed task attempt) removes the temp file and leaves any
// pre-existing file at the final path exactly as it was.
func TestWriterAbortNeverTouchesFinalPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.rec")
	if err := os.WriteFile(path, []byte("previous contents"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(path, testSchema, WriterOptions{BlockSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range makeRecords(50, 4) {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "previous contents" {
		t.Errorf("Abort modified the final path: %q", got)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 {
		t.Errorf("temp debris left after Abort: %v", left)
	}
}
