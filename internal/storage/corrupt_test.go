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
	sc, err := r.ScanAll()
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
	for i := range spans {
		spans[i] = span{r.blocks[i].offset, r.blocks[i].length}
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
		sc, err := rr.Scan(i, i+1)
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
