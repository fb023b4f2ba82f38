package storage

import (
	"path/filepath"
	"testing"
)

// TestScannerNextAllocs gates the zero-allocation row walk over a batch
// scan (serde.Rows, through rowScan, as the engine's row adapter, the
// B+Tree row cursor and ReadAll walk batches): after the first block load,
// advancing the reusable record through plain-encoded rows (including
// string fields) must not allocate.
func TestScannerNextAllocs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alloc.rec")
	recs := makeRecords(5000, 11)
	writeFile(t, path, recs, WriterOptions{})
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sc, err := scanRows(r, 0, r.NumBlocks(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Next() { // first Next loads (and sizes) the block buffer
		t.Fatal(sc.Err())
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if !sc.Next() {
			t.Fatalf("scan exhausted early: %v", sc.Err())
		}
	})
	if allocs > 0.05 {
		t.Fatalf("a row walk allocates %.3f objects per record; want ~0", allocs)
	}
}

// TestScannerRecordOwnership pins the buffer-ownership contract of rows
// materialized from a batch scan: the one record is reused (same pointer,
// new values) across rows and blocks, and Clone detaches a copy that
// survives further scanning.
func TestScannerRecordOwnership(t *testing.T) {
	path := filepath.Join(t.TempDir(), "own.rec")
	recs := makeRecords(100, 7)
	writeFile(t, path, recs, WriterOptions{BlockSize: 512}) // several blocks
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sc, err := scanRows(r, 0, r.NumBlocks(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Next() {
		t.Fatal(sc.Err())
	}
	first := sc.Record()
	clone := first.Clone()
	if !clone.Equal(recs[0]) {
		t.Fatalf("first record decoded as %v, want %v", clone, recs[0])
	}
	for i := 1; sc.Next(); i++ {
		if sc.Record() != first {
			t.Fatal("scanner did not reuse its record across Next")
		}
		if !sc.Record().Equal(recs[i]) {
			t.Fatalf("record %d decoded as %v, want %v", i, sc.Record(), recs[i])
		}
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	// The clone must still hold the first row even though the scanner's
	// block buffer has been overwritten several times since.
	if !clone.Equal(recs[0]) {
		t.Fatalf("clone mutated to %v after full scan; want %v", clone, recs[0])
	}
}
