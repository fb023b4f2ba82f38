package mapreduce

import (
	"path/filepath"
	"testing"

	"manimal/internal/predicate"
	"manimal/internal/serde"
	"manimal/internal/storage"
)

var pruneSchema = serde.MustSchema(
	serde.Field{Name: "id", Kind: serde.KindInt64},
	serde.Field{Name: "payload", Kind: serde.KindString},
)

func writePruneFile(t *testing.T, path string, n int) {
	t.Helper()
	w, err := storage.NewWriter(path, pruneSchema, storage.WriterOptions{BlockSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r := serde.NewRecord(pruneSchema)
		r.MustSet("id", serde.Int(int64(i)))
		r.MustSet("payload", serde.String("payload-payload-payload"))
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func idRange(lo, hi int64) predicate.ZoneFilter {
	return predicate.ZoneFilter{{predicate.FieldInterval{Field: "id",
		Iv: predicate.Interval{Lo: serde.Int(lo), LoInc: true, Hi: serde.Int(hi)}}}}
}

// TestFileInputSplitsPruned: fully-pruned block ranges never become map
// task work, surviving splits cover exactly the matching records, and the
// iteration keys equal whole-file record positions.
func TestFileInputSplitsPruned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.rec")
	writePruneFile(t, path, 4000)

	full, err := OpenFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	fullSplits, err := full.Splits(8)
	if err != nil {
		t.Fatal(err)
	}

	in, err := OpenFileWith(path, false, &storage.Pushdown{Filter: idRange(2000, 2040), Residual: true})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	splits, err := in.Splits(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) >= len(fullSplits) {
		t.Fatalf("pruned plan kept %d of %d splits; expected fewer", len(splits), len(fullSplits))
	}
	var keys []int64
	for _, s := range splits {
		it, err := s.Open()
		if err != nil {
			t.Fatal(err)
		}
		for it.Next() {
			k := it.Key()
			if k.Int() != it.Record().Get("id").Int() {
				t.Fatalf("key %d != id %d (keys must be whole-file positions)", k.Int(), it.Record().Get("id").Int())
			}
			keys = append(keys, k.Int())
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
		it.Close()
	}
	if len(keys) != 40 {
		t.Fatalf("pruned scan yielded %d records, want 40", len(keys))
	}
	for i, k := range keys {
		if k != int64(2000+i) {
			t.Fatalf("key %d = %d, want %d", i, k, 2000+i)
		}
	}
	st := in.ScanStats()
	if st.BlocksSkipped == 0 {
		t.Fatalf("scan stats = %+v; expected skipped blocks", st)
	}
	if st.BlocksRead+st.BlocksSkipped != int64(full.Reader().NumBlocks()) {
		t.Fatalf("blocks read %d + skipped %d != %d", st.BlocksRead, st.BlocksSkipped, full.Reader().NumBlocks())
	}
}

// TestFileInputSplitsAllPruned: an impossible predicate plans zero map
// tasks and accounts the whole file as skipped.
func TestFileInputSplitsAllPruned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.rec")
	writePruneFile(t, path, 2000)
	in, err := OpenFileWith(path, false, &storage.Pushdown{Filter: idRange(1<<40, 1<<40+1), Residual: true})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	splits, err := in.Splits(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 0 {
		t.Fatalf("impossible predicate planned %d splits", len(splits))
	}
	st := in.ScanStats()
	if st.BlocksSkipped != int64(in.Reader().NumBlocks()) || st.BlocksRead != 0 {
		t.Fatalf("scan stats = %+v", st)
	}
}

// TestFileInputSplitsUnresolvableFilter: the planner path tolerates a
// filter the stats cannot serve — one over a field the schema lacks: no
// error, no block pruning, no rows dropped.
func TestFileInputSplitsUnresolvableFilter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.rec")
	writePruneFile(t, path, 1000)
	filter := predicate.ZoneFilter{{predicate.FieldInterval{Field: "absent",
		Iv: predicate.Interval{Lo: serde.Int(5), LoInc: true}}}}
	in, err := OpenFileWith(path, false, &storage.Pushdown{Filter: filter, Residual: true})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	splits, err := in.Splits(4)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, s := range splits {
		it, err := s.Open()
		if err != nil {
			t.Fatal(err)
		}
		for it.Next() {
			n++
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
		it.Close()
	}
	if n != 1000 {
		t.Fatalf("unresolvable filter dropped records: %d of 1000", n)
	}
	if st := in.ScanStats(); st.BlocksSkipped != 0 {
		t.Fatalf("unresolvable filter skipped blocks: %+v", st)
	}
}

// TestFileSplitOpenBatchAlwaysServes: every split of a file storage.Open
// accepts serves batches — OpenBatch has no "not in batch mode" (nil, nil)
// answer for the engine to fall through on — and batch iteration covers
// exactly the rows Open's row cursor does, pushdown or not.
func TestFileSplitOpenBatchAlwaysServes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.rec")
	writePruneFile(t, path, 3000)
	for name, pd := range map[string]*storage.Pushdown{
		"plain":    nil,
		"pushdown": {Filter: idRange(1000, 1500), Residual: true, Fields: []string{"payload"}},
	} {
		in, err := OpenFileWith(path, false, pd)
		if err != nil {
			t.Fatal(err)
		}
		defer in.Close()
		splits, err := in.Splits(4)
		if err != nil {
			t.Fatal(err)
		}
		if len(splits) < 2 {
			t.Fatalf("%s: %d split(s); want a multi-split plan", name, len(splits))
		}
		for i, s := range splits {
			bit, err := s.(BatchSplit).OpenBatch()
			if bit == nil || err != nil {
				t.Fatalf("%s split %d: OpenBatch = (%v, %v); want an iterator", name, i, bit, err)
			}
			it, err := s.Open()
			if err != nil {
				t.Fatal(err)
			}
			for bit.NextBatch() {
				b := bit.Batch()
				for _, row := range b.Sel() {
					if !it.Next() || it.Key().Int() != b.Base()+int64(row) {
						t.Fatalf("%s split %d: row cursor and batch disagree at key %d", name, i, b.Base()+int64(row))
					}
				}
			}
			if it.Next() || bit.Err() != nil || it.Err() != nil {
				t.Fatalf("%s split %d: row cursor outlasted the batches (errs %v, %v)", name, i, bit.Err(), it.Err())
			}
			bit.Close()
			it.Close()
		}
	}
}
