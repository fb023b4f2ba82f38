package mapreduce

import (
	"fmt"
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

// splitRows walks a split's selected rows in order, each with its key and
// its record materialized from the batch (valid only inside fn), and
// returns what the split's scan read.
func splitRows(t *testing.T, s Split, fn func(key serde.Datum, rec *serde.Record)) ScanStats {
	t.Helper()
	it, err := s.OpenBatch()
	if err != nil {
		t.Fatal(err)
	}
	var rows serde.Rows
	for it.Next() {
		b := it.Batch()
		rows.Reset(b)
		for row, ok := rows.Next(); ok; row, ok = rows.Next() {
			key, err := b.RowKey(row)
			if err != nil {
				t.Fatal(err)
			}
			fn(key, rows.Record())
		}
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	it.Close()
	return it.Stats()
}

// TestMemSplitBatches: a memory split longer than one batch is served in
// memBatchRows-record batches whose keys are the records' input positions.
func TestMemSplitBatches(t *testing.T) {
	const total = 2*memBatchRows + 100
	lines := make([]string, total)
	for i := range lines {
		lines[i] = fmt.Sprint(i)
	}
	in, err := NewMemInput(wordSchema, textRecords(lines...))
	if err != nil {
		t.Fatal(err)
	}
	splits, _, err := in.Splits(2)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for _, s := range splits {
		it, err := s.OpenBatch()
		if err != nil {
			t.Fatal(err)
		}
		for it.Next() {
			if n := it.Batch().Len(); n > memBatchRows {
				t.Fatalf("batch of %d rows; want at most %d", n, memBatchRows)
			}
		}
		splitRows(t, s, func(key serde.Datum, rec *serde.Record) {
			if key.Int() != want || rec.At(0).Str() != fmt.Sprint(want) {
				t.Fatalf("row %d: key %v, text %q", want, key, rec.At(0).Str())
			}
			want++
		})
	}
	if want != total {
		t.Fatalf("walked %d rows, want %d", want, total)
	}
}

// TestFileInputSplitsPruned: fully-pruned block ranges never become map
// task work, surviving splits cover exactly the matching records, the
// iteration keys equal whole-file record positions, and planning's skipped
// blocks plus the splits' scans account for every block once.
func TestFileInputSplitsPruned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.rec")
	writePruneFile(t, path, 4000)

	full, err := OpenFile(path, storage.DecodeTerms, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	fullSplits, _, err := full.Splits(8)
	if err != nil {
		t.Fatal(err)
	}

	in, err := OpenFile(path, storage.DecodeTerms, &storage.Pushdown{Filter: idRange(2000, 2040), Residual: true})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	splits, st, err := in.Splits(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) >= len(fullSplits) {
		t.Fatalf("pruned plan kept %d of %d splits; expected fewer", len(splits), len(fullSplits))
	}
	var keys []int64
	for _, s := range splits {
		sst := splitRows(t, s, func(k serde.Datum, rec *serde.Record) {
			if k.Int() != rec.Get("id").Int() {
				t.Fatalf("key %d != id %d (keys must be whole-file positions)", k.Int(), rec.Get("id").Int())
			}
			keys = append(keys, k.Int())
		})
		st.BlocksRead += sst.BlocksRead
		st.BlocksSkipped += sst.BlocksSkipped
	}
	if len(keys) != 40 {
		t.Fatalf("pruned scan yielded %d records, want 40", len(keys))
	}
	for i, k := range keys {
		if k != int64(2000+i) {
			t.Fatalf("key %d = %d, want %d", i, k, 2000+i)
		}
	}
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
	in, err := OpenFile(path, storage.DecodeTerms, &storage.Pushdown{Filter: idRange(1<<40, 1<<40+1), Residual: true})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	splits, st, err := in.Splits(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 0 {
		t.Fatalf("impossible predicate planned %d splits", len(splits))
	}
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
	in, err := OpenFile(path, storage.DecodeTerms, &storage.Pushdown{Filter: filter, Residual: true})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	splits, st, err := in.Splits(4)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, s := range splits {
		st.BlocksSkipped += splitRows(t, s, func(serde.Datum, *serde.Record) { n++ }).BlocksSkipped
	}
	if n != 1000 {
		t.Fatalf("unresolvable filter dropped records: %d of 1000", n)
	}
	if st.BlocksSkipped != 0 {
		t.Fatalf("unresolvable filter skipped blocks: %+v", st)
	}
}

// TestFileSplitOpenBatchAlwaysServes: every split of a file storage.Open
// accepts serves batches — OpenBatch has no "not in batch mode" (nil, nil)
// answer for the engine to fall through on — and the splits' batches
// cover exactly the file's rows the pushdown keeps, in order, each keyed
// by its whole-file position.
func TestFileSplitOpenBatchAlwaysServes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.rec")
	writePruneFile(t, path, 3000)
	for name, pd := range map[string]*storage.Pushdown{
		"plain":    nil,
		"pushdown": {Filter: idRange(1000, 1500), Residual: true, Fields: []string{"payload"}},
	} {
		in, err := OpenFile(path, storage.DecodeTerms, pd)
		if err != nil {
			t.Fatal(err)
		}
		defer in.Close()
		splits, _, err := in.Splits(4)
		if err != nil {
			t.Fatal(err)
		}
		if len(splits) < 2 {
			t.Fatalf("%s: %d split(s); want a multi-split plan", name, len(splits))
		}
		var keys []int64
		for i, s := range splits {
			bit, err := s.OpenBatch()
			if bit == nil || err != nil {
				t.Fatalf("%s split %d: OpenBatch = (%v, %v); want an iterator", name, i, bit, err)
			}
			bit.Close()
			splitRows(t, s, func(k serde.Datum, _ *serde.Record) { keys = append(keys, k.Int()) })
		}
		lo, hi := int64(0), int64(3000)
		if pd != nil {
			lo, hi = 1000, 1500
		}
		if int64(len(keys)) != hi-lo {
			t.Fatalf("%s: splits served %d rows, want %d", name, len(keys), hi-lo)
		}
		for i, k := range keys {
			if k != lo+int64(i) {
				t.Fatalf("%s: row %d keyed %d, want %d", name, i, k, lo+int64(i))
			}
		}
	}
}
