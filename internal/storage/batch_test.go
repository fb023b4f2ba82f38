package storage

import (
	"path/filepath"
	"strings"
	"testing"

	"manimal/internal/compress"
	"manimal/internal/predicate"
	"manimal/internal/serde"
)

// rowScanCollect runs the row cursor (Scanner) on an already-open reader,
// returning cloned surviving records, their whole-file indexes, and the
// reader's counters afterwards.
func rowScanCollect(t *testing.T, r *Reader, pd *Pushdown) ([]*serde.Record, []int64, ScanStats) {
	t.Helper()
	sc, err := r.ScanPushdown(0, r.NumBlocks(), pd)
	if err != nil {
		t.Fatal(err)
	}
	var recs []*serde.Record
	var idx []int64
	for sc.Next() {
		recs = append(recs, sc.Record().Clone())
		idx = append(idx, sc.RecordIndex())
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	return recs, idx, r.ScanStats()
}

// batchScanCollect runs a batch scan on an already-open reader,
// materializing every selected row through one reused record (late
// materialization, as the engine does), and returns the same triple as
// rowScanCollect so the two compare field for field.
func batchScanCollect(t *testing.T, r *Reader, pd *Pushdown) ([]*serde.Record, []int64, ScanStats) {
	t.Helper()
	sc, err := r.ScanBatch(0, r.NumBlocks(), pd)
	if err != nil {
		t.Fatal(err)
	}
	rec := serde.NewRecord(r.Schema())
	var recs []*serde.Record
	var idx []int64
	for sc.Next() {
		b := sc.Batch()
		for _, row := range b.Sel() {
			b.MaterializeInto(rec, int(row))
			recs = append(recs, rec.Clone())
			idx = append(idx, b.Base()+int64(row))
		}
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	return recs, idx, r.ScanStats()
}

// oracleScan computes what a whole-file scan under pd must yield, from the
// records that were handed to the Writer and never from a block payload:
// the rows of every block the footer stats cannot rule out (the planner's
// SkippableBlocks), minus residual-rejected rows (oracleFilter's
// MatchesRecord), with masked fields zeroed — plus the counters those
// decisions imply. That no matching row hides in a skipped block is the
// caller's check (the residual result must equal oracleFilter over ALL
// records).
func oracleScan(r *Reader, recs []*serde.Record, pd *Pushdown) ([]*serde.Record, []int64, ScanStats) {
	skip := make([]bool, r.NumBlocks())
	var decode map[string]bool
	if pd != nil {
		if pd.Filter != nil {
			skip, _ = r.SkippableBlocks(pd.Filter)
		}
		if pd.Fields != nil {
			decode = make(map[string]bool)
			for _, f := range pd.Fields {
				decode[f] = true
			}
			if pd.Residual {
				for _, c := range pd.Filter {
					for _, fi := range c {
						decode[fi.Field] = true
					}
				}
			}
		}
	}
	var (
		want []*serde.Record
		idx  []int64
		st   ScanStats
	)
	next := 0
	for b := 0; b < r.NumBlocks(); b++ {
		n := int(r.RecordsInBlocks(b, b+1))
		lo := next
		next += n
		if skip[b] {
			st.BlocksSkipped++
			continue
		}
		st.BlocksRead++
		for i := lo; i < lo+n; i++ {
			if pd != nil && pd.Residual && !pd.Filter.MatchesRecord(recs[i]) {
				st.RowsFiltered++
				continue
			}
			rec := recs[i].Clone()
			for f := 0; decode != nil && f < rec.Schema().NumFields(); f++ {
				if fd := rec.Schema().Field(f); !decode[fd.Name] {
					*rec.Slot(f) = serde.ZeroOf(fd.Kind)
				}
			}
			want = append(want, rec)
			idx = append(idx, int64(i))
		}
	}
	return want, idx, st
}

// scanCollectors are the two ways to consume the scan pipeline; every
// differential runs both.
var scanCollectors = map[string]func(*testing.T, *Reader, *Pushdown) ([]*serde.Record, []int64, ScanStats){
	"batch": batchScanCollect, "cursor": rowScanCollect,
}

func requireSameIndexes(t *testing.T, want, got []int64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("index count %d != %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("row %d: index %d, want %d", i, got[i], want[i])
		}
	}
}

// TestBatchRowScanDifferential is the scan pipeline's equivalence gate:
// across every encoding combination and pushdown shape, the batch scanner
// and the row cursor on top of it each yield exactly the records, indexes,
// AND pruning counters oracleScan derives from the written records.
func TestBatchRowScanDifferential(t *testing.T) {
	recs := makeRecords(4000, 31)
	encodings := map[string]WriterOptions{
		"plain": {BlockSize: 2 << 10},
		"delta": {BlockSize: 2 << 10, Encodings: map[string]FieldEncoding{
			"ts": EncodeDelta, "score": EncodeDelta}},
		"dict": {BlockSize: 2 << 10, Encodings: map[string]FieldEncoding{"url": EncodeDict}},
		"mixed": {BlockSize: 2 << 10, Encodings: map[string]FieldEncoding{
			"ts": EncodeDelta, "url": EncodeDict}},
	}
	minTS := recs[0].Get("ts").Int()
	maxTS := recs[len(recs)-1].Get("ts").Int() // ts is non-decreasing
	midFilter := tsFilter(serde.Int((minTS+maxTS)/2), serde.Int((minTS+maxTS)/2+(maxTS-minTS)/20))
	pushdowns := map[string]*Pushdown{
		"nil":      nil,
		"filter":   {Filter: midFilter},
		"residual": {Filter: midFilter, Residual: true},
		"fields":   {Fields: []string{"ts"}},
		"combined": {Filter: midFilter, Residual: true, Fields: []string{"url"}},
	}
	for encName, opts := range encodings {
		path := filepath.Join(t.TempDir(), encName+".rec")
		writeFile(t, path, recs, opts)
		for pdName, pd := range pushdowns {
			t.Run(encName+"/"+pdName, func(t *testing.T) {
				for name, collect := range scanCollectors {
					r, err := Open(path)
					if err != nil {
						t.Fatal(err)
					}
					defer r.Close()
					want, wantIdx, wantStats := oracleScan(r, recs, pd)
					got, gotIdx, gotStats := collect(t, r, pd)
					requireEqual(t, want, got)
					requireSameIndexes(t, wantIdx, gotIdx)
					if gotStats != wantStats {
						t.Fatalf("%s counters %+v, want %+v", name, gotStats, wantStats)
					}
					if pd != nil && pd.Residual {
						if all := oracleFilter(recs, pd.Filter); len(all) != len(got) {
							t.Fatalf("%s: %d survivors, %d records match: a skipped block held a match",
								name, len(got), len(all))
						}
						if gotStats.BlocksSkipped == 0 {
							t.Fatalf("%s: 5%% range skipped no blocks: %+v", name, gotStats)
						}
					}
				}
			})
		}
	}
}

// TestBatchScanSkipsBoundaryStraddlingBlocks: a range whose endpoints land
// mid-block must skip the blocks wholly outside it, read every straddling
// block, and still match the oracle row for row — with the row cursor's
// counters agreeing.
func TestBatchScanSkipsBoundaryStraddlingBlocks(t *testing.T) {
	recs := makeRecords(4000, 32)
	path := filepath.Join(t.TempDir(), "straddle.rec")
	writeFile(t, path, recs, WriterOptions{BlockSize: 2 << 10})
	minTS := recs[0].Get("ts").Int()
	maxTS := recs[len(recs)-1].Get("ts").Int()
	// Endpoints offset by +7 from the file minimum so they straddle block
	// boundaries rather than aligning with them.
	filter := tsFilter(serde.Int(minTS+7), serde.Int(minTS+7+(maxTS-minTS)/3))
	pd := &Pushdown{Filter: filter, Residual: true}

	br, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	got, gotIdx, st := batchScanCollect(t, br, pd)
	want := oracleFilter(recs, filter)
	requireEqual(t, want, got)
	for i, idx := range gotIdx {
		if !recs[idx].Equal(got[i]) {
			t.Fatalf("index %d does not address its own record", idx)
		}
	}
	if st.BlocksSkipped == 0 {
		t.Fatalf("1/3-selectivity range skipped no blocks: %+v", st)
	}
	if st.BlocksRead+st.BlocksSkipped != int64(br.NumBlocks()) {
		t.Fatalf("block accounting off: %+v over %d blocks", st, br.NumBlocks())
	}
	if st.RowsFiltered == 0 {
		t.Fatal("straddling blocks should have residual-dropped rows")
	}

	rr, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	_, _, rowStats := rowScanCollect(t, rr, pd)
	if rowStats != st {
		t.Fatalf("counters diverge: batch %+v != row %+v", st, rowStats)
	}
}

// TestBatchScanDirectCodes: under DirectCodes a dict field decodes to the
// injective code string of its dictionary code (batch and row cursor
// alike), and the residual filter ignores dict-field bounds.
func TestBatchScanDirectCodes(t *testing.T) {
	schema := serde.MustSchema(
		serde.Field{Name: "s", Kind: serde.KindString},
		serde.Field{Name: "n", Kind: serde.KindInt64},
	)
	var recs []*serde.Record
	for c := byte('a'); c <= 'z'; c++ {
		r := serde.NewRecord(schema)
		r.MustSet("s", serde.String(strings.Repeat(string(c), 2)))
		r.MustSet("n", serde.Int(int64(c)))
		recs = append(recs, r)
	}
	path := filepath.Join(t.TempDir(), "dc.rec")
	w, err := NewWriter(path, schema, WriterOptions{
		BlockSize: 8, Encodings: map[string]FieldEncoding{"s": EncodeDict}})
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

	filter := predicate.ZoneFilter{{predicate.FieldInterval{Field: "s",
		Iv: predicate.PointInterval(serde.String("mm"))}}}
	pd := &Pushdown{Filter: filter, Residual: true}
	for name, collect := range scanCollectors {
		r, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		r.DirectCodes = true
		got, idx, st := collect(t, r, pd)
		if len(got) == 0 {
			t.Fatalf("%s: residual filter dropped all rows under DirectCodes", name)
		}
		for i, g := range got {
			src := recs[idx[i]]
			code, ok := r.Dictionary("s").Lookup(src.Get("s").Str())
			if !ok || g.Get("s").Str() != compress.CodeString(code) || g.Get("n").Int() != src.Get("n").Int() {
				t.Fatalf("%s: row %d decoded as %s, want code string of %s", name, idx[i], g, src)
			}
		}
		if st.BlocksSkipped == 0 || st.RowsFiltered != 0 {
			t.Fatalf("%s: want logical block skipping and no residual drops on code strings: %+v", name, st)
		}
	}
}

// TestBatchScanRangeValidation: block-range checks, and disjoint ranges
// covering the file exactly once.
func TestBatchScanRangeValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rng.rec")
	writeFile(t, path, makeRecords(500, 34), WriterOptions{BlockSize: 1 << 10})
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.ScanBatch(-1, 1, nil); err == nil {
		t.Error("negative block range accepted")
	}
	if _, err := r.ScanBatch(0, r.NumBlocks()+1, nil); err == nil {
		t.Error("out-of-range block accepted")
	}
	// Disjoint halves cover everything exactly once.
	mid := r.NumBlocks() / 2
	total := 0
	rec := serde.NewRecord(r.Schema())
	for _, rng := range [][2]int{{0, mid}, {mid, r.NumBlocks()}} {
		sc, err := r.ScanBatch(rng[0], rng[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		for sc.Next() {
			b := sc.Batch()
			for _, row := range b.Sel() {
				if b.Base()+int64(row) != int64(total) {
					t.Fatalf("row %d has index %d", total, b.Base()+int64(row))
				}
				b.MaterializeInto(rec, int(row))
				total++
			}
		}
		if sc.Err() != nil {
			t.Fatal(sc.Err())
		}
	}
	if total != 500 {
		t.Fatalf("split batch scan covered %d records", total)
	}
}

// TestBatchScanAllocs gates the zero-allocation batch path: after the
// first block sizes the scanner's buffers, decoding and filtering further
// blocks — string fields included — must not allocate per row.
func TestBatchScanAllocs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "balloc.rec")
	recs := makeRecords(20000, 35)
	writeFile(t, path, recs, WriterOptions{BlockSize: 2 << 10})
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	minTS := recs[0].Get("ts").Int()
	maxTS := recs[len(recs)-1].Get("ts").Int()
	// Half-selectivity residual so the filter kernels run on every block.
	pd := &Pushdown{Filter: tsFilter(serde.Int((minTS+maxTS)/2), serde.Datum{}), Residual: true}
	sc, err := r.ScanBatch(0, r.NumBlocks(), pd)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Next() { // first Next sizes the vectors, masks, and block buffer
		t.Fatal(sc.Err())
	}
	rows := 0
	blocks := 40
	allocs := testing.AllocsPerRun(blocks, func() {
		if !sc.Next() {
			t.Fatalf("scan exhausted early: %v", sc.Err())
		}
		rows += len(sc.Batch().Sel())
	})
	perRow := allocs * float64(blocks+1) / float64(rows)
	if perRow > 0.05 {
		t.Fatalf("batch scan allocates %.4f objects per row (%.2f per block); want ~0", perRow, allocs)
	}
}
