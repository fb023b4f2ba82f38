package indexgen

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"manimal/internal/analyzer"
	"manimal/internal/btree"
	"manimal/internal/catalog"
	"manimal/internal/fabric"
	"manimal/internal/lang"
	"manimal/internal/mapreduce"
	"manimal/internal/serde"
	"manimal/internal/storage"
	"manimal/internal/workload"
)

func TestSynthesizePrimaryCombines(t *testing.T) {
	p, err := lang.Parse(`
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("rank") > ctx.ConfInt("t") {
		ctx.Emit(v.Str("url"), v.Int("rank"))
	}
}
`)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := analyzer.Analyze(p, workload.WebPagesSchema)
	if err != nil {
		t.Fatal(err)
	}
	specs := Synthesize(desc, workload.WebPagesSchema)
	if len(specs) != 2 {
		t.Fatalf("specs = %d, want btree + recordfile", len(specs))
	}
	// Primary: selection + projection combined ("as many optimizations as
	// possible"), with delta deliberately excluded (paper footnote 3).
	if specs[0].Kind != catalog.KindBTree || specs[0].KeyExpr != `v.Int("rank")` {
		t.Fatalf("primary = %+v", specs[0])
	}
	if len(specs[0].Fields) != 2 {
		t.Fatalf("primary fields = %v, want projected [url rank]", specs[0].Fields)
	}
	if len(specs[0].Encodings) != 0 {
		t.Fatal("selection index must not carry delta encodings")
	}
	// Alternative: projected record file with delta on the numeric field.
	if specs[1].Kind != catalog.KindRecordFile || specs[1].Encodings["rank"] != storage.EncodeDelta {
		t.Fatalf("alternative = %+v", specs[1])
	}
}

func TestSynthesizeNothingForUnoptimizable(t *testing.T) {
	p, err := lang.Parse(`
func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(k, v)
}
`)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := analyzer.Analyze(p, workload.DocumentsSchema)
	if err != nil {
		t.Fatal(err)
	}
	if specs := Synthesize(desc, workload.DocumentsSchema); len(specs) != 0 {
		t.Fatalf("specs = %+v, want none", specs)
	}
}

func TestSourceIsValidProgram(t *testing.T) {
	for _, spec := range []Spec{
		{Kind: catalog.KindBTree, KeyExpr: `strconv.Atoi(strings.Split(v.Str("t"), "|")[1])`},
		{Kind: catalog.KindRecordFile},
	} {
		if _, err := lang.Parse(spec.Source()); err != nil {
			t.Errorf("synthesized source invalid: %v\n%s", err, spec.Source())
		}
	}
}

func TestBuildBTreeSortedAndComplete(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(5).WriteWebPages(data, 3000, 64); err != nil {
		t.Fatal(err)
	}
	spec := Spec{Kind: catalog.KindBTree, KeyExpr: `v.Int("rank")`, Fields: []string{"url", "rank"}}
	// Default tuning: sharded on multi-core hosts, lone tree on one core;
	// OpenIndex serves either layout.
	entry, err := Build(spec, data, filepath.Join(dir, "w.idx"), dir)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := btree.OpenIndex(entry.IndexPath)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if idx.NumEntries() != 3000 {
		t.Fatalf("entries = %d", idx.NumEntries())
	}
	if idx.KeyExpr() != `v.Int("rank")` {
		t.Fatalf("key expr = %q", idx.KeyExpr())
	}
	it, err := idx.Scan(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	n := 0
	for it.Next() {
		d, err := it.KeyDatum()
		if err != nil {
			t.Fatal(err)
		}
		if d.Int() < prev {
			t.Fatal("tree keys out of order")
		}
		prev = d.Int()
		if it.Record().Schema().NumFields() != 2 {
			t.Fatal("projection not applied to stored records")
		}
		n++
	}
	if it.Err() != nil || n != 3000 {
		t.Fatalf("scan: %v (%d)", it.Err(), n)
	}
	if entry.BuildDuration <= 0 || entry.SizeBytes <= 0 {
		t.Error("entry metadata missing")
	}
}

// scanPairs collects the (key-datum sort key, record bytes) sequence of a
// full index scan, for byte-exact comparison across build configurations.
func scanPairs(t *testing.T, idx btree.Index) [][2][]byte {
	t.Helper()
	it, err := idx.Scan(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out [][2][]byte
	for it.Next() {
		d, err := it.KeyDatum()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, [2][]byte{d.AppendSortKey(nil), it.Record().AppendBinary(nil)})
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	return out
}

// TestShardedBuildMatchesSerial: a 4-reducer sharded build must yield the
// byte-identical (key, record) full-scan sequence of the 1-reducer build.
// The key is the unique url field, so the sequence is totally ordered and
// comparable across builds.
func TestShardedBuildMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(7).WriteWebPages(data, 4000, 64); err != nil {
		t.Fatal(err)
	}
	spec := Spec{Kind: catalog.KindBTree, KeyExpr: `v.Str("url")`, Fields: []string{"url", "rank"}}

	serial, err := BuildWith(context.Background(), mapreduce.DefaultScheduler(), spec, data, filepath.Join(dir, "serial.idx"), dir, BuildConfig{NumShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Kind != catalog.KindBTree {
		t.Fatalf("serial kind = %s", serial.Kind)
	}
	sharded, err := BuildWith(context.Background(), mapreduce.DefaultScheduler(), spec, data, filepath.Join(dir, "sharded.idx"), dir, BuildConfig{NumShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Kind != catalog.KindBTreeSharded || sharded.Shards < 2 {
		t.Fatalf("sharded entry = kind %s, %d shards", sharded.Kind, sharded.Shards)
	}

	si, err := btree.OpenIndex(serial.IndexPath)
	if err != nil {
		t.Fatal(err)
	}
	defer si.Close()
	pi, err := btree.OpenIndex(sharded.IndexPath)
	if err != nil {
		t.Fatal(err)
	}
	defer pi.Close()
	if _, ok := pi.(*btree.ShardSet); !ok {
		t.Fatalf("sharded index opened as %T", pi)
	}

	a, b := scanPairs(t, si), scanPairs(t, pi)
	if len(a) != len(b) || len(a) != 4000 {
		t.Fatalf("scan lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i][0], b[i][0]) || !bytes.Equal(a[i][1], b[i][1]) {
			t.Fatalf("entry %d differs between serial and sharded build", i)
		}
	}
}

// TestIndexedInputSplitsHonorTarget: a one-range selection must fan out
// across map tasks when asked for more than one split.
func TestIndexedInputSplitsHonorTarget(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(8).WriteWebPages(data, 8000, 64); err != nil {
		t.Fatal(err)
	}
	spec := Spec{Kind: catalog.KindBTree, KeyExpr: `v.Int("rank")`, Fields: []string{"url", "rank"}}
	entry, err := BuildWith(context.Background(), mapreduce.DefaultScheduler(), spec, data, filepath.Join(dir, "w.idx"), dir, BuildConfig{NumShards: 4})
	if err != nil {
		t.Fatal(err)
	}

	lo := btree.LowerBound(serde.Int(2000), true)
	in, err := mapreduce.OpenIndexed(entry.IndexPath, []mapreduce.ByteRange{{Lo: lo}})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	splits, err := in.Splits(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) < 2 {
		t.Fatalf("one-range selection produced %d split(s); want > 1", len(splits))
	}

	// The splits must partition the range: their concatenation equals a
	// single scan, with no loss, duplication, or reordering.
	var got []int64
	for _, s := range splits {
		it, err := s.Open()
		if err != nil {
			t.Fatal(err)
		}
		for it.Next() {
			got = append(got, it.Record().Int("rank"))
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
		it.Close()
	}
	idx, err := btree.OpenIndex(entry.IndexPath)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	it, err := idx.Scan(lo, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for it.Next() {
		want = append(want, it.Record().Int("rank"))
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if len(got) != len(want) {
		t.Fatalf("splits yielded %d records, single scan %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: split scan %d != single scan %d", i, got[i], want[i])
		}
	}
}

// TestParallelRecordFileBuildPreservesOrder: the per-task segment build
// must stitch back to exactly the serial build's record order (which
// delta-compression depends on).
func TestParallelRecordFileBuildPreservesOrder(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "uservisits.rec")
	if err := workload.NewGen(9).WriteUserVisits(data, 3000, 200); err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Kind:      catalog.KindRecordFile,
		Fields:    []string{"sourceIP", "adRevenue"},
		Encodings: map[string]storage.FieldEncoding{"adRevenue": storage.EncodeDelta},
	}
	serial, err := BuildWith(context.Background(), mapreduce.DefaultScheduler(), spec, data, filepath.Join(dir, "serial.rec"), dir, BuildConfig{MaxParallelTasks: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildWith(context.Background(), mapreduce.DefaultScheduler(), spec, data, filepath.Join(dir, "par.rec"), dir, BuildConfig{MaxParallelTasks: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := storage.ReadAll(serial.IndexPath)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := storage.ReadAll(par.IndexPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != 3000 {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("record %d differs between serial and parallel build", i)
		}
	}
	// Same records in the same order through the same writer: the stitched
	// files are byte-identical, not merely record-equal.
	sb, err := os.ReadFile(serial.IndexPath)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := os.ReadFile(par.IndexPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb, pb) {
		t.Fatal("serial and parallel builds wrote different bytes")
	}
	// The build's map job — this input opened the way BuildWith opens it,
	// the synthesized program, the interpreter mapper — scans batch-wise
	// and still accounts a full scan: every block read once, every record
	// mapped once.
	in, err := mapreduce.OpenFile(data, false)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	prog, err := lang.Parse(spec.Source())
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapreduce.DefaultScheduler().Run(context.Background(), &mapreduce.Job{
		Name:   "indexgen-map",
		Inputs: []mapreduce.MapInput{{Input: in, Mapper: fabric.MapperFactory(prog)}},
		Output: &mapreduce.DiscardOutput{},
	})
	if err != nil {
		t.Fatal(err)
	}
	blocks := int64(in.Reader().NumBlocks())
	if blocks < 2 {
		t.Fatalf("input has %d block(s); want a multi-block input", blocks)
	}
	if got := res.Counters.Get(mapreduce.CtrBlocksRead); got != blocks {
		t.Fatalf("build map job read %d blocks, input has %d", got, blocks)
	}
	if got := res.Counters.Get(mapreduce.CtrMapInputRecords); got != 3000 {
		t.Fatalf("build map job mapped %d records, want 3000", got)
	}
	// No stray segment files may survive the stitch.
	names, err := filepath.Glob(filepath.Join(dir, "*.seg*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("leftover segment files: %v", names)
	}
}
