package indexgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"manimal/internal/analyzer"
	"manimal/internal/btree"
	"manimal/internal/catalog"
	"manimal/internal/durable"
	"manimal/internal/fabric"
	"manimal/internal/faultinject"
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
	entry, err := BuildWith(context.Background(), mapreduce.DefaultScheduler(), spec, data, filepath.Join(dir, "w.idx"), dir, BuildConfig{})
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

// TestShardedBuildDuplicateKeysReproducible: a sharded B+Tree build over a
// key with heavy duplicates writes the same shard bytes every time, however
// its map tasks' commits interleave, because one key's records reach their
// reducer in input order. The second build runs with stragglers among its
// map tasks.
func TestShardedBuildDuplicateKeysReproducible(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(5).WriteWebPages(data, 4000, 64); err != nil {
		t.Fatal(err)
	}
	spec := Spec{Kind: catalog.KindBTree, KeyExpr: `v.Int("rank") % 16`, Fields: []string{"url", "rank"}}
	build := func(name string) [][]byte {
		t.Helper()
		e, err := BuildWith(context.Background(), mapreduce.DefaultScheduler(), spec, data, filepath.Join(dir, name), dir,
			BuildConfig{NumShards: 4, MaxParallelTasks: 4})
		if err != nil {
			t.Fatal(err)
		}
		if e.Kind != catalog.KindBTreeSharded {
			t.Fatalf("%s: kind %s, want sharded", name, e.Kind)
		}
		var shards [][]byte
		for i := 0; i < e.Shards; i++ {
			b, err := os.ReadFile(fmt.Sprintf("%s.shard%03d", e.IndexPath, i))
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, b)
		}
		return shards
	}
	a := build("a.idx")
	faultinject.Set(faultinject.MustParse("straggle=0.5:5ms@map;seed=3"))
	b := build("b.idx")
	faultinject.Reset()
	if len(a) != len(b) {
		t.Fatalf("%d shards, then %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("shard %d differs between two builds of the same input", i)
		}
	}
}

// TestSampleKeyBoundsDeterministic: the shard cut keys of a sharded build
// depend on the input alone. Sampling the same file twice gives byte-equal
// bounds, strictly increasing and at most shards-1 of them — also when
// heavy duplicates collapse quantiles — and a build at 1 or at 4 task
// slots writes exactly those bounds into its manifest.
func TestSampleKeyBoundsDeterministic(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(9).WriteWebPages(data, 4000, 64); err != nil {
		t.Fatal(err)
	}
	const shards = 8
	for i, keyExpr := range []string{`v.Str("url")`, `v.Int("rank") % 3`} {
		spec := Spec{Kind: catalog.KindBTree, KeyExpr: keyExpr, Fields: []string{"url", "rank"}}
		prog, err := lang.Parse(spec.Source())
		if err != nil {
			t.Fatal(err)
		}
		sample := func() [][]byte {
			t.Helper()
			in, err := mapreduce.OpenFile(data, storage.DecodeTerms, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer in.Close()
			bounds, err := sampleKeyBounds(context.Background(), in, nil, prog, shards, BuildConfig{}.sampleSize())
			if err != nil {
				t.Fatal(err)
			}
			return bounds
		}
		want := sample()
		if len(want) == 0 || len(want) > shards-1 {
			t.Fatalf("%s: %d bounds for %d shards", keyExpr, len(want), shards)
		}
		for j := 1; j < len(want); j++ {
			if bytes.Compare(want[j-1], want[j]) >= 0 {
				t.Fatalf("%s: bound %d (%x) does not follow bound %d (%x)", keyExpr, j, want[j], j-1, want[j-1])
			}
		}
		if again := sample(); !slices.EqualFunc(again, want, bytes.Equal) {
			t.Fatalf("%s: a second sample gave %x, the first %x", keyExpr, again, want)
		}
		for _, slots := range []int{1, 4} {
			e, err := BuildWith(context.Background(), mapreduce.DefaultScheduler(), spec, data,
				filepath.Join(dir, fmt.Sprintf("k%d-slots%d.idx", i, slots)), dir, BuildConfig{NumShards: shards, MaxParallelTasks: slots})
			if err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(e.IndexPath)
			if err != nil {
				t.Fatal(err)
			}
			var manifest struct{ Bounds [][]byte }
			if err := json.Unmarshal(raw, &manifest); err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(manifest.Bounds, want, bytes.Equal) {
				t.Fatalf("%s at %d slots: manifest bounds %x, sampled %x", keyExpr, slots, manifest.Bounds, want)
			}
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
	splits, _, err := in.Splits(8)
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
		it, err := s.OpenBatch()
		if err != nil {
			t.Fatal(err)
		}
		for it.Next() {
			b := it.Batch()
			rank := b.Col(b.Schema().IndexOf("rank")).Ints()
			for _, row := range b.Sel() {
				got = append(got, rank[row])
			}
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

// TestParallelRecordFileBuildPreservesOrder: the per-task part build must
// concatenate back to exactly the serial build's record order (which
// delta-compression depends on) and dictionary. Block boundaries follow
// task boundaries, so builds with different task counts are record- and
// dictionary-equal, not byte-equal; two builds with the same BuildConfig
// are byte-identical. That is the record-file half of ROADMAP item 4(d):
// a record-file build is a pure function of its input and configuration.
func TestParallelRecordFileBuildPreservesOrder(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "uservisits.rec")
	if err := workload.NewGen(9).WriteUserVisits(data, 3000, 200); err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Kind:   catalog.KindRecordFile,
		Fields: []string{"sourceIP", "adRevenue"},
		Encodings: map[string]storage.FieldEncoding{
			"sourceIP": storage.EncodeDict, "adRevenue": storage.EncodeDelta,
		},
	}
	build := func(name string, cfg BuildConfig) catalog.Entry {
		t.Helper()
		e, err := BuildWith(context.Background(), mapreduce.DefaultScheduler(), spec, data, filepath.Join(dir, name), dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	serial := build("serial.rec", BuildConfig{MaxParallelTasks: 1})
	par := build("par.rec", BuildConfig{MaxParallelTasks: 8})
	again := build("again.rec", BuildConfig{MaxParallelTasks: 8})
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
	if sd, pd := dictTerms(t, serial.IndexPath, "sourceIP"), dictTerms(t, par.IndexPath, "sourceIP"); !slices.Equal(sd, pd) {
		t.Fatalf("serial and parallel builds wrote different dictionaries (%d vs %d terms)", len(sd), len(pd))
	}
	pb, err := os.ReadFile(par.IndexPath)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := os.ReadFile(again.IndexPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb, ab) {
		t.Fatal("two builds with the same BuildConfig wrote different bytes")
	}
	// The build's map job — this input opened the way BuildWith opens it,
	// the synthesized program, the interpreter mapper — scans batch-wise
	// and still accounts a full scan: every block read once, every record
	// mapped once.
	in, _, err := openInput(data, spec)
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
	// No stray part files may survive the concat.
	names, err := filepath.Glob(filepath.Join(dir, "*.seg*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("leftover segment files: %v", names)
	}
}

// dictTerms returns the terms of a record file's dictionary for field, in
// code order.
func dictTerms(t *testing.T, path, field string) []string {
	t.Helper()
	r, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	d := r.Dictionary(field)
	if d == nil {
		t.Fatalf("%s: no dictionary for %s", path, field)
	}
	terms := make([]string, d.Len())
	for c := range terms {
		terms[c], _ = d.Decode(uint64(c))
	}
	return terms
}

// requireNoLeftovers fails if a part file or an uncommitted temp file is
// left in dir.
func requireNoLeftovers(t *testing.T, dir string) {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if _, temp := durable.IsTemp(de.Name()); temp || strings.Contains(de.Name(), ".seg") {
			t.Errorf("leftover file %s", de.Name())
		}
	}
}

// TestFieldPrunedBuildReadsOnlyStoredAndKeyFields: a B+Tree on rank
// storing only rank reads exactly the rank segments of the input — once
// for the map scan and, when sharded, once more for the key sample over
// an input of at most sampleMaxBlocks blocks — and never content or url.
func TestFieldPrunedBuildReadsOnlyStoredAndKeyFields(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(10).WriteWebPages(data, 6000, 256); err != nil {
		t.Fatal(err)
	}
	spec := Spec{Kind: catalog.KindBTree, KeyExpr: `v.Int("rank")`, Fields: []string{"rank"}}
	if got := decodeFields(spec, workload.WebPagesSchema); !slices.Equal(got, []string{"rank"}) {
		t.Fatalf("decode set = %v, want [rank]", got)
	}

	// The bytes of every rank segment, as a masked scan of the input reads them.
	r, err := storage.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := r.ScanBatch(0, r.NumBlocks(), &storage.Pushdown{Fields: []string{"rank"}})
	if err != nil {
		t.Fatal(err)
	}
	for sc.Next() {
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	rankBytes, blocks := r.BytesRead(), r.NumBlocks()
	r.Close()
	if blocks < 2 || blocks > sampleMaxBlocks {
		t.Fatalf("input has %d blocks; the test needs 2..%d", blocks, sampleMaxBlocks)
	}

	for _, c := range []struct {
		shards int
		want   int64
	}{{1, rankBytes}, {4, 2 * rankBytes}} {
		in, pd, err := openInput(data, spec)
		if err != nil {
			t.Fatal(err)
		}
		var e catalog.Entry
		idx := filepath.Join(dir, fmt.Sprintf("rank%d.idx", c.shards))
		_, err = build(context.Background(), mapreduce.DefaultScheduler(), &e, spec, in, pd, idx, dir, BuildConfig{NumShards: c.shards})
		got := in.Reader().BytesRead()
		in.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%d-shard build read %d bytes, want %d (the rank segments only)", c.shards, got, c.want)
		}
	}
}

// TestMaskedBuildStoresSameRecords: a field-pruned build stores exactly
// the records an unmasked build of the same spec stores, for a B+Tree and
// for a projected record file.
func TestMaskedBuildStoresSameRecords(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(11).WriteWebPages(data, 3000, 128); err != nil {
		t.Fatal(err)
	}
	buildBoth := func(spec Spec, name string) (masked, full string) {
		t.Helper()
		in, pd, err := openInput(data, spec)
		if err != nil {
			t.Fatal(err)
		}
		defer in.Close()
		if pd == nil {
			t.Fatalf("%s: no mask for %s", name, spec.Describe())
		}
		plain, err := mapreduce.OpenFile(data, storage.DecodeTerms, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer plain.Close()
		masked, full = filepath.Join(dir, name+".masked"), filepath.Join(dir, name+".full")
		cfg := BuildConfig{NumShards: 1}
		var e catalog.Entry
		if _, err := build(context.Background(), mapreduce.DefaultScheduler(), &e, spec, in, pd, masked, dir, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := build(context.Background(), mapreduce.DefaultScheduler(), &e, spec, plain, nil, full, dir, cfg); err != nil {
			t.Fatal(err)
		}
		return masked, full
	}

	masked, full := buildBoth(Spec{Kind: catalog.KindBTree, KeyExpr: `v.Str("url")`, Fields: []string{"rank"}}, "tree")
	mi, err := btree.OpenIndex(masked)
	if err != nil {
		t.Fatal(err)
	}
	defer mi.Close()
	fi, err := btree.OpenIndex(full)
	if err != nil {
		t.Fatal(err)
	}
	defer fi.Close()
	a, b := scanPairs(t, mi), scanPairs(t, fi)
	if len(a) != len(b) || len(a) != 3000 {
		t.Fatalf("entries: masked %d, unmasked %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i][0], b[i][0]) || !bytes.Equal(a[i][1], b[i][1]) {
			t.Fatalf("entry %d differs between masked and unmasked builds", i)
		}
	}

	masked, full = buildBoth(Spec{Kind: catalog.KindRecordFile, Fields: []string{"url", "rank"}}, "proj")
	mb, err := os.ReadFile(masked)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mb, fb) {
		t.Fatal("masked and unmasked record-file builds wrote different bytes")
	}
}

// cancelOnParts is a context that reports itself canceled once a committed
// part file exists beside index: the build's map job has then written its
// parts, and the concat's per-block poll is what sees the cancellation.
type cancelOnParts struct {
	context.Context
	index string
	once  sync.Once
	done  chan struct{}
}

func (c *cancelOnParts) Done() <-chan struct{} { return c.done }

func (c *cancelOnParts) Err() error {
	if names, _ := filepath.Glob(c.index + ".seg*"); len(names) == 0 {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.Canceled
}

// TestCanceledRecordFileBuildLeavesNothing: a record-file build canceled
// after its parts are written leaves neither an index nor part files.
func TestCanceledRecordFileBuildLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "uservisits.rec")
	if err := workload.NewGen(12).WriteUserVisits(data, 3000, 200); err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Kind:      catalog.KindRecordFile,
		Fields:    workload.UserVisitsSchema.FieldNames(),
		Encodings: map[string]storage.FieldEncoding{"destURL": storage.EncodeDict},
	}
	out := filepath.Join(dir, "uv.dict")
	ctx := &cancelOnParts{Context: context.Background(), index: out, done: make(chan struct{})}
	if _, err := BuildWith(ctx, mapreduce.DefaultScheduler(), spec, data, out, dir, BuildConfig{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want context.Canceled", err)
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("canceled build left an index at %s (stat: %v)", out, err)
	}
	requireNoLeftovers(t, dir)
}
