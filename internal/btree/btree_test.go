package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"manimal/internal/serde"
)

var kvSchema = serde.MustSchema(
	serde.Field{Name: "id", Kind: serde.KindInt64},
	serde.Field{Name: "payload", Kind: serde.KindString},
)

// buildTree bulk-loads n entries with key = i/dups (so each key value
// repeats dups times) and returns the opened tree.
func buildTree(t *testing.T, n, dups, pageSize int) *Tree {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.idx")
	b, err := NewBuilder(path, kvSchema, `v.Int("id")`, BuilderOptions{PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rec := serde.NewRecord(kvSchema)
		rec.MustSet("id", serde.Int(int64(i)))
		rec.MustSet("payload", serde.String(fmt.Sprintf("row-%06d", i)))
		if err := b.Add(serde.Int(int64(i/dups)), rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	tree, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tree.Close() })
	return tree
}

// collect scans a range and returns the id fields seen.
func collect(t *testing.T, tree *Tree, lo, hi []byte) []int64 {
	t.Helper()
	before := tree.BytesRead()
	it, err := tree.Scan(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	var out []int64
	for it.Next() {
		out = append(out, it.Record().Int("id"))
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if read := tree.BytesRead() - before; it.BytesRead() != read {
		t.Fatalf("iterator counted %d page bytes, the tree read %d", it.BytesRead(), read)
	}
	return out
}

func TestFullScan(t *testing.T) {
	tree := buildTree(t, 1000, 1, 512)
	got := collect(t, tree, nil, nil)
	if len(got) != 1000 {
		t.Fatalf("full scan returned %d entries, want 1000", len(got))
	}
	for i, id := range got {
		if id != int64(i) {
			t.Fatalf("entry %d has id %d", i, id)
		}
	}
	if tree.NumEntries() != 1000 {
		t.Errorf("NumEntries = %d", tree.NumEntries())
	}
	if tree.Height() < 2 {
		t.Errorf("height = %d; small pages should force internal levels", tree.Height())
	}
}

func TestRangeScan(t *testing.T) {
	tree := buildTree(t, 1000, 1, 512)
	for _, tc := range []struct {
		loVal, hiVal int64
		loInc, hiInc bool
		wantLo       int64
		wantN        int
	}{
		{loVal: 100, loInc: true, hiVal: 200, hiInc: false, wantLo: 100, wantN: 100},
		{loVal: 100, loInc: false, hiVal: 200, hiInc: true, wantLo: 101, wantN: 100},
		{loVal: 0, loInc: true, hiVal: 0, hiInc: true, wantLo: 0, wantN: 1},
		{loVal: 999, loInc: true, hiVal: 2000, hiInc: true, wantLo: 999, wantN: 1},
	} {
		lo := LowerBound(serde.Int(tc.loVal), tc.loInc)
		hi := UpperBound(serde.Int(tc.hiVal), tc.hiInc)
		got := collect(t, tree, lo, hi)
		if len(got) != tc.wantN {
			t.Errorf("range %+v: got %d entries, want %d", tc, len(got), tc.wantN)
			continue
		}
		if got[0] != tc.wantLo {
			t.Errorf("range %+v: first = %d, want %d", tc, got[0], tc.wantLo)
		}
	}
}

func TestRangeScanDuplicates(t *testing.T) {
	tree := buildTree(t, 900, 3, 512) // keys 0..299, 3 entries each
	lo := LowerBound(serde.Int(10), true)
	hi := UpperBound(serde.Int(12), true)
	got := collect(t, tree, lo, hi)
	if len(got) != 9 {
		t.Fatalf("got %d entries for keys 10..12 with dups=3, want 9", len(got))
	}
}

func TestUnboundedLower(t *testing.T) {
	tree := buildTree(t, 500, 1, 512)
	hi := UpperBound(serde.Int(49), true)
	got := collect(t, tree, nil, hi)
	if len(got) != 50 {
		t.Fatalf("got %d entries below 50, want 50", len(got))
	}
}

func TestEmptyTree(t *testing.T) {
	tree := buildTree(t, 0, 1, 512)
	if got := collect(t, tree, nil, nil); len(got) != 0 {
		t.Fatalf("empty tree returned %d entries", len(got))
	}
}

// TestRangeDuplicatesSpanLeafBoundary: a run of duplicate key values that
// crosses leaf pages must be returned in full, for inclusive and exclusive
// bounds alike. A 64-byte page fits one or two entries, so every ten-entry
// duplicate run spans several leaves.
func TestRangeDuplicatesSpanLeafBoundary(t *testing.T) {
	tree := buildTree(t, 40, 10, 64) // keys 0..3, 10 entries each
	if tree.Height() < 2 {
		t.Fatalf("height = %d; tiny pages should force internal levels", tree.Height())
	}
	for _, tc := range []struct {
		lo, hi []byte
		want   []int64 // expected record ids
	}{
		{LowerBound(serde.Int(1), true), UpperBound(serde.Int(1), true), ids(10, 20)},
		{LowerBound(serde.Int(0), false), UpperBound(serde.Int(2), false), ids(10, 20)},
		{LowerBound(serde.Int(1), true), UpperBound(serde.Int(2), true), ids(10, 30)},
		{nil, UpperBound(serde.Int(0), true), ids(0, 10)},
		{LowerBound(serde.Int(3), true), nil, ids(30, 40)},
	} {
		got := collect(t, tree, tc.lo, tc.hi)
		if len(got) != len(tc.want) {
			t.Errorf("range: got %d entries %v, want %d", len(got), got, len(tc.want))
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("entry %d = id %d, want %d", i, got[i], tc.want[i])
			}
		}
	}
}

func ids(lo, hi int64) []int64 {
	out := make([]int64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// TestRangeCutsPartitionRange: cuts must split a range into subranges whose
// concatenated scans equal the single scan exactly.
func TestRangeCutsPartitionRange(t *testing.T) {
	tree := buildTree(t, 2000, 1, 256)
	lo := LowerBound(serde.Int(100), true)
	hi := UpperBound(serde.Int(1700), false) // [100, 1700)

	cuts, read, err := tree.RangeCuts(lo, hi, 8)
	if err != nil {
		t.Fatal(err)
	}
	if read == 0 || read != tree.BytesRead() {
		t.Fatalf("RangeCuts counted %d page bytes, the tree read %d", read, tree.BytesRead())
	}
	if len(cuts) == 0 {
		t.Fatal("no cuts for a 1600-entry range over tiny pages")
	}
	if len(cuts) > 7 {
		t.Fatalf("%d cuts exceed max-1", len(cuts))
	}
	prev := lo
	for i, c := range cuts {
		if compareBytes(prev, c) >= 0 {
			t.Fatalf("cut %d not increasing", i)
		}
		if compareBytes(c, hi) >= 0 {
			t.Fatalf("cut %d beyond hi", i)
		}
		prev = c
	}

	var got []int64
	sub := append(append([][]byte{lo}, cuts...), hi)
	for i := 0; i+1 < len(sub); i++ {
		got = append(got, collect(t, tree, sub[i], sub[i+1])...)
	}
	want := collect(t, tree, lo, hi)
	if len(got) != len(want) {
		t.Fatalf("subranges yielded %d entries, single scan %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %d != %d", i, got[i], want[i])
		}
	}

	// max < 2 asks for no parallelism.
	if cuts, _, _ := tree.RangeCuts(lo, hi, 1); cuts != nil {
		t.Fatalf("max=1 returned cuts: %v", cuts)
	}
}

// buildShard bulk-loads one shard holding keys [lo, hi).
func buildShard(t testing.TB, path string, lo, hi int64) {
	t.Helper()
	b, err := NewBuilder(path, kvSchema, `v.Int("id")`, BuilderOptions{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := lo; i < hi; i++ {
		rec := serde.NewRecord(kvSchema)
		rec.MustSet("id", serde.Int(i))
		rec.MustSet("payload", serde.String(fmt.Sprintf("row-%06d", i)))
		if err := b.Add(serde.Int(i), rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardSetAsLogicalTree: a manifest over three shards must behave as
// one tree for scans, ranges, and cuts.
func TestShardSetAsLogicalTree(t *testing.T) {
	dir := t.TempDir()
	paths := []string{
		filepath.Join(dir, "s0"),
		filepath.Join(dir, "s1"),
		filepath.Join(dir, "s2"),
	}
	buildShard(t, paths[0], 0, 100)
	buildShard(t, paths[1], 100, 200)
	buildShard(t, paths[2], 200, 300)
	bounds := [][]byte{serde.Int(100).SortKey(), serde.Int(200).SortKey()}
	manifest := filepath.Join(dir, "idx")
	if err := WriteManifest(manifest, `v.Int("id")`, paths, bounds); err != nil {
		t.Fatal(err)
	}

	idx, err := OpenIndex(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	set, ok := idx.(*ShardSet)
	if !ok {
		t.Fatalf("manifest opened as %T", idx)
	}
	if set.NumShards() != 3 || idx.NumEntries() != 300 {
		t.Fatalf("shards=%d entries=%d", set.NumShards(), idx.NumEntries())
	}
	if idx.KeyExpr() != `v.Int("id")` {
		t.Fatalf("key expr = %q", idx.KeyExpr())
	}

	scan := func(lo, hi []byte) []int64 {
		before := idx.BytesRead()
		c, err := idx.Scan(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		var out []int64
		for c.Next() {
			out = append(out, c.Record().Int("id"))
		}
		if c.Err() != nil {
			t.Fatal(c.Err())
		}
		if read := idx.BytesRead() - before; c.BytesRead() != read {
			t.Fatalf("cursor counted %d page bytes, the shards read %d", c.BytesRead(), read)
		}
		return out
	}

	full := scan(nil, nil)
	if len(full) != 300 {
		t.Fatalf("full scan = %d entries", len(full))
	}
	for i, id := range full {
		if id != int64(i) {
			t.Fatalf("entry %d has id %d; shard chaining out of order", i, id)
		}
	}
	// A range spanning the shard 1 → 2 boundary.
	cross := scan(LowerBound(serde.Int(150), true), UpperBound(serde.Int(250), false))
	if len(cross) != 100 || cross[0] != 150 || cross[99] != 249 {
		t.Fatalf("cross-shard scan: %d entries [%d..%d]", len(cross), cross[0], cross[len(cross)-1])
	}

	before := idx.BytesRead()
	cuts, read, err := idx.RangeCuts(nil, nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	if idx.BytesRead()-before != read {
		t.Fatalf("RangeCuts counted %d page bytes, the shards read %d", read, idx.BytesRead()-before)
	}
	if len(cuts) == 0 || len(cuts) > 5 {
		t.Fatalf("cuts = %d", len(cuts))
	}
	var got []int64
	prev := []byte(nil)
	for _, c := range append(cuts, nil) {
		got = append(got, scan(prev, c)...)
		prev = c
	}
	if len(got) != 300 {
		t.Fatalf("cut subranges yielded %d entries", len(got))
	}
	for i, id := range got {
		if id != int64(i) {
			t.Fatalf("cut subranges reordered entry %d (id %d)", i, id)
		}
	}

	// A lone tree file opens as *Tree through the same entry point.
	lone, err := OpenIndex(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer lone.Close()
	if _, ok := lone.(*Tree); !ok {
		t.Fatalf("tree file opened as %T", lone)
	}
}

// TestBuilderAddAllocs gates the bulk loader's steady state: Add encodes
// the key and the record into reused buffers and reuses the leaf and page
// buffers across leaves, so the only allocations left are the one key
// copy per leaf and the level bookkeeping — well under 0.1 per Add.
func TestBuilderAddAllocs(t *testing.T) {
	const n = 10000
	b, err := NewBuilder(filepath.Join(t.TempDir(), "t.idx"), kvSchema, `v.Int("id")`, BuilderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Abort()
	recs := make([]*serde.Record, n)
	for i := range recs {
		recs[i] = serde.NewRecord(kvSchema)
		recs[i].MustSet("id", serde.Int(int64(i)))
		recs[i].MustSet("payload", serde.String(fmt.Sprintf("row-%06d", i)))
	}
	next := int64(0) // keys keep rising across AllocsPerRun's warm-up and measured run
	allocs := testing.AllocsPerRun(1, func() {
		for _, rec := range recs {
			if err := b.Add(serde.Int(next), rec); err != nil {
				t.Fatal(err)
			}
			next++
		}
	})
	if perAdd := allocs / n; perAdd >= 0.1 {
		t.Fatalf("Add allocates %.3f objects per record over %d records; want < 0.1", perAdd, n)
	}
}

// TestBatchCursorMatchesBuilder: for trees of several shapes — duplicate
// keys spanning leaves, pages of a few entries, a shard set — and random
// [lo, hi) ranges, the batch cursor's batches concatenate to exactly the
// builder's in-range entries in key order (record fields, index keys and
// raw keys), and the row cursor walks the same entries with the same page
// bytes read.
func TestBatchCursorMatchesBuilder(t *testing.T) {
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "s0"), filepath.Join(dir, "s1"), filepath.Join(dir, "s2")}
	buildShard(t, paths[0], 0, 150)
	buildShard(t, paths[1], 150, 400)
	buildShard(t, paths[2], 400, 500)
	manifest := filepath.Join(dir, "set")
	if err := WriteManifest(manifest, `v.Int("id")`, paths, [][]byte{serde.Int(150).SortKey(), serde.Int(400).SortKey()}); err != nil {
		t.Fatal(err)
	}
	set, err := OpenShards(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	indexes := []struct {
		name string
		idx  Index
		n    int
		key  func(id int) int64 // the index key of the entry with this id
	}{
		{"unique", buildTree(t, 700, 1, 128), 700, func(id int) int64 { return int64(id) }},
		{"dups", buildTree(t, 900, 7, 200), 900, func(id int) int64 { return int64(id / 7) }},
		{"one-leaf", buildTree(t, 20, 3, 4096), 20, func(id int) int64 { return int64(id / 3) }},
		{"shards", set, 500, func(id int) int64 { return int64(id) }},
	}
	rng := rand.New(rand.NewSource(37))
	for _, ix := range indexes {
		maxKey := ix.key(ix.n - 1)
		for trial := 0; trial < 60; trial++ {
			// Bounds just outside, on and between the stored keys; nil for
			// unbounded.
			var lo, hi []byte
			loKey, loInc := rng.Int63n(maxKey+3)-1, rng.Intn(2) == 0
			hiKey, hiInc := rng.Int63n(maxKey+3)-1, rng.Intn(2) == 0
			if rng.Intn(5) > 0 {
				lo = LowerBound(serde.Int(loKey), loInc)
			}
			if rng.Intn(5) > 0 {
				hi = UpperBound(serde.Int(hiKey), hiInc)
			}
			var want []int
			for id := 0; id < ix.n; id++ {
				k := ix.key(id)
				if lo != nil && (k < loKey || k == loKey && !loInc) {
					continue
				}
				if hi != nil && (k > hiKey || k == hiKey && !hiInc) {
					continue
				}
				want = append(want, id)
			}

			bc, err := ix.idx.ScanBatch(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			var got []int
			var rawKeys [][]byte
			for bc.Next() {
				b := bc.Batch()
				if len(b.Sel()) != b.Len() || b.Len() == 0 {
					t.Fatalf("%s: a batch selects %d of %d rows", ix.name, len(b.Sel()), b.Len())
				}
				ids, payloads := b.Col(0).Ints(), b.Col(1).Strs()
				for r := 0; r < b.Len(); r++ {
					id := int(ids[r])
					if payloads[r] != fmt.Sprintf("row-%06d", id) {
						t.Fatalf("%s: entry %d has payload %q", ix.name, id, payloads[r])
					}
					k, err := b.RowKey(r)
					if err != nil || k.Int() != ix.key(id) {
						t.Fatalf("%s: entry %d keyed %v (%v), want %d", ix.name, id, k, err, ix.key(id))
					}
					got = append(got, id)
					rawKeys = append(rawKeys, append([]byte(nil), b.Keys()[r]...))
				}
			}
			if bc.Err() != nil {
				t.Fatal(bc.Err())
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s [%x, %x): batches hold %v, want %v", ix.name, lo, hi, got, want)
			}

			c, err := ix.idx.Scan(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			for ; c.Next(); i++ {
				if i >= len(got) || c.Record().Int("id") != int64(got[i]) || !bytes.Equal(c.Key(), rawKeys[i]) {
					t.Fatalf("%s: row cursor entry %d disagrees with the batches", ix.name, i)
				}
				if k, err := c.KeyDatum(); err != nil || k.Int() != ix.key(got[i]) {
					t.Fatalf("%s: row cursor entry %d keyed %v (%v)", ix.name, i, k, err)
				}
			}
			if c.Err() != nil || i != len(got) {
				t.Fatalf("%s: row cursor walked %d of %d entries (%v)", ix.name, i, len(got), c.Err())
			}
			if c.BytesRead() != bc.BytesRead() {
				t.Fatalf("%s: row cursor read %d page bytes, batch cursor %d", ix.name, c.BytesRead(), bc.BytesRead())
			}
		}
	}
}

// TestBatchCursorAllocs gates the zero-allocation B+Tree range scan: once
// the first leaf has sized the cursor's page buffer, columns and key
// column, decoding further leaves — string fields and keys aliasing the
// page — allocates nothing per row, for a lone tree and for a shard set
// whose cursor reopens on each shard.
func TestBatchCursorAllocs(t *testing.T) {
	dir := t.TempDir()
	var paths [][]byte
	var files []string
	for i := 0; i < 4; i++ {
		p := filepath.Join(dir, fmt.Sprintf("s%d", i))
		buildShard(t, p, int64(i*5000), int64((i+1)*5000))
		files = append(files, p)
		if i > 0 {
			paths = append(paths, serde.Int(int64(i*5000)).SortKey())
		}
	}
	manifest := filepath.Join(dir, "set")
	if err := WriteManifest(manifest, `v.Int("id")`, files, paths); err != nil {
		t.Fatal(err)
	}
	set, err := OpenShards(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	for _, c := range []struct {
		name string
		idx  Index
	}{{"tree", buildTree(t, 20000, 1, 1024)}, {"shards", set}} {
		t.Run(c.name, func(t *testing.T) {
			// The range starts near the end of the first shard, so the
			// shard cursor reopens on the next one while measured.
			bc, err := c.idx.ScanBatch(LowerBound(serde.Int(4900), true), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bc.Next() { // the first leaf sizes the buffers
				t.Fatal(bc.Err())
			}
			const leaves = 100
			rows := 0
			allocs := testing.AllocsPerRun(leaves, func() {
				if !bc.Next() {
					t.Fatalf("scan exhausted early: %v", bc.Err())
				}
				rows += bc.Batch().Len()
			})
			if first := bc.Batch().Keys()[0]; c.name == "shards" && bytes.Compare(first, serde.Int(5000).SortKey()) < 0 {
				t.Fatal("the measured leaves never reached the second shard")
			}
			if perRow := allocs * (leaves + 1) / float64(rows); perRow > 0.01 {
				t.Fatalf("batch cursor allocates %.4f objects per row (%.2f per leaf); want ~0", perRow, allocs)
			}
		})
	}
}

// scanPageBytes is what a range scan of [lo, hi) over tr must read,
// walked here from the pages themselves: the internal pages of the descent
// to the first leaf that may hold lo, then every leaf of the chain up to
// and including the first one holding a key at or past hi — each page
// once.
func scanPageBytes(t *testing.T, tr *Tree, lo, hi []byte) int64 {
	t.Helper()
	var sum, scratch int64
	off := tr.root
	for {
		page, err := tr.readPage(off, nil, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		if page[0] == pageLeaf {
			break
		}
		sum += int64(4 + len(page))
		offsets, seps, err := decodeInternal(page, off)
		if err != nil {
			t.Fatal(err)
		}
		child := 0
		for lo != nil && child < len(seps) && bytes.Compare(seps[child], lo) <= 0 {
			child++
		}
		off = offsets[child]
	}
	for off != 0 {
		page, err := tr.readPage(off, nil, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		sum += int64(4 + len(page))
		c := &leafCursor{page: page}
		n, used := binary.Uvarint(page[9:])
		c.pos = 9 + used
		for i := uint64(0); i < n; i++ {
			key, _ := c.field()
			c.field()
			if hi != nil && bytes.Compare(key, hi) >= 0 {
				return sum
			}
		}
		off = int64(binary.BigEndian.Uint64(page[1:9]))
	}
	return sum
}

// TestScanReadsEachPageOnce: for random ranges over a lone tree and over a
// shard set, a batch cursor's BytesRead is the descent's internal pages
// plus each leaf it visits, once — the first leaf, which the descent
// already read, included.
func TestScanReadsEachPageOnce(t *testing.T) {
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "s0"), filepath.Join(dir, "s1"), filepath.Join(dir, "s2")}
	buildShard(t, paths[0], 0, 400)
	buildShard(t, paths[1], 400, 700)
	buildShard(t, paths[2], 700, 1200)
	manifest := filepath.Join(dir, "idx")
	if err := WriteManifest(manifest, `v.Int("id")`, paths, [][]byte{serde.Int(400).SortKey(), serde.Int(700).SortKey()}); err != nil {
		t.Fatal(err)
	}
	set, err := OpenIndex(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	tree := buildTree(t, 1200, 3, 256)
	defer tree.Close()
	rnd := rand.New(rand.NewSource(5))
	bound := func() []byte {
		if rnd.Intn(8) == 0 {
			return nil
		}
		return serde.Int(int64(rnd.Intn(1300)) - 50).SortKey()
	}
	for i := 0; i < 200; i++ {
		lo, hi := bound(), bound()
		if lo != nil && hi != nil && bytes.Compare(lo, hi) > 0 {
			lo, hi = hi, lo
		}
		// The lone tree; and the shard set, whose cursor scans each shard
		// the range meets.
		want := map[Index]int64{tree: scanPageBytes(t, tree, lo, hi)}
		first, last := set.(*ShardSet).shardRange(lo, hi)
		for s := first; s < last; s++ {
			want[set] += scanPageBytes(t, set.(*ShardSet).shards[s], lo, hi)
		}
		for ix, w := range want {
			c, err := ix.ScanBatch(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			for c.Next() {
			}
			if c.Err() != nil {
				t.Fatal(c.Err())
			}
			if c.BytesRead() != w {
				t.Fatalf("%T [%x, %x): read %d page bytes, want %d", ix, lo, hi, c.BytesRead(), w)
			}
		}
	}
}
