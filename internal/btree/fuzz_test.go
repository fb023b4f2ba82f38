package btree

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"manimal/internal/serde"
)

// fuzzTreeBytes is a small tree with three levels of 96-byte pages: the
// seed every FuzzBTreeOpen input mutates.
func fuzzTreeBytes(t testing.TB) []byte {
	path := filepath.Join(t.TempDir(), "seed.idx")
	b, err := NewBuilder(path, kvSchema, `v.Int("id")`, BuilderOptions{PageSize: 96})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		rec := serde.NewRecord(kvSchema)
		rec.MustSet("id", serde.Int(int64(i)))
		rec.MustSet("payload", serde.String("p"))
		if err := b.Add(serde.Int(int64(i/2)), rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// treeFile lays out a tree file by hand: the header magic, each page
// behind its length, and a footer naming root as the root page. The
// FuzzBTreeOpen seeds it builds each break one decoder invariant.
func treeFile(root uint64, pages ...[]byte) []byte {
	raw := []byte(magicFooter)
	for _, p := range pages {
		raw = binary.LittleEndian.AppendUint32(raw, uint32(len(p)))
		raw = append(raw, p...)
	}
	ftr := kvSchema.AppendBinary(nil)
	ftr = binary.AppendUvarint(ftr, 0) // key expression
	ftr = binary.AppendUvarint(ftr, root)
	ftr = binary.AppendUvarint(ftr, 2) // height
	ftr = binary.AppendUvarint(ftr, 1) // entries
	ftr = binary.LittleEndian.AppendUint64(ftr, uint64(len(ftr)))
	return append(append(raw, ftr...), magicFooter...)
}

// leafPage is a leaf holding n entries, whose next leaf is at next.
func leafPage(next uint64, n uint64, entries ...byte) []byte {
	p := binary.BigEndian.AppendUint64([]byte{pageLeaf}, next)
	return append(binary.AppendUvarint(p, n), entries...)
}

// exercise reads an opened index every way a plan does: a full scan, a
// bounded range scan and range cuts. A corrupt index may fail any of them
// with an error; none may panic or run forever.
func exercise(idx Index) {
	lo, hi := LowerBound(serde.Int(3), true), UpperBound(serde.Int(12), false)
	for _, r := range [][2][]byte{{nil, nil}, {lo, hi}} {
		if c, err := idx.Scan(r[0], r[1]); err == nil {
			for c.Next() {
				if _, err := c.KeyDatum(); err != nil {
					break
				}
			}
		}
		idx.RangeCuts(r[0], r[1], 8)
	}
}

// FuzzBTreeOpen: Open, Range and RangeCuts over a mutated tree return an
// error or read what the bytes hold — never panic, loop forever, or
// allocate more than the file's size.
func FuzzBTreeOpen(f *testing.F) {
	seed := fuzzTreeBytes(f)
	f.Add(seed)
	f.Add(seed[len(seed)/2:])
	f.Add(seed[:len(seed)-3])
	const first = uint64(len(magicFooter)) // the first page's offset
	// A leaf whose next leaf is itself.
	f.Add(treeFile(first, leafPage(first, 0)))
	// An internal page whose only child is itself.
	f.Add(treeFile(first, []byte{pageInternal, 1, byte(first)}))
	// A separator running past its page.
	leaf := leafPage(0, 0)
	f.Add(treeFile(first+4+uint64(len(leaf)), leaf, []byte{pageInternal, 2, byte(first), byte(first), 200, 1}))
	// A leaf entry whose key runs past its page.
	f.Add(treeFile(first, leafPage(0, 1, 200, 1)))
	// A page of no bytes, and one claiming nearly 4 GiB.
	f.Add(treeFile(first, []byte{}))
	f.Add(append(binary.LittleEndian.AppendUint32([]byte(magicFooter), 0xFFFFFFF0), treeFile(first, leafPage(0, 0))[len(magicFooter):]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "t.idx")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tree, err := Open(path)
		if err != nil {
			return
		}
		defer tree.Close()
		exercise(tree)
	})
}

// FuzzShardManifest: OpenShards over a mutated manifest of a three-shard
// index returns an error or a shard set whose scans and cuts behave like
// FuzzBTreeOpen's.
func FuzzShardManifest(f *testing.F) {
	dir := f.TempDir()
	var paths []string
	for i, r := range [][2]int64{{0, 10}, {10, 20}, {20, 30}} {
		p := filepath.Join(dir, fmt.Sprintf("s.idx.shard%03d", i))
		buildShard(f, p, r[0], r[1])
		paths = append(paths, p)
	}
	manifest := filepath.Join(dir, "s.idx")
	bounds := [][]byte{LowerBound(serde.Int(10), true), LowerBound(serde.Int(20), true)}
	if err := WriteManifest(manifest, `v.Int("id")`, paths, bounds); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(manifest)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"magic":"manimal-btree-shards-v1","shards":["s.idx.shard000","s.idx.shard001"],"bounds":["AQ=="]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The mutated manifest sits beside the real shards, under a name
		// of its own so parallel workers never share it.
		mf, err := os.CreateTemp(dir, "fuzz-*.idx")
		if err != nil {
			t.Fatal(err)
		}
		defer os.Remove(mf.Name())
		if _, err := mf.Write(data); err != nil {
			t.Fatal(err)
		}
		mf.Close()
		s, err := OpenShards(mf.Name())
		if err != nil {
			return
		}
		defer s.Close()
		exercise(s)
	})
}
