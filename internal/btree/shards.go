package btree

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"manimal/internal/durable"
	"manimal/internal/serde"
)

// Cursor streams (key, record) entries of a key range. Implemented by
// Iterator (a single tree's range scan) and by the shard-chaining cursor a
// ShardSet returns.
type Cursor interface {
	Next() bool
	Key() []byte
	KeyDatum() (serde.Datum, error)
	Record() *serde.Record
	Err() error
}

// Index is the read surface shared by a single Tree and a ShardSet, so the
// execution fabric scans a sharded index exactly like a lone-file one.
type Index interface {
	Schema() *serde.Schema
	KeyExpr() string
	NumEntries() uint64
	Size() int64
	BytesRead() int64
	// Scan streams entries with lo <= key < hi in sort-key byte order;
	// nil bounds are unbounded.
	Scan(lo, hi []byte) (Cursor, error)
	// RangeCuts proposes up to max-1 interior cut keys that divide
	// [lo, hi) into shard- and page-aligned subranges for parallel scans.
	RangeCuts(lo, hi []byte, max int) ([][]byte, error)
	Close() error
}

var (
	_ Index = (*Tree)(nil)
	_ Index = (*ShardSet)(nil)
)

// manifestMagic identifies a shard manifest file.
const manifestMagic = "manimal-btree-shards-v1"

// shardManifest is the JSON layout of a sharded index manifest: the
// ordered shard files plus the key boundaries between them.
type shardManifest struct {
	Magic   string `json:"magic"`
	KeyExpr string `json:"keyExpr"`
	// Shards are shard file names relative to the manifest directory, in
	// ascending key order.
	Shards []string `json:"shards"`
	// Bounds are base64 sort-key cut points between consecutive shards:
	// shard i holds keys in [Bounds[i-1], Bounds[i]).
	Bounds []string `json:"bounds"`
}

// WriteManifest writes a shard manifest at path. The shard files must live
// in the manifest's directory (names are stored relative), be listed in
// ascending key order, and bounds must hold the len(shardPaths)-1 interior
// boundaries that the build's RangePartitioner used.
func WriteManifest(path, keyExpr string, shardPaths []string, bounds [][]byte) error {
	if len(shardPaths) == 0 {
		return fmt.Errorf("btree: manifest needs at least one shard")
	}
	if len(bounds) != len(shardPaths)-1 {
		return fmt.Errorf("btree: %d bounds for %d shards", len(bounds), len(shardPaths))
	}
	m := shardManifest{Magic: manifestMagic, KeyExpr: keyExpr, Shards: []string{}, Bounds: []string{}}
	for _, p := range shardPaths {
		m.Shards = append(m.Shards, filepath.Base(p))
	}
	for _, b := range bounds {
		m.Bounds = append(m.Bounds, base64.StdEncoding.EncodeToString(b))
	}
	raw, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return fmt.Errorf("btree: encode manifest: %w", err)
	}
	// Commit atomically: manifest paths are catalog-visible, and a partial
	// manifest would break every open of the shard set.
	if err := durable.WriteFile(path, raw); err != nil {
		return fmt.Errorf("btree: write manifest %s: %w", path, err)
	}
	return nil
}

// ShardSet reads a sharded index — N ordered trees plus their manifest —
// as one logical tree.
type ShardSet struct {
	path   string
	shards []*Tree
	bounds [][]byte
	size   int64
}

// OpenShards opens a shard manifest and every shard tree it lists.
func OpenShards(path string) (*ShardSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("btree: open manifest %s: %w", path, err)
	}
	var m shardManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("btree: %s: not a shard manifest: %w", path, err)
	}
	if m.Magic != manifestMagic {
		return nil, fmt.Errorf("btree: %s: bad manifest magic %q", path, m.Magic)
	}
	if len(m.Shards) == 0 || len(m.Bounds) != len(m.Shards)-1 {
		return nil, fmt.Errorf("btree: %s: %d bounds for %d shards", path, len(m.Bounds), len(m.Shards))
	}
	s := &ShardSet{path: path, size: int64(len(raw))}
	dir := filepath.Dir(path)
	for _, name := range m.Shards {
		t, err := Open(filepath.Join(dir, name))
		if err != nil {
			s.Close()
			return nil, err
		}
		s.shards = append(s.shards, t)
		s.size += t.Size()
	}
	for _, b := range m.Bounds {
		kb, err := base64.StdEncoding.DecodeString(b)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("btree: %s: bad bound: %w", path, err)
		}
		s.bounds = append(s.bounds, kb)
	}
	first := s.shards[0]
	for _, t := range s.shards[1:] {
		if t.KeyExpr() != first.KeyExpr() || !t.Schema().Equal(first.Schema()) {
			s.Close()
			return nil, fmt.Errorf("btree: %s: shards disagree on schema or key expression", path)
		}
	}
	return s, nil
}

// OpenIndex opens path as a logical index, sniffing whether it is a single
// B+Tree file or a shard manifest.
func OpenIndex(path string) (Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("btree: open %s: %w", path, err)
	}
	var head [1]byte
	_, err = f.Read(head[:])
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("btree: read %s: %w", path, err)
	}
	if head[0] == '{' {
		return OpenShards(path)
	}
	return Open(path)
}

// Path returns the manifest path.
func (s *ShardSet) Path() string { return s.path }

// NumShards returns the number of shards.
func (s *ShardSet) NumShards() int { return len(s.shards) }

// Shard returns the i-th shard tree (for statistics and tests).
func (s *ShardSet) Shard(i int) *Tree { return s.shards[i] }

// Schema implements Index.
func (s *ShardSet) Schema() *serde.Schema { return s.shards[0].Schema() }

// KeyExpr implements Index.
func (s *ShardSet) KeyExpr() string { return s.shards[0].KeyExpr() }

// NumEntries implements Index.
func (s *ShardSet) NumEntries() uint64 {
	var n uint64
	for _, t := range s.shards {
		n += t.NumEntries()
	}
	return n
}

// Size implements Index: total bytes across manifest and shards.
func (s *ShardSet) Size() int64 { return s.size }

// BytesRead implements Index.
func (s *ShardSet) BytesRead() int64 {
	var n int64
	for _, t := range s.shards {
		n += t.BytesRead()
	}
	return n
}

// Close implements Index.
func (s *ShardSet) Close() error {
	var first error
	for _, t := range s.shards {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// shardRange returns the half-open shard index range [first, last) whose
// key spans intersect [lo, hi).
func (s *ShardSet) shardRange(lo, hi []byte) (int, int) {
	first := 0
	if lo != nil {
		// Shard k intersects keys >= lo iff its upper bound Bounds[k] > lo
		// (the final shard is unbounded above).
		first = sort.Search(len(s.bounds), func(i int) bool { return bytes.Compare(s.bounds[i], lo) > 0 })
	}
	last := len(s.shards)
	if hi != nil {
		// Shard k intersects keys < hi iff its lower bound Bounds[k-1] < hi.
		last = sort.Search(len(s.bounds), func(i int) bool { return bytes.Compare(s.bounds[i], hi) >= 0 }) + 1
	}
	if last > len(s.shards) {
		last = len(s.shards)
	}
	if first > last {
		first = last
	}
	return first, last
}

// Scan implements Index: a cursor chaining the intersecting shards' range
// scans in shard (= key) order.
func (s *ShardSet) Scan(lo, hi []byte) (Cursor, error) {
	first, last := s.shardRange(lo, hi)
	return &setCursor{set: s, lo: lo, hi: hi, next: first, last: last}, nil
}

// RangeCuts implements Index: shard boundaries inside the range come free,
// and the per-shard budget is delegated to each shard's page-aligned cuts.
func (s *ShardSet) RangeCuts(lo, hi []byte, max int) ([][]byte, error) {
	if max < 2 {
		return nil, nil
	}
	first, last := s.shardRange(lo, hi)
	n := last - first
	if n == 0 {
		return nil, nil
	}
	per := max / n
	var cuts [][]byte
	for i := first; i < last; i++ {
		if i > first {
			// The boundary between shard i-1 and shard i; strictly inside
			// (lo, hi) by construction of shardRange.
			cuts = append(cuts, append([]byte(nil), s.bounds[i-1]...))
		}
		if per >= 2 {
			sub, err := s.shards[i].RangeCuts(lo, hi, per)
			if err != nil {
				return nil, err
			}
			cuts = append(cuts, sub...)
		}
	}
	return thinCuts(cuts, max), nil
}

// setCursor chains shard range scans.
type setCursor struct {
	set        *ShardSet
	lo, hi     []byte
	next, last int
	cur        *Iterator
	err        error
}

func (c *setCursor) Next() bool {
	if c.err != nil {
		return false
	}
	for {
		if c.cur != nil {
			if c.cur.Next() {
				return true
			}
			if err := c.cur.Err(); err != nil {
				c.err = err
				return false
			}
			c.cur = nil
		}
		if c.next >= c.last {
			return false
		}
		it, err := c.set.shards[c.next].Range(c.lo, c.hi)
		if err != nil {
			c.err = err
			return false
		}
		c.next++
		c.cur = it
	}
}

func (c *setCursor) Key() []byte { return c.cur.Key() }

func (c *setCursor) KeyDatum() (serde.Datum, error) { return c.cur.KeyDatum() }

func (c *setCursor) Record() *serde.Record { return c.cur.Record() }

func (c *setCursor) Err() error { return c.err }
