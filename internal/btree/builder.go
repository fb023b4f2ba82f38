// Package btree implements the disk-based B+Tree Manimal uses for selection
// indexes (paper Sections 2.1 and 2.2). The tree is clustered: leaves store
// the full serialized record alongside its key, so a range scan reads only
// the relevant portion of the data and the execution fabric can invoke
// map() without touching the original file. Trees are bulk-loaded
// bottom-up from key-sorted input — the sort itself is performed by the
// synthesized index-generation MapReduce job.
//
// Keys are order-preserving sort-key encodings (serde.AppendSortKey) of an
// arbitrary pure expression over the record, suffixed with an 8-byte
// sequence number so duplicate key values remain distinct entries.
//
// # Sharded indexes
//
// An index may be sharded: N independent trees tiling the key space in
// order, plus a manifest file recording the ordered shard list and the
// interior key boundaries between them (see WriteManifest / OpenShards).
// Index-generation jobs produce shards by running with N reducers under a
// sampling-based range partitioner — reduce partition i receives exactly
// the keys in [bounds[i-1], bounds[i]), its key-ordered merge stream
// bulk-loads shard i, and the partitioner's bounds are written into the
// manifest — so the build parallelizes across all reducers instead of
// funneling through one. A ShardSet opens the manifest and serves the
// shards as one logical tree; OpenIndex sniffs whether a path is a lone
// tree or a manifest, and the Index interface lets readers treat both
// identically, including page/shard-aligned range splitting (RangeCuts)
// for parallel scans.
package btree

import (
	"encoding/binary"
	"fmt"

	"manimal/internal/durable"
	"manimal/internal/serde"
)

const (
	magicFooter = "MANIMALB"

	pageLeaf     = 0
	pageInternal = 1

	// DefaultPageSize is the target page payload size.
	DefaultPageSize = 32 << 10

	seqLen = 8
)

// BuilderOptions configures tree construction.
type BuilderOptions struct {
	// PageSize is the target page payload size; 0 means DefaultPageSize.
	PageSize int
}

// Builder bulk-loads a B+Tree. Keys must be added in non-decreasing order.
type Builder struct {
	f        *durable.File
	schema   *serde.Schema
	keyExpr  string
	pageSize int

	offset  int64
	seq     uint64
	lastKey []byte

	// Current leaf being filled.
	leafBuf  []byte
	leafN    uint64
	leafKey0 []byte // first key of current leaf

	// Previous completed leaf, deferred so its next-pointer can be set.
	pendingLeaf []byte
	pendingKey0 []byte

	// First-key + offset of every written page at the current level.
	level []levelEntry

	closed bool
}

type levelEntry struct {
	key    []byte
	offset int64
}

// NewBuilder creates a B+Tree file destined for path, written through an
// atomic replacement (durable.File) that Close commits: index paths are
// catalog-visible, so a partial file must never appear at one. schema
// describes the stored records and keyExpr is the canonical string form of
// the pure expression that produced the keys (matched by the optimizer
// against the program's selection descriptor).
func NewBuilder(path string, schema *serde.Schema, keyExpr string, opts BuilderOptions) (*Builder, error) {
	f, err := durable.Create(path)
	if err != nil {
		return nil, fmt.Errorf("btree: create %s: %w", path, err)
	}
	ps := opts.PageSize
	if ps <= 0 {
		ps = DefaultPageSize
	}
	// A leading magic keeps every page at a positive offset, so offset 0
	// can serve as the "no next leaf" sentinel.
	if _, err := f.Write([]byte(magicFooter)); err != nil {
		f.Abort()
		return nil, fmt.Errorf("btree: write header: %w", err)
	}
	return &Builder{f: f, schema: schema, keyExpr: keyExpr, pageSize: ps, offset: int64(len(magicFooter))}, nil
}

// Add appends one (key, record) entry. Keys must arrive in non-decreasing
// datum order; records must match the builder schema.
func (b *Builder) Add(key serde.Datum, rec *serde.Record) error {
	if b.closed {
		return fmt.Errorf("btree: add to closed builder")
	}
	if !rec.Schema().Equal(b.schema) {
		return fmt.Errorf("btree: record schema %s != tree schema %s", rec.Schema(), b.schema)
	}
	kb := key.AppendSortKey(nil)
	kb = binary.BigEndian.AppendUint64(kb, b.seq)
	b.seq++
	if b.lastKey != nil && compareBytes(kb, b.lastKey) < 0 {
		return fmt.Errorf("btree: keys out of order: %v after larger key", key)
	}
	b.lastKey = kb

	if b.leafN == 0 {
		b.leafKey0 = kb
	}
	b.leafBuf = binary.AppendUvarint(b.leafBuf, uint64(len(kb)))
	b.leafBuf = append(b.leafBuf, kb...)
	payload := rec.AppendBinary(nil)
	b.leafBuf = binary.AppendUvarint(b.leafBuf, uint64(len(payload)))
	b.leafBuf = append(b.leafBuf, payload...)
	b.leafN++

	if len(b.leafBuf) >= b.pageSize {
		return b.finishLeaf()
	}
	return nil
}

// finishLeaf moves the current leaf to pending and flushes the previously
// pending leaf with a next-pointer to the new one.
func (b *Builder) finishLeaf() error {
	if b.leafN == 0 {
		return nil
	}
	leaf := buildLeafPayload(b.leafN, b.leafBuf)
	key0 := b.leafKey0
	b.leafBuf = nil
	b.leafN = 0
	b.leafKey0 = nil

	if b.pendingLeaf != nil {
		// The pending leaf's successor starts right after it.
		next := b.offset + int64(4+len(b.pendingLeaf))
		if err := b.writePage(b.pendingLeaf, b.pendingKey0, next); err != nil {
			return err
		}
	}
	b.pendingLeaf = leaf
	b.pendingKey0 = key0
	return nil
}

// buildLeafPayload assembles a leaf page minus the next-pointer (which is
// patched into the reserved first 8 bytes after the type byte at write time).
func buildLeafPayload(n uint64, entries []byte) []byte {
	page := []byte{pageLeaf}
	page = append(page, make([]byte, 8)...) // next-pointer placeholder
	page = binary.AppendUvarint(page, n)
	return append(page, entries...)
}

func (b *Builder) writePage(page, firstKey []byte, nextLeaf int64) error {
	if page[0] == pageLeaf {
		binary.BigEndian.PutUint64(page[1:9], uint64(nextLeaf))
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(page)))
	if _, err := b.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("btree: write page header: %w", err)
	}
	if _, err := b.f.Write(page); err != nil {
		return fmt.Errorf("btree: write page: %w", err)
	}
	b.level = append(b.level, levelEntry{key: firstKey, offset: b.offset})
	b.offset += int64(4 + len(page))
	return nil
}

// Close finishes all levels, writes the footer, and commits the file. Any
// failure removes the temp file and leaves the final path untouched.
func (b *Builder) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	if err := b.finishLeaf(); err != nil {
		b.f.Abort()
		return err
	}
	if b.pendingLeaf != nil {
		if err := b.writePage(b.pendingLeaf, b.pendingKey0, 0); err != nil {
			b.f.Abort()
			return err
		}
		b.pendingLeaf = nil
	}
	numEntries := b.seq

	// Handle the empty tree: a single empty leaf.
	if len(b.level) == 0 {
		if err := b.writePage(buildLeafPayload(0, nil), nil, 0); err != nil {
			b.f.Abort()
			return err
		}
	}

	// Build internal levels bottom-up.
	height := 1
	for len(b.level) > 1 {
		children := b.level
		b.level = nil
		for start := 0; start < len(children); {
			page := []byte{pageInternal}
			var keys []byte
			n := 0
			var kidOffsets []byte
			for start+n < len(children) {
				c := children[start+n]
				kidOffsets = binary.AppendUvarint(kidOffsets, uint64(c.offset))
				if n > 0 {
					keys = binary.AppendUvarint(keys, uint64(len(c.key)))
					keys = append(keys, c.key...)
				}
				n++
				if len(kidOffsets)+len(keys) >= b.pageSize && start+n < len(children) && n >= 2 {
					break
				}
			}
			page = binary.AppendUvarint(page, uint64(n))
			page = append(page, kidOffsets...)
			page = append(page, keys...)
			if err := b.writePage(page, children[start].key, 0); err != nil {
				b.f.Abort()
				return err
			}
			start += n
		}
		height++
	}
	root := b.level[0].offset

	var ftr []byte
	ftr = b.schema.AppendBinary(ftr)
	ftr = binary.AppendUvarint(ftr, uint64(len(b.keyExpr)))
	ftr = append(ftr, b.keyExpr...)
	ftr = binary.AppendUvarint(ftr, uint64(root))
	ftr = binary.AppendUvarint(ftr, uint64(height))
	ftr = binary.AppendUvarint(ftr, numEntries)
	ftr = binary.LittleEndian.AppendUint64(ftr, uint64(len(ftr)))
	ftr = append(ftr, magicFooter...)
	if _, err := b.f.Write(ftr); err != nil {
		b.f.Abort()
		return fmt.Errorf("btree: write footer: %w", err)
	}
	if err := b.f.Commit(); err != nil {
		return fmt.Errorf("btree: commit: %w", err)
	}
	return nil
}

// Abort closes the builder and removes the partial temp file; used when
// the producing job must be discarded. The final path is never touched. A
// no-op after Close, which commits the file or removes it.
func (b *Builder) Abort() error {
	b.closed = true
	return b.f.Abort()
}

func compareBytes(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// Schema returns the builder's stored-record schema.
func (b *Builder) Schema() *serde.Schema { return b.schema }
