package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"sync/atomic"

	"manimal/internal/serde"
)

// Tree is a read-only handle to a B+Tree index file.
type Tree struct {
	f          *os.File
	path       string
	schema     *serde.Schema
	keyExpr    string
	root       int64
	height     int
	numEntries uint64
	fileSize   int64
	dataEnd    int64 // pages lie before this offset; the footer follows
	bytesRead  atomic.Int64
}

// Open opens a B+Tree index file for reading.
func Open(path string) (*Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("btree: open %s: %w", path, err)
	}
	t := &Tree{f: f, path: path}
	if err := t.readFooter(); err != nil {
		f.Close()
		return nil, fmt.Errorf("btree: %s: %w", path, err)
	}
	return t, nil
}

func (t *Tree) readFooter() error {
	st, err := t.f.Stat()
	if err != nil {
		return err
	}
	t.fileSize = st.Size()
	tail := make([]byte, 8+len(magicFooter))
	if t.fileSize < int64(len(tail)) {
		return fmt.Errorf("file too small to be a B+Tree")
	}
	if _, err := t.f.ReadAt(tail, t.fileSize-int64(len(tail))); err != nil {
		return fmt.Errorf("read footer tail: %w", err)
	}
	if string(tail[8:]) != magicFooter {
		return fmt.Errorf("bad magic: not a Manimal B+Tree")
	}
	ftrLen := int64(binary.LittleEndian.Uint64(tail[:8]))
	if ftrLen < 0 || ftrLen > t.fileSize-int64(len(tail)) {
		return fmt.Errorf("footer length %d out of range", ftrLen)
	}
	t.dataEnd = t.fileSize - int64(len(tail)) - ftrLen
	ftr := make([]byte, ftrLen)
	if _, err := t.f.ReadAt(ftr, t.dataEnd); err != nil {
		return fmt.Errorf("read footer: %w", err)
	}
	schema, pos, err := serde.DecodeSchema(ftr)
	if err != nil {
		return err
	}
	t.schema = schema
	kl, used := binary.Uvarint(ftr[pos:])
	if used <= 0 || kl > uint64(len(ftr)-pos-used) {
		return fmt.Errorf("truncated key expression")
	}
	pos += used
	t.keyExpr = string(ftr[pos : pos+int(kl)])
	pos += int(kl)
	root, used := binary.Uvarint(ftr[pos:])
	if used <= 0 || root >= uint64(t.dataEnd) {
		return fmt.Errorf("truncated or out-of-range root offset")
	}
	pos += used
	height, used := binary.Uvarint(ftr[pos:])
	if used <= 0 {
		return fmt.Errorf("truncated height")
	}
	pos += used
	n, used := binary.Uvarint(ftr[pos:])
	if used <= 0 {
		return fmt.Errorf("truncated entry count")
	}
	t.root = int64(root)
	t.height = int(height)
	t.numEntries = n
	return nil
}

// Schema returns the schema of the stored records.
func (t *Tree) Schema() *serde.Schema { return t.schema }

// KeyExpr returns the canonical key expression string the tree was built on.
func (t *Tree) KeyExpr() string { return t.keyExpr }

// NumEntries returns the number of stored entries.
func (t *Tree) NumEntries() uint64 { return t.numEntries }

// Height returns the number of levels (1 = a single leaf).
func (t *Tree) Height() int { return t.height }

// Size returns the index file size in bytes.
func (t *Tree) Size() int64 { return t.fileSize }

// Path returns the file path.
func (t *Tree) Path() string { return t.path }

// BytesRead returns the page bytes this tree has physically read so far,
// across all its cursors and RangeCuts walks; each of those also reports
// its own share.
func (t *Tree) BytesRead() int64 { return t.bytesRead.Load() }

// Close closes the underlying file.
func (t *Tree) Close() error { return t.f.Close() }

// readPage reads the non-empty page at off, adding its bytes to the tree's
// total and to *read, the count of the cursor or walk that asked for it. A
// page must end before the footer, which bounds what a corrupt length can
// make it allocate.
func (t *Tree) readPage(off int64, read *int64) ([]byte, error) {
	if off < 0 || off > t.dataEnd-4 {
		return nil, fmt.Errorf("btree: page offset %d out of range", off)
	}
	var hdr [4]byte
	if _, err := t.f.ReadAt(hdr[:], off); err != nil {
		return nil, fmt.Errorf("btree: read page header at %d: %w", off, err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || int64(n) > t.dataEnd-off-4 {
		return nil, fmt.Errorf("btree: corrupt page length %d at %d", n, off)
	}
	page := make([]byte, n)
	if _, err := t.f.ReadAt(page, off+4); err != nil {
		return nil, fmt.Errorf("btree: read page at %d: %w", off, err)
	}
	t.bytesRead.Add(int64(4 + n))
	*read += int64(4 + n)
	return page, nil
}

// leafPos locates the first leaf whose entries may contain keys >= lo.
// A nil lo positions at the very first leaf.
func (t *Tree) leafPos(lo []byte, read *int64) (int64, error) {
	off := t.root
	for {
		page, err := t.readPage(off, read)
		if err != nil {
			return 0, err
		}
		if page[0] == pageLeaf {
			return off, nil
		}
		offsets, seps, err := decodeInternal(page, off)
		if err != nil {
			return 0, err
		}
		// Separators k1..k(n-1): child i covers keys in [ki, k(i+1)).
		child := 0
		for lo != nil && child < len(seps) && bytes.Compare(seps[child], lo) <= 0 {
			child++
		}
		off = offsets[child]
	}
}

// Scan implements Index (Range under the shared Cursor interface).
func (t *Tree) Scan(lo, hi []byte) (Cursor, error) { return t.Range(lo, hi) }

// decodeInternal parses the internal page at off into its child offsets
// and the n-1 separator keys (the first key of every child except the
// first). A bulk load writes every child before its parent, so a child
// offset at or past off is corrupt, and rejecting it keeps every descent
// finite.
func decodeInternal(page []byte, off int64) (offsets []int64, seps [][]byte, err error) {
	n, used := binary.Uvarint(page[1:])
	if page[0] != pageInternal || used <= 0 || n == 0 || n > uint64(len(page)) {
		return nil, nil, fmt.Errorf("btree: corrupt internal page at %d", off)
	}
	pos := 1 + used
	offsets = make([]int64, n)
	for i := range offsets {
		v, used := binary.Uvarint(page[pos:])
		if used <= 0 || v >= uint64(off) {
			return nil, nil, fmt.Errorf("btree: corrupt child offsets at %d", off)
		}
		offsets[i] = int64(v)
		pos += used
	}
	seps = make([][]byte, 0, n-1)
	for i := 1; i < int(n); i++ {
		kl, used := binary.Uvarint(page[pos:])
		if used <= 0 || kl > uint64(len(page)-pos-used) {
			return nil, nil, fmt.Errorf("btree: corrupt separator at %d", off)
		}
		pos += used
		seps = append(seps, page[pos:pos+int(kl)])
		pos += int(kl)
	}
	return offsets, seps, nil
}

// RangeCuts implements Index: it returns up to max-1 interior cut keys
// dividing [lo, hi) into consecutive page-aligned subranges, so a single
// plan range can fan out across map tasks. Cuts are first-of-page keys,
// hence the subranges [lo,c1), [c1,c2), …, [ck,hi) partition the range
// exactly. Only internal pages are read: the walk descends level by level,
// pruning subtrees outside the range, until it has enough boundaries.
func (t *Tree) RangeCuts(lo, hi []byte, max int) (cuts [][]byte, read int64, err error) {
	if max < 2 {
		return nil, 0, nil
	}
	type nodeRef struct {
		off   int64
		first []byte // nil = unbounded below
	}
	level := []nodeRef{{off: t.root}}
	for len(level) > 0 && len(level) < max {
		page, err := t.readPage(level[0].off, &read)
		if err != nil {
			return nil, read, err
		}
		if page[0] == pageLeaf {
			break
		}
		var next []nodeRef
		for i, nd := range level {
			pg := page
			if i > 0 {
				if pg, err = t.readPage(nd.off, &read); err != nil {
					return nil, read, err
				}
			}
			offsets, seps, err := decodeInternal(pg, nd.off)
			if err != nil {
				return nil, read, err
			}
			for c := range offsets {
				first := nd.first
				if c > 0 {
					first = seps[c-1]
				}
				// Child c spans [first, upper); prune subtrees entirely
				// outside [lo, hi).
				var upper []byte
				if c < len(seps) {
					upper = seps[c]
				} else if i+1 < len(level) {
					upper = level[i+1].first
				}
				if hi != nil && first != nil && bytes.Compare(first, hi) >= 0 {
					continue
				}
				if lo != nil && upper != nil && bytes.Compare(upper, lo) <= 0 {
					continue
				}
				next = append(next, nodeRef{off: offsets[c], first: first})
			}
		}
		if len(next) == 0 {
			break
		}
		level = next
	}
	for _, nd := range level {
		if nd.first == nil {
			continue
		}
		if lo != nil && bytes.Compare(nd.first, lo) <= 0 {
			continue
		}
		if hi != nil && bytes.Compare(nd.first, hi) >= 0 {
			continue
		}
		cuts = append(cuts, append([]byte(nil), nd.first...))
	}
	return thinCuts(cuts, max), read, nil
}

// thinCuts evenly samples sorted cut keys down to at most max-1 entries.
func thinCuts(cuts [][]byte, max int) [][]byte {
	if len(cuts) <= max-1 {
		return cuts
	}
	thin := make([][]byte, 0, max-1)
	prev := -1
	for i := 1; i < max; i++ {
		idx := i * len(cuts) / max
		if idx == prev || idx >= len(cuts) {
			continue
		}
		prev = idx
		thin = append(thin, cuts[idx])
	}
	return thin
}

// Iterator streams (key, record) entries over a key range.
type Iterator struct {
	t       *Tree
	hi      []byte // exclusive byte bound; nil = unbounded
	page    []byte
	pos     int
	left    uint64
	nextOff int64
	key     []byte
	rec     *serde.Record
	err     error
	done    bool
	read    int64 // page bytes this iterator read
}

// Range returns an iterator over entries with lo <= key < hi in sort-key
// byte order. Either bound may be nil for unbounded. Use RangeBounds to
// derive byte bounds from datum intervals.
func (t *Tree) Range(lo, hi []byte) (*Iterator, error) {
	it := &Iterator{t: t, hi: hi}
	off, err := t.leafPos(lo, &it.read)
	if err != nil {
		return nil, err
	}
	it.nextOff = off
	if err := it.loadLeaf(); err != nil {
		return nil, err
	}
	// Skip entries below lo within the first leaf.
	if lo != nil {
		for !it.done && it.left > 0 {
			save := *it
			if !it.advance() {
				break
			}
			if bytes.Compare(it.key, lo) >= 0 {
				// Rewind one entry: restore saved state and stop skipping.
				// Pages read meanwhile stay read.
				save.read = it.read
				*it = save
				break
			}
		}
	}
	return it, nil
}

func (it *Iterator) loadLeaf() error {
	for {
		if it.nextOff == 0 {
			it.done = true
			return nil
		}
		page, err := it.t.readPage(it.nextOff, &it.read)
		if err != nil {
			return err
		}
		if page[0] != pageLeaf || len(page) < 9 {
			return fmt.Errorf("btree: expected leaf at %d", it.nextOff)
		}
		// A bulk load writes each leaf before its successor, so a next
		// pointer that does not move forward is corrupt, and rejecting it
		// keeps every scan finite.
		next := int64(binary.BigEndian.Uint64(page[1:9]))
		if next != 0 && next <= it.nextOff {
			return fmt.Errorf("btree: corrupt leaf chain at %d", it.nextOff)
		}
		it.nextOff = next
		n, used := binary.Uvarint(page[9:])
		if used <= 0 {
			return fmt.Errorf("btree: corrupt leaf")
		}
		it.page = page
		it.pos = 9 + used
		it.left = n
		if n > 0 {
			return nil
		}
	}
}

// advance decodes the next raw entry; returns false at range/leaf end.
func (it *Iterator) advance() bool {
	for it.left == 0 {
		if err := it.loadLeaf(); err != nil {
			it.err = err
			return false
		}
		if it.done {
			return false
		}
	}
	kl, used := binary.Uvarint(it.page[it.pos:])
	if used <= 0 || kl > uint64(len(it.page)-it.pos-used) {
		it.err = fmt.Errorf("btree: corrupt leaf entry key")
		return false
	}
	it.pos += used
	key := it.page[it.pos : it.pos+int(kl)]
	it.pos += int(kl)
	vl, used := binary.Uvarint(it.page[it.pos:])
	if used <= 0 || vl > uint64(len(it.page)-it.pos-used) {
		it.err = fmt.Errorf("btree: corrupt leaf entry value")
		return false
	}
	it.pos += used
	payload := it.page[it.pos : it.pos+int(vl)]
	it.pos += int(vl)
	it.left--

	rec, _, err := serde.DecodeRecord(it.t.schema, payload)
	if err != nil {
		it.err = err
		return false
	}
	it.key = key
	it.rec = rec
	return true
}

// Next advances the iterator, returning false at the end of the range or on
// error (check Err).
func (it *Iterator) Next() bool {
	if it.err != nil || it.done {
		return false
	}
	if !it.advance() {
		return false
	}
	if it.hi != nil && bytes.Compare(it.key, it.hi) >= 0 {
		it.done = true
		return false
	}
	return true
}

// Key returns the current entry's full sort key (datum key + sequence).
func (it *Iterator) Key() []byte { return it.key }

// KeyDatum decodes and returns the current entry's key datum.
func (it *Iterator) KeyDatum() (serde.Datum, error) {
	d, _, err := serde.DecodeSortKey(it.key)
	return d, err
}

// Record returns the current entry's record.
func (it *Iterator) Record() *serde.Record { return it.rec }

// Err returns the first error encountered.
func (it *Iterator) Err() error { return it.err }

// BytesRead returns the page bytes the iterator has read, the descent to
// its first leaf included.
func (it *Iterator) BytesRead() int64 { return it.read }

// maxSeq is the largest possible sequence suffix; appending it (plus one
// extra byte) to a datum sort key yields a bound strictly above every entry
// with that datum value.
var maxSeq = []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x00}

// LowerBound converts a datum lower bound into a byte bound.
func LowerBound(d serde.Datum, inclusive bool) []byte {
	kb := d.AppendSortKey(nil)
	if inclusive {
		return kb
	}
	return append(kb, maxSeq...)
}

// UpperBound converts a datum upper bound into an exclusive byte bound.
func UpperBound(d serde.Datum, inclusive bool) []byte {
	kb := d.AppendSortKey(nil)
	if !inclusive {
		return kb
	}
	return append(kb, maxSeq...)
}
