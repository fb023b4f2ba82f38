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
// total and to *read, the count of the cursor or walk that asked for it.
// A non-nil buf is the caller's page buffer: the page (and its length
// header before it) is read into it, grown as needed, and so is valid only
// until the next read into buf; with a nil buf the page is freshly
// allocated. A page must end before the footer, which bounds what a
// corrupt length can make it allocate.
func (t *Tree) readPage(off int64, buf *[]byte, read *int64) ([]byte, error) {
	if off < 0 || off > t.dataEnd-4 {
		return nil, fmt.Errorf("btree: page offset %d out of range", off)
	}
	if buf == nil {
		buf = new([]byte)
	}
	if cap(*buf) < 4 {
		*buf = make([]byte, 4)
	}
	hdr := (*buf)[:4]
	if _, err := t.f.ReadAt(hdr, off); err != nil {
		return nil, fmt.Errorf("btree: read page header at %d: %w", off, err)
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 || int64(n) > t.dataEnd-off-4 {
		return nil, fmt.Errorf("btree: corrupt page length %d at %d", n, off)
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	page := (*buf)[:n]
	if _, err := t.f.ReadAt(page, off+4); err != nil {
		return nil, fmt.Errorf("btree: read page at %d: %w", off, err)
	}
	t.bytesRead.Add(int64(4 + n))
	*read += int64(4 + n)
	return page, nil
}

// leafPos locates the first leaf whose entries may contain keys >= lo,
// reading the descent's pages into buf, and returns the leaf's offset and
// page, which aliases buf. A nil lo positions at the very first leaf.
func (t *Tree) leafPos(lo []byte, buf *[]byte, read *int64) (int64, []byte, error) {
	off := t.root
	for {
		page, err := t.readPage(off, buf, read)
		if err != nil {
			return 0, nil, err
		}
		if page[0] == pageLeaf {
			return off, page, nil
		}
		offsets, seps, err := decodeInternal(page, off)
		if err != nil {
			return 0, nil, err
		}
		// Separators k1..k(n-1): child i covers keys in [ki, k(i+1)).
		child := 0
		for lo != nil && child < len(seps) && bytes.Compare(seps[child], lo) <= 0 {
			child++
		}
		off = offsets[child]
	}
}

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
		page, err := t.readPage(level[0].off, nil, &read)
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
				if pg, err = t.readPage(nd.off, nil, &read); err != nil {
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

// leafCursor is a range scan of one tree a leaf at a time, and the only
// decoder of leaf entries. Each Next decodes the current leaf's in-range
// entries — row-major record payloads — into one reused serde.Batch: a
// column vector per stored field, and the entries' sort keys as the batch's
// key column. Leaf pages are read into one buffer the cursor reuses, and
// the batch's string and bytes values and its keys alias that buffer, so
// everything borrowed from a batch is valid only until the next Next (the
// serde.Vector contract).
type leafCursor struct {
	t       *Tree
	lo, hi  []byte // byte bounds; nil = unbounded. lo is dropped once reached
	buf     []byte // the page buffer
	page    []byte // the current leaf, aliasing buf
	pos     int
	left    uint64 // entries of page not yet decoded
	nextOff int64
	batch   serde.Batch
	keys    [][]byte
	err     error
	done    bool
	read    int64 // page bytes this cursor read
}

// ScanBatch implements Index: a batch cursor over entries with
// lo <= key < hi in sort-key byte order. Either bound may be nil for
// unbounded; LowerBound and UpperBound derive byte bounds from datums.
func (t *Tree) ScanBatch(lo, hi []byte) (BatchCursor, error) {
	c := &leafCursor{}
	if err := c.open(t, lo, hi); err != nil {
		return nil, err
	}
	return c, nil
}

// Scan implements Index: the row form of ScanBatch.
func (t *Tree) Scan(lo, hi []byte) (Cursor, error) { return rows(t.ScanBatch(lo, hi)) }

// open positions c at the first leaf of [lo, hi) in t, keeping the
// buffers and the page-byte count of whatever range c scanned before.
func (c *leafCursor) open(t *Tree, lo, hi []byte) error {
	*c = leafCursor{t: t, lo: lo, hi: hi, buf: c.buf, batch: c.batch, keys: c.keys, read: c.read}
	off, page, err := t.leafPos(lo, &c.buf, &c.read)
	if err != nil {
		return err
	}
	// The descent read the first leaf; it is not read again.
	c.nextOff = off
	if err := c.useLeaf(page); err != nil || c.left > 0 {
		return err
	}
	return c.loadLeaf()
}

// loadLeaf reads the next non-empty leaf of the chain, or marks the cursor
// done at its end.
func (c *leafCursor) loadLeaf() error {
	for {
		if c.nextOff == 0 {
			c.done = true
			return nil
		}
		page, err := c.t.readPage(c.nextOff, &c.buf, &c.read)
		if err != nil {
			return err
		}
		if err := c.useLeaf(page); err != nil || c.left > 0 {
			return err
		}
	}
}

// useLeaf makes page, the leaf at nextOff, the cursor's current leaf and
// moves nextOff to its successor.
func (c *leafCursor) useLeaf(page []byte) error {
	if page[0] != pageLeaf || len(page) < 9 {
		return fmt.Errorf("btree: expected leaf at %d", c.nextOff)
	}
	// A bulk load writes each leaf before its successor, so a next
	// pointer that does not move forward is corrupt, and rejecting it
	// keeps every scan finite.
	next := int64(binary.BigEndian.Uint64(page[1:9]))
	if next != 0 && next <= c.nextOff {
		return fmt.Errorf("btree: corrupt leaf chain at %d", c.nextOff)
	}
	n, used := binary.Uvarint(page[9:])
	// An entry takes at least two bytes (its two lengths), which bounds
	// the columns a corrupt count can make the decoder allocate.
	if used <= 0 || n > uint64(len(page)-9-used)/2 {
		return fmt.Errorf("btree: corrupt leaf at %d", c.nextOff)
	}
	c.nextOff = next
	c.page = page
	c.pos = 9 + used
	c.left = n
	return nil
}

// Next decodes the next leaf holding in-range entries, returning false at
// the end of the range or on error (check Err).
func (c *leafCursor) Next() bool {
	for c.err == nil && !c.done {
		if c.left == 0 {
			c.err = c.loadLeaf()
			continue
		}
		if c.decodeLeaf() > 0 {
			return true
		}
	}
	return false
}

// decodeLeaf decodes the current leaf's remaining entries up to hi into
// the batch and returns how many it holds. Entries below lo are passed
// over by their lengths; every payload field is decoded.
func (c *leafCursor) decodeLeaf() int {
	schema, most := c.t.schema, int(c.left)
	c.batch.Reset(schema, most, 0)
	for f := 0; f < schema.NumFields(); f++ {
		c.batch.Col(f).Resize(schema.Field(f).Kind, most)
	}
	if cap(c.keys) < most {
		c.keys = make([][]byte, most)
	}
	keys := c.keys[:most]
	n := 0
	for ; c.left > 0; c.left-- {
		key, keyOK := c.field()
		payload, payloadOK := c.field()
		if !keyOK || !payloadOK {
			c.err = fmt.Errorf("btree: corrupt leaf entry")
			return 0
		}
		if c.lo != nil {
			if bytes.Compare(key, c.lo) < 0 {
				continue
			}
			c.lo = nil
		}
		if c.hi != nil && bytes.Compare(key, c.hi) >= 0 {
			c.done = true
			break
		}
		if err := decodeEntry(payload, &c.batch, n); err != nil {
			c.err = err
			return 0
		}
		keys[n] = key
		n++
	}
	c.batch.Reset(schema, n, 0)
	for f := 0; f < schema.NumFields(); f++ {
		c.batch.Col(f).Resize(schema.Field(f).Kind, n)
		c.batch.SetDecoded(f)
	}
	c.batch.SetKeys(keys[:n])
	c.batch.SelectAll()
	return n
}

// field consumes one length-prefixed byte string of the current leaf.
func (c *leafCursor) field() ([]byte, bool) {
	l, used := binary.Uvarint(c.page[c.pos:])
	if used <= 0 || l > uint64(len(c.page)-c.pos-used) {
		return nil, false
	}
	c.pos += used + int(l)
	return c.page[c.pos-int(l) : c.pos], true
}

// decodeEntry decodes one entry's record payload into row of the batch's
// columns, which hold every field of the tree's schema.
func decodeEntry(payload []byte, b *serde.Batch, row int) error {
	pos := 0
	for f := 0; f < b.Schema().NumFields(); f++ {
		var (
			used int
			err  error
		)
		col, buf := b.Col(f), payload[pos:]
		switch col.Kind() {
		case serde.KindInt64:
			used, err = serde.DecodeInt64Column(buf, col.Ints()[row:row+1])
		case serde.KindFloat64:
			used, err = serde.DecodeFloat64Column(buf, col.Floats()[row:row+1])
		case serde.KindString:
			used, err = serde.DecodeStringColumnShared(buf, col.Strs()[row:row+1])
		case serde.KindBytes:
			used, err = serde.DecodeBytesColumnShared(buf, col.Raws()[row:row+1])
		case serde.KindBool:
			used, err = serde.DecodeBoolColumn(buf, col.Bools()[row:row+1])
		}
		if err != nil {
			return fmt.Errorf("btree: field %q: %w", b.Schema().Field(f).Name, err)
		}
		pos += used
	}
	if pos != len(payload) {
		return fmt.Errorf("btree: leaf entry payload has %d stray bytes", len(payload)-pos)
	}
	return nil
}

// Batch returns the current leaf's decoded entries after a successful
// Next; reused, valid only until the next call to Next.
func (c *leafCursor) Batch() *serde.Batch { return &c.batch }

// Err returns the first error encountered.
func (c *leafCursor) Err() error { return c.err }

// BytesRead returns the page bytes the cursor has read, the descent to its
// first leaf included.
func (c *leafCursor) BytesRead() int64 { return c.read }

// rowCursor is the row form of a BatchCursor: it walks each batch's rows
// (a leaf batch selects all of them) through serde.Rows. The record and
// the key alias the batch, so both are valid only until the next call to
// Next.
type rowCursor struct {
	bc   BatchCursor
	b    *serde.Batch // the current batch; nil before the first
	rows serde.Rows
	row  int // the current row of b
}

// rows returns the row form of a batch cursor ScanBatch opened.
func rows(bc BatchCursor, err error) (Cursor, error) {
	if err != nil {
		return nil, err
	}
	return &rowCursor{bc: bc}, nil
}

func (c *rowCursor) Next() bool {
	for {
		if row, ok := c.rows.Next(); ok {
			c.row = row
			return true
		}
		if !c.bc.Next() {
			return false
		}
		c.b = c.bc.Batch()
		c.rows.Reset(c.b)
	}
}

// Key returns the current entry's full sort key (datum key + sequence).
func (c *rowCursor) Key() []byte { return c.b.Keys()[c.row] }

// KeyDatum decodes and returns the current entry's key datum.
func (c *rowCursor) KeyDatum() (serde.Datum, error) { return c.b.RowKey(c.row) }

// Record returns the current entry's record.
func (c *rowCursor) Record() *serde.Record { return c.rows.Record() }

func (c *rowCursor) Err() error { return c.bc.Err() }

func (c *rowCursor) BytesRead() int64 { return c.bc.BytesRead() }

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
