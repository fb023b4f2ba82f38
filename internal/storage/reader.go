package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"manimal/internal/compress"
	"manimal/internal/faultinject"
	"manimal/internal/serde"
)

// Reader reads a record file written by Writer. A single Reader may serve
// multiple concurrent BatchScanners (one per map task); scanners do their own
// positioned reads, count what they read in their own ScanStats, and share
// only immutable metadata and the physical byte counter.
type Reader struct {
	f         *os.File
	path      string
	schema    *serde.Schema
	encodings []FieldEncoding
	dicts     []*compress.Dictionary
	blocks    []blockInfo
	// segs locates every block's field segments: block b, field f is
	// segs[b*NumFields+f].
	segs []segment
	// blockStats holds per-block zone-map stats (schema field order).
	blockStats [][]FieldStats
	// verified[k] records that segs[k] passed its checksum. A segment is
	// verified only when it is READ — skipped blocks and unread fields are
	// never hashed — and only the FIRST time this reader reads it: the
	// integrity check is against on-disk corruption, which is caught when
	// the bytes first enter the process; re-reads through the same open
	// reader come from the page cache. When a fault injector is installed
	// every read re-verifies, so injected corruption stays deterministic.
	verified  []atomic.Bool
	dataStart int64
	fileSize  int64
	modTime   int64 // at Open, in Unix nanoseconds: with path and size, the file identity scans share on
	bytesRead atomic.Int64
	// DirectCodes controls dictionary-field materialization: when false
	// (default) codes are decoded back to the original strings (lossless
	// compression); when true, the fabric operates directly on compact
	// code-strings and never decodes (paper's direct-operation mode).
	DirectCodes bool
}

// Open opens a record file for reading.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	r := &Reader{f: f, path: path}
	if err := r.readMeta(); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: %s: %w", path, err)
	}
	return r, nil
}

func (r *Reader) readMeta() error {
	st, err := r.f.Stat()
	if err != nil {
		return err
	}
	r.fileSize = st.Size()
	r.modTime = st.ModTime().UnixNano()

	// Every length and count below comes from the file, so each is bounded
	// by the bytes the file actually has before anything is sized from it.
	const tailLen = int64(8 + len(magicFooter))
	if r.fileSize < int64(len(magicHeader)+1)+tailLen {
		return malformed("truncated record file (%d bytes)", r.fileSize)
	}
	hdrPrefix := make([]byte, len(magicHeader)+binary.MaxVarintLen64)
	if _, err := io.ReadFull(r.f, hdrPrefix[:min(len(hdrPrefix), int(r.fileSize))]); err != nil {
		return fmt.Errorf("read header: %w", err)
	}
	if string(hdrPrefix[:len(magicHeader)]) != magicHeader {
		return malformed("bad magic: not a Manimal record file")
	}
	hdrLen, used := binary.Uvarint(hdrPrefix[len(magicHeader):])
	if used <= 0 {
		return malformed("truncated header length")
	}
	hdrOff := int64(len(magicHeader) + used)
	if avail := r.fileSize - hdrOff - tailLen; avail < 0 || hdrLen > uint64(avail) {
		return malformed("header length %d exceeds file size %d", hdrLen, r.fileSize)
	}
	hdr := make([]byte, hdrLen)
	if _, err := r.f.ReadAt(hdr, hdrOff); err != nil {
		return fmt.Errorf("read header body: %w", err)
	}
	schema, n, err := serde.DecodeSchema(hdr)
	if err != nil {
		return malformed("%v", err)
	}
	r.schema = schema
	nf := schema.NumFields()
	if nf == 0 {
		return malformed("schema has no fields")
	}
	if len(hdr[n:]) < nf {
		return malformed("truncated encoding tags")
	}
	r.encodings = make([]FieldEncoding, nf)
	for i := range r.encodings {
		e, kind := FieldEncoding(hdr[n+i]), schema.Field(i).Kind
		if e > EncodeDict || (e == EncodeDelta && !kind.Numeric()) || (e == EncodeDict && kind != serde.KindString) {
			return malformed("field %q: %v encoding of a %v field", schema.Field(i).Name, e, kind)
		}
		r.encodings[i] = e
	}
	r.dataStart = hdrOff + int64(hdrLen)

	// Footer, located via the fixed-size trailer. Only the current trailer
	// is parsed; the retired ones are recognised just far enough to say
	// which format the file is in and how to replace it.
	tail := make([]byte, tailLen)
	if _, err := r.f.ReadAt(tail, r.fileSize-tailLen); err != nil {
		return fmt.Errorf("read footer tail: %w", err)
	}
	switch magic := string(tail[8:]); magic {
	case magicFooter:
	case "MANIMAL2", "MANIMAL3", "MANIMAL4":
		return fmt.Errorf("%w: %s trailer (format v%c), readable formats: v%d; "+
			"regenerate inputs with gendata and rebuild indexes with `manimal index`",
			ErrUnsupportedFormat, magic, magic[len(magic)-1], FormatVersion)
	default:
		return malformed("bad footer magic: truncated record file")
	}
	ftrLen := binary.LittleEndian.Uint64(tail[:8])
	if ftrLen > uint64(r.fileSize-tailLen-r.dataStart) {
		return malformed("footer length %d exceeds file size %d", ftrLen, r.fileSize)
	}
	ftrStart := r.fileSize - tailLen - int64(ftrLen)
	ftr := make([]byte, ftrLen)
	if _, err := r.f.ReadAt(ftr, ftrStart); err != nil {
		return fmt.Errorf("read footer: %w", err)
	}
	return r.parseFooter(ftr, ftrStart)
}

// parseFooter decodes the footer bytes ftr, which start at file offset
// ftrStart, into the block index, zone-map stats and dictionaries. The
// footer must parse exactly: its blocks tile the data section, every
// block's record count fits in each of its segments, and no byte is left
// over.
func (r *Reader) parseFooter(ftr []byte, ftrStart int64) error {
	nf := r.schema.NumFields()
	pos := 0
	nb, used := binary.Uvarint(ftr)
	if used <= 0 {
		return malformed("truncated block index")
	}
	pos += used
	// An index entry is a record count plus, per field, a length and a
	// 4-byte checksum: the footer bounds the count before anything is sized
	// from it.
	if nb > uint64(len(ftr)-pos)/uint64(1+5*nf) {
		return malformed("block count %d exceeds footer size %d", nb, len(ftr))
	}
	r.blocks = make([]blockInfo, nb)
	r.segs = make([]segment, int(nb)*nf)
	r.verified = make([]atomic.Bool, len(r.segs))
	off := r.dataStart
	for b := range r.blocks {
		recs, used := binary.Uvarint(ftr[pos:])
		if used <= 0 {
			return malformed("truncated block index entry %d", b)
		}
		pos += used
		start := off
		for f := 0; f < nf; f++ {
			l, used := binary.Uvarint(ftr[pos:])
			if used <= 0 || len(ftr)-pos-used < 4 {
				return malformed("truncated block index entry %d", b)
			}
			pos += used
			if l > uint64(ftrStart-off) {
				return malformed("block %d segment %d lies outside the data section", b, f)
			}
			if recs > l {
				return malformed("block %d: %d records in a %d-byte segment", b, recs, l)
			}
			r.segs[b*nf+f] = segment{offset: off, length: int64(l), crc: binary.LittleEndian.Uint32(ftr[pos:])}
			pos += 4
			off += int64(l)
		}
		r.blocks[b] = blockInfo{offset: start, records: int64(recs)}
	}
	if off != ftrStart {
		return malformed("block index covers %d data bytes, the file holds %d", off-r.dataStart, ftrStart-r.dataStart)
	}
	r.blockStats = make([][]FieldStats, nb)
	for b := range r.blockStats {
		st, used, err := decodeBlockStats(ftr[pos:], r.schema)
		if err != nil {
			return malformed("block %d stats: %v", b, err)
		}
		r.blockStats[b] = st
		pos += used
	}
	r.dicts = make([]*compress.Dictionary, nf)
	for i, e := range r.encodings {
		if e != EncodeDict {
			continue
		}
		d, used, err := compress.DecodeDictionary(ftr[pos:])
		if err != nil {
			return malformed("field %q dictionary: %v", r.schema.Field(i).Name, err)
		}
		r.dicts[i] = d
		pos += used
	}
	if pos != len(ftr) {
		return malformed("%d bytes left over after the footer", len(ftr)-pos)
	}
	return nil
}

// Schema returns the file schema.
func (r *Reader) Schema() *serde.Schema { return r.schema }

// Path returns the file path the reader was opened with.
func (r *Reader) Path() string { return r.path }

// NumBlocks returns the number of storage blocks.
func (r *Reader) NumBlocks() int { return len(r.blocks) }

// RecordsInBlocks returns the number of records stored in blocks [lo, hi).
func (r *Reader) RecordsInBlocks(lo, hi int) int64 {
	var n int64
	for i := lo; i < hi && i < len(r.blocks); i++ {
		n += r.blocks[i].records
	}
	return n
}

// NumRecords returns the total number of records in the file.
func (r *Reader) NumRecords() int64 {
	var n int64
	for _, b := range r.blocks {
		n += b.records
	}
	return n
}

// Size returns the total file size in bytes (header and footer included).
func (r *Reader) Size() int64 { return r.fileSize }

// BytesRead returns the data bytes this reader has physically read so far,
// across all its scans. A follower of a shared scan reads the leader's
// batches: their bytes count in the follower scan's Stats, not here.
func (r *Reader) BytesRead() int64 { return r.bytesRead.Load() }

// Encoding returns the stored encoding of the named field.
func (r *Reader) Encoding(name string) (FieldEncoding, bool) {
	i := r.schema.IndexOf(name)
	if i < 0 {
		return EncodePlain, false
	}
	return r.encodings[i], true
}

// Dictionary returns the dictionary of a dict-encoded field, or nil.
func (r *Reader) Dictionary(name string) *compress.Dictionary {
	i := r.schema.IndexOf(name)
	if i < 0 {
		return nil
	}
	return r.dicts[i]
}

// Close closes the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// readSegments reads the segments of block i whose fields decode selects
// (nil selects all) into raw, grown as needed and returned: one positioned
// read per run of adjacent selected segments, so a full scan reads the
// block in one. segs[f] is set to field f's bytes for every selected f.
// Each selected segment is checksummed the first time this reader reads it
// (see the verified field doc) — or on every read while a fault injector is
// installed, since any read may then have been corrupted in flight. The
// bytes read count toward the reader's physical total.
func (r *Reader) readSegments(i int, decode []bool, raw []byte, segs [][]byte) ([]byte, error) {
	nf := len(segs)
	bsegs := r.segs[i*nf : (i+1)*nf]
	selected := func(f int) bool { return decode == nil || decode[f] }
	// The injection key is only materialized when an injector is installed:
	// this runs once per block read, and a disabled hook must stay at one
	// atomic load with no formatting or allocation.
	blockKey := ""
	if faultinject.Enabled() {
		blockKey = fmt.Sprintf("%s#%d", filepath.Base(r.path), i)
		if err := faultinject.Fail(faultinject.PointStorageRead, blockKey); err != nil {
			return raw, fmt.Errorf("storage: read block %d: %w", i, err)
		}
	}
	var total int64
	for f, sg := range bsegs {
		if selected(f) {
			total += sg.length
		}
	}
	if int64(cap(raw)) < total {
		raw = make([]byte, total)
	}
	raw = raw[:total]
	var pos int64
	for f := 0; f < nf; f++ {
		if !selected(f) {
			continue
		}
		start, off := pos, bsegs[f].offset
		for ; f < nf && selected(f); f++ {
			segs[f] = raw[pos : pos+bsegs[f].length]
			pos += bsegs[f].length
		}
		if _, err := r.f.ReadAt(raw[start:pos], off); err != nil {
			return raw, fmt.Errorf("storage: read block %d: %w", i, err)
		}
	}
	if blockKey != "" {
		faultinject.CorruptBytes(blockKey, raw)
	}
	r.bytesRead.Add(total)
	// Verify before decoding anything: a checksum mismatch is a definitive
	// corruption signal (classified permanent), whereas a decode failure
	// downstream of a passing checksum is a reader bug.
	for f := range bsegs {
		k := i*nf + f
		if !selected(f) || (blockKey == "" && r.verified[k].Load()) {
			continue
		}
		if crc32.Checksum(segs[f], castagnoli) != bsegs[f].crc {
			return raw, r.corruptBlock(i, nil)
		}
		r.verified[k].Store(true)
	}
	return raw, nil
}

// ReadAll is a convenience that scans the whole file into memory, one
// freshly allocated record per row.
func ReadAll(path string) ([]*serde.Record, *serde.Schema, error) {
	r, err := Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer r.Close()
	sc, err := r.ScanBatch(0, r.NumBlocks(), nil)
	if err != nil {
		return nil, nil, err
	}
	var out []*serde.Record
	var rows serde.Rows
	for sc.Next() {
		rows.Reset(sc.Batch())
		for _, ok := rows.Next(); ok; _, ok = rows.Next() {
			// The batch is reused; retaining a row requires a deep copy.
			out = append(out, rows.Record().Clone())
		}
	}
	if sc.Err() != nil {
		return nil, nil, sc.Err()
	}
	return out, r.Schema(), nil
}
