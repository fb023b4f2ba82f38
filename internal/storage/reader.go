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
// multiple concurrent Scanners (one per map task); scanners do their own
// positioned reads and share only immutable metadata and the byte counter.
type Reader struct {
	f         *os.File
	path      string
	schema    *serde.Schema
	encodings []FieldEncoding
	dicts     []*compress.Dictionary
	blocks    []blockInfo
	// blockStats holds per-block zone-map stats (schema field order).
	blockStats [][]FieldStats
	// crcs holds per-block CRC32C checksums from the footer's "CRC1"
	// section; nil for files sealed before the section existed, which
	// verify nothing. Checksums are verified only when a block is READ —
	// skipped blocks are never hashed — and only the FIRST time this
	// reader reads the block (verified[i] below): the integrity check is
	// against on-disk corruption, which is caught when the bytes first
	// enter the process; re-reads through the same open reader come from
	// the page cache. When a fault injector is installed every read
	// re-verifies, so injected corruption stays deterministic.
	crcs      []uint32
	verified  []atomic.Bool
	dataStart int64
	fileSize  int64
	bytesRead atomic.Int64
	// Pruning-effect counters aggregated across scanners and split planning.
	blocksRead    atomic.Int64
	blocksSkipped atomic.Int64
	rowsFiltered  atomic.Int64
	// sharedScans counts split scans this reader served through a shared
	// physical scan with at least one other subscriber (see ScanShare).
	sharedScans atomic.Int64
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

	// Every length and count below comes from the file, so each is bounded
	// by the bytes the file actually has before anything is sized from it.
	const tailLen = int64(8 + len(magicFooter))
	if r.fileSize < int64(len(magicHeader)+1)+tailLen {
		return fmt.Errorf("truncated record file (%d bytes)", r.fileSize)
	}
	hdrPrefix := make([]byte, len(magicHeader)+binary.MaxVarintLen64)
	if _, err := io.ReadFull(r.f, hdrPrefix[:min(len(hdrPrefix), int(r.fileSize))]); err != nil {
		return fmt.Errorf("read header: %w", err)
	}
	if string(hdrPrefix[:len(magicHeader)]) != magicHeader {
		return fmt.Errorf("bad magic: not a Manimal record file")
	}
	hdrLen, used := binary.Uvarint(hdrPrefix[len(magicHeader):])
	if used <= 0 {
		return fmt.Errorf("truncated header length")
	}
	hdrOff := int64(len(magicHeader) + used)
	if avail := r.fileSize - hdrOff - tailLen; avail < 0 || hdrLen > uint64(avail) {
		return fmt.Errorf("header length %d exceeds file size %d", hdrLen, r.fileSize)
	}
	hdr := make([]byte, hdrLen)
	if _, err := r.f.ReadAt(hdr, hdrOff); err != nil {
		return fmt.Errorf("read header body: %w", err)
	}
	schema, n, err := serde.DecodeSchema(hdr)
	if err != nil {
		return err
	}
	r.schema = schema
	if len(hdr[n:]) < schema.NumFields() {
		return fmt.Errorf("truncated encoding tags")
	}
	r.encodings = make([]FieldEncoding, schema.NumFields())
	for i := range r.encodings {
		r.encodings[i] = FieldEncoding(hdr[n+i])
	}
	r.dataStart = hdrOff + int64(hdrLen)

	// Footer, located via the fixed-size trailer. Only the current trailer
	// is parsed; the two retired ones are recognised just far enough to say
	// which format the file is in and how to replace it.
	tail := make([]byte, tailLen)
	if _, err := r.f.ReadAt(tail, r.fileSize-tailLen); err != nil {
		return fmt.Errorf("read footer tail: %w", err)
	}
	switch magic := string(tail[8:]); magic {
	case magicFooter:
	case "MANIMAL2", "MANIMAL3":
		return fmt.Errorf("%w: %s trailer (format v%c), readable formats: v%d; "+
			"regenerate inputs with gendata and rebuild indexes with `manimal index`",
			ErrUnsupportedFormat, magic, magic[len(magic)-1], FormatVersion)
	default:
		return fmt.Errorf("bad footer magic: truncated record file")
	}
	ftrLen := binary.LittleEndian.Uint64(tail[:8])
	if ftrLen > uint64(r.fileSize-tailLen-r.dataStart) {
		return fmt.Errorf("footer length %d exceeds file size %d", ftrLen, r.fileSize)
	}
	ftrStart := r.fileSize - tailLen - int64(ftrLen)
	ftr := make([]byte, ftrLen)
	if _, err := r.f.ReadAt(ftr, ftrStart); err != nil {
		return fmt.Errorf("read footer: %w", err)
	}
	pos := 0
	nb, used := binary.Uvarint(ftr[pos:])
	if used <= 0 {
		return fmt.Errorf("truncated block index")
	}
	pos += used
	// An index entry is at least three bytes, so the footer bounds the count.
	if nb > uint64(len(ftr)-pos)/3 {
		return fmt.Errorf("block count %d exceeds footer size %d", nb, len(ftr))
	}
	r.blocks = make([]blockInfo, 0, nb)
	for i := uint64(0); i < nb; i++ {
		var b blockInfo
		for _, dst := range []*int64{&b.offset, &b.length, &b.records} {
			v, used := binary.Uvarint(ftr[pos:])
			if used <= 0 {
				return fmt.Errorf("truncated block index entry %d", i)
			}
			*dst = int64(v)
			pos += used
		}
		if b.length < 0 || b.offset < r.dataStart || b.offset > ftrStart || b.length > ftrStart-b.offset {
			return fmt.Errorf("block index entry %d lies outside the data section", i)
		}
		r.blocks = append(r.blocks, b)
	}
	r.blockStats = make([][]FieldStats, 0, nb)
	for i := uint64(0); i < nb; i++ {
		st, used, err := decodeBlockStats(ftr[pos:], schema)
		if err != nil {
			return fmt.Errorf("block %d stats: %w", i, err)
		}
		r.blockStats = append(r.blockStats, st)
		pos += used
	}
	r.dicts = make([]*compress.Dictionary, schema.NumFields())
	for i, e := range r.encodings {
		if e != EncodeDict {
			continue
		}
		d, used, err := compress.DecodeDictionary(ftr[pos:])
		if err != nil {
			return fmt.Errorf("field %q dictionary: %w", schema.Field(i).Name, err)
		}
		r.dicts[i] = d
		pos += used
	}
	// Optional per-block checksum section ("CRC1" + one uint32le per
	// block). Files sealed before the section existed end here; their
	// blocks verify nothing.
	if pos+len(magicChecksums) <= len(ftr) && string(ftr[pos:pos+len(magicChecksums)]) == magicChecksums {
		pos += len(magicChecksums)
		if len(ftr)-pos < 4*len(r.blocks) {
			return fmt.Errorf("truncated checksum section")
		}
		r.crcs = make([]uint32, len(r.blocks))
		r.verified = make([]atomic.Bool, len(r.blocks))
		for i := range r.crcs {
			r.crcs[i] = binary.LittleEndian.Uint32(ftr[pos:])
			pos += 4
		}
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

// BytesRead returns the data bytes scanned so far across all scanners.
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

// Scanner iterates over the records of a contiguous block range one row at
// a time. It is a cursor over a BatchScanner: each block decodes once into
// column vectors, and Next walks the block's selection vector,
// late-materializing each surviving row into one reused record. It is not
// safe for concurrent use; create one scanner per map task.
//
// Buffer ownership: the record's string and bytes fields alias the batch
// scanner's column vectors and block buffer, so a full scan performs no
// per-record allocations. The record returned by Record is therefore valid
// only until the next call to Next; callers that retain records across
// iterations must call Record().Clone().
type Scanner struct {
	bs    *BatchScanner
	b     *serde.Batch  // current block; nil before the first one
	pos   int           // next entry of b's selection vector
	rec   *serde.Record // reused current record; see ownership note
	idx   int64
	valid bool
}

// Scan returns a scanner over blocks [lo, hi). Passing (0, NumBlocks())
// scans the whole file.
func (r *Reader) Scan(lo, hi int) (*Scanner, error) { return r.ScanPushdown(lo, hi, nil) }

// ScanPushdown returns a scanner over blocks [lo, hi) with the given
// pushdown applied (nil scans everything; see Pushdown for semantics and
// the legality contract). Pruned and unpruned scans agree exactly on the
// surviving records: values decode identically, masked fields read as
// their kind's zero value, and RecordIndex reflects whole-file positions.
func (r *Reader) ScanPushdown(lo, hi int, pd *Pushdown) (*Scanner, error) {
	bs, err := r.ScanBatch(lo, hi, pd)
	if err != nil {
		return nil, err
	}
	return &Scanner{bs: bs, rec: serde.NewRecord(r.schema)}, nil
}

// ScanAll returns a scanner over the entire file.
func (r *Reader) ScanAll() (*Scanner, error) { return r.Scan(0, len(r.blocks)) }

// Next advances to the next surviving record, returning false at the end
// of the range or on error (check Err). With a pushdown installed it
// transparently skips blocks the zone maps rule out (without reading their
// payload) and rows the residual filter rejects.
func (s *Scanner) Next() bool {
	for s.b == nil || s.pos >= len(s.b.Sel()) {
		s.valid = false
		if !s.bs.Next() {
			return false
		}
		s.b, s.pos = s.bs.Batch(), 0
		// Masked slots are written once per block and stay zero while the
		// decoded columns cycle per row.
		s.b.ZeroUndecoded(s.rec)
	}
	row := int(s.b.Sel()[s.pos])
	s.pos++
	s.b.MaterializeDecodedInto(s.rec, row)
	s.idx = s.b.Base() + int64(row)
	s.valid = true
	return true
}

// RecordIndex returns the current record's position in the WHOLE file
// (counting records in skipped blocks and residual-dropped rows), so
// callers keying records by position see identical keys with and without
// pruning. Valid after a successful Next.
func (s *Scanner) RecordIndex() int64 { return s.idx }

// Record returns the current record after a successful Next. The returned
// record is reused by the scanner: it is valid only until the next call to
// Next. Callers that retain it (or datums extracted from its string/bytes
// fields) past that point must Clone it.
func (s *Scanner) Record() *serde.Record {
	if !s.valid {
		return nil
	}
	return s.rec
}

// Err returns the first error encountered while scanning.
func (s *Scanner) Err() error { return s.bs.Err() }

// readBlockPayload reads block i into raw (grown as needed) and parses the
// block header, returning the payload, the record count, and the (possibly
// reallocated) raw buffer. It accounts the read in the bytes/blocks-read
// counters.
func (r *Reader) readBlockPayload(i int, raw []byte) ([]byte, int64, []byte, error) {
	b := r.blocks[i]
	// The injection key is only materialized when an injector is installed:
	// this runs once per block read, and a disabled hook must stay at one
	// atomic load with no formatting or allocation.
	blockKey := ""
	if faultinject.Enabled() {
		blockKey = fmt.Sprintf("%s#%d", filepath.Base(r.path), i)
		if err := faultinject.Fail(faultinject.PointStorageRead, blockKey); err != nil {
			return nil, 0, raw, fmt.Errorf("storage: read block %d: %w", i, err)
		}
	}
	if int64(cap(raw)) < b.length {
		raw = make([]byte, b.length)
	}
	raw = raw[:b.length]
	if _, err := r.f.ReadAt(raw, b.offset); err != nil {
		return nil, 0, raw, fmt.Errorf("storage: read block %d: %w", i, err)
	}
	if blockKey != "" {
		faultinject.CorruptBytes(blockKey, raw)
	}
	r.bytesRead.Add(b.length)
	r.blocksRead.Add(1)
	// Verify before parsing anything out of the block: a checksum mismatch
	// is a definitive corruption signal (classified permanent), whereas a
	// parse failure downstream of a passing checksum is a reader bug.
	// Once a block has verified clean it is not re-hashed on later reads
	// through this reader (see the verified field doc) — unless a fault
	// injector is installed (blockKey != ""), where every read may have
	// been corrupted in flight and must be re-checked.
	if r.crcs != nil && (blockKey != "" || !r.verified[i].Load()) {
		if crc32.Checksum(raw, castagnoli) != r.crcs[i] {
			return nil, 0, raw, r.corruptBlock(i, nil)
		}
		r.verified[i].Store(true)
	}
	payloadLen, n1 := binary.Uvarint(raw)
	if n1 <= 0 {
		return nil, 0, raw, r.corruptBlock(i, fmt.Errorf("truncated payload length"))
	}
	recs, n2 := binary.Uvarint(raw[n1:])
	if n2 <= 0 {
		return nil, 0, raw, r.corruptBlock(i, fmt.Errorf("truncated record count"))
	}
	if int64(n1+n2)+int64(payloadLen) != b.length {
		return nil, 0, raw, r.corruptBlock(i, fmt.Errorf("block length mismatch"))
	}
	return raw[n1+n2:], int64(recs), raw, nil
}

// parseSegments parses a block payload's segment-length table into
// segLens (one entry per schema field), returning the offset of the first
// segment within the payload. Segment lengths must exactly tile the rest of
// the payload.
func (r *Reader) parseSegments(i int, payload []byte, segLens []int) (int, error) {
	pos := 0
	total := 0
	for f := range segLens {
		v, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return 0, r.corruptBlock(i, fmt.Errorf("truncated segment table"))
		}
		segLens[f] = int(v)
		total += int(v)
		pos += n
	}
	if pos+total != len(payload) {
		return 0, r.corruptBlock(i, fmt.Errorf("segment lengths do not tile payload"))
	}
	return pos, nil
}

// ReadAll is a convenience that scans the whole file into memory.
func ReadAll(path string) ([]*serde.Record, *serde.Schema, error) {
	r, err := Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer r.Close()
	sc, err := r.ScanAll()
	if err != nil {
		return nil, nil, err
	}
	var out []*serde.Record
	for sc.Next() {
		// The scanner reuses its record; retaining requires a deep copy.
		out = append(out, sc.Record().Clone())
	}
	if sc.Err() != nil {
		return nil, nil, sc.Err()
	}
	return out, r.Schema(), nil
}
