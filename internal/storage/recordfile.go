// Package storage implements Manimal's on-disk record file: a blocked,
// splittable container of schema-typed records, with per-field encodings
// (plain, delta-compressed, dictionary-compressed). Both the original input
// files and every index variant the optimizer produces (projected files,
// compressed files) are record files; the B+Tree (package btree) is the one
// other on-disk structure.
//
// # On-disk format
//
// A record file is header, blocks, footer:
//
//	"MANIMAL1" | uvarint hdrLen | schema wire form | one encoding byte per field
//	repeated blocks: one value segment per schema field, in schema order
//	footer | uint64le footerLen | "MANIMAL5"
//
// Blocks are COLUMNAR and carry nothing but their fields' value segments:
// plain fields use the kind-implied serde value encoding, delta fields a
// zigzag-varint difference chain reset per block, dict fields a uvarint
// dictionary code. Every value takes at least one byte, so a block's record
// count never exceeds any of its segments' lengths. Per-field segments are
// what make scans cheap — a scan reads, checksums and decodes exactly the
// segments of the fields it decodes, one positioned read per run of
// adjacent ones, and a masked field's bytes never leave the disk. The
// footer (located via the fixed-size trailer) holds:
//
//	uvarint numBlocks
//	per block (the block index; blocks tile the data section in order):
//	    uvarint records
//	    per field: uvarint segment length | uint32le CRC32C of the segment
//	per block, per field (zone-map stats):
//	    flags byte (bit0 min present, bit1 max present)
//	    uvarint null count
//	    [min value] [max value]   — kind-implied encodings
//	per dict field: term count + length-prefixed terms in code order
//
// Every length and count read back from a file is bounded by the file's
// size before anything is allocated from it, and a footer that does not
// parse exactly fails Open with ErrMalformedFile. This is the one format
// read and written (FormatVersion): a file sealed with an earlier trailer
// ("MANIMAL2": no stats, row-interleaved payloads; "MANIMAL3": stats,
// row-interleaved payloads; "MANIMAL4": one checksum per whole block, a
// segment table inside each block) fails Open with ErrUnsupportedFormat,
// which names the version and the remedy — regenerate inputs, rebuild
// indexes.
//
// Each segment's CRC32C (Castagnoli) checksum is verified the first time a
// Reader reads that segment — skipped blocks and unread fields are never
// hashed, and re-reads through the same reader skip the hash, so pruned and
// repeated scans pay nothing for it. A mismatch surfaces as a
// CorruptBlockError (wrapping ErrCorruptBlock), which the engine classifies
// as permanent; corruption in a segment a scan does not read cannot fail
// that scan.
//
// Stats are computed on LOGICAL values before encoding, so predicates over
// original values prune delta- and dict-encoded blocks too. Numeric and
// bool bounds are exact; string/bytes bounds are conservative envelopes
// clipped to a 16-byte prefix — min is a prefix (orders at or below the
// true minimum), max is the exact value or the lexicographic successor of
// its prefix (orders at or above the true maximum), and an all-0xFF prefix
// leaves the max absent (unbounded). Pruning logic may therefore conclude
// only "no value in this block can match", never the converse.
//
// # Scans
//
// There is one scan pipeline. Reader.ScanBatch (BatchScanner) is the only
// code that decodes a block: each surviving block's unmasked fields
// bulk-decode into one reused serde.Batch of flat column vectors, the
// residual filter runs as interval kernels producing a selection vector,
// and rows are only materialized (into a caller-reused record) on demand —
// late materialization. The engine hands whole batches to the interpreter.
// Reader.ScanPushdown (Scanner) is a row cursor over the same scanner for
// callers that want one record at a time (ReadAll, key sampling): it
// walks each batch's selection vector and materializes each row into one
// reused record, keyed by Batch.Base()+row. Both therefore
// see the same surviving rows, values, record indices, and pruning
// counters by construction.
//
// # Concatenation
//
// Concat joins record files with one schema and encoding set into one
// file by copying their blocks: every segment's checksum is verified as it
// is read, block index entries and zone-map stats carry over, and only
// dictionary segments are rewritten, their codes remapped onto one merged
// dictionary in the order a single Writer would have assigned. Parallel
// index builds use it to assemble per-task parts without decoding a row.
//
// # Scan pushdown
//
// Both scanners accept a Pushdown (block-level zone-map filter, per-row
// residual filter, used-field decode mask). Ownership of LEGALITY sits
// with the planner (package optimizer): skipping blocks or rows elides
// map() invocations — admissible exactly when the paper's selection
// optimization is — and masking a field is admissible exactly when
// projection may drop it. This package applies a pushdown mechanically and
// guarantees only equivalence: surviving rows decode byte-identically to
// an unpruned scan, masked fields read as their kind's zero value, and
// record indices report stable whole-file positions.
//
// # Buffer ownership
//
// A BatchScanner reuses one Batch, its vectors, and the segment buffer
// across blocks: everything borrowed from the batch — column slices, the
// selection vector, string/bytes values aliasing the segment buffer — is
// valid only until the scanner's next batch (see serde.Vector). The row
// cursor inherits that window one row at a time: the record returned by
// Scanner.Record (and any datum read out of it) is valid only until the
// next call to Next. Callers that retain records across iterations —
// collecting into a slice, building a MemInput, buffering on the reduce
// side — must call Record().Clone(), which deep-copies the variable-length
// payloads. ReadAll already returns cloned records.
package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"

	"manimal/internal/compress"
	"manimal/internal/durable"
	"manimal/internal/faultinject"
	"manimal/internal/serde"
)

// castagnoli is the CRC32C polynomial table used for block checksums
// (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FieldEncoding selects how one field's values are stored within a block.
type FieldEncoding uint8

const (
	// EncodePlain stores the schema-implied serde encoding.
	EncodePlain FieldEncoding = iota
	// EncodeDelta stores zigzag-varint deltas (numeric fields only).
	EncodeDelta
	// EncodeDict stores dictionary codes (string fields only).
	EncodeDict
)

// String returns the encoding's name for descriptors and tooling.
func (e FieldEncoding) String() string {
	switch e {
	case EncodePlain:
		return "plain"
	case EncodeDelta:
		return "delta"
	case EncodeDict:
		return "dict"
	default:
		return fmt.Sprintf("encoding(%d)", uint8(e))
	}
}

const (
	magicHeader = "MANIMAL1"
	// magicFooter seals the footer: block index with per-segment lengths
	// and checksums, per-block zone-map stats, dictionaries. Earlier
	// trailers ("MANIMAL2" to "MANIMAL4") are rejected with
	// ErrUnsupportedFormat.
	magicFooter = "MANIMAL5"

	// FormatVersion is the one format version written and read.
	FormatVersion = 5

	// DefaultBlockSize is the target uncompressed payload per block.
	DefaultBlockSize = 256 << 10
)

// blockInfo locates one block inside the file.
type blockInfo struct {
	offset  int64
	records int64
}

// segment locates one field's value segment of one block, with the
// segment's CRC32C.
type segment struct {
	offset int64
	length int64
	crc    uint32
}

// WriterOptions configures a record file writer.
type WriterOptions struct {
	// Encodings maps field name to encoding; absent fields are plain.
	Encodings map[string]FieldEncoding
	// BlockSize is the target block payload size; 0 means DefaultBlockSize.
	BlockSize int
}

// Writer writes a record file through an atomic replacement of the
// destination (durable.File), committed only in Close: a crash (or abort)
// mid-write can never leave a partial file at a path the catalog
// fingerprints as valid, and concurrent task attempts writing the same
// destination never collide (the last Close wins the rename).
type Writer struct {
	f         *durable.File
	path      string // final destination, replaced in Close
	schema    *serde.Schema
	encodings []FieldEncoding
	deltas    []*compress.DeltaEncoder // per field, nil unless delta
	dicts     []*compress.Dictionary   // per field, nil unless dict
	blockSize int
	fieldBufs [][]byte // current block's per-field value segments
	fieldLen  int      // total bytes across fieldBufs
	blockRecs int64
	blocks    int          // blocks flushed so far
	index     []byte       // encoded block index entries, appended per flush
	curStats  []FieldStats // zone-map accumulator for the open block
	stats     []byte       // encoded per-block stats, appended per flush
	records   int64
	closed    bool
}

// NewWriter creates a record file destined for path. Any file already at
// path is untouched until Close; construction errors remove only the temp
// file.
func NewWriter(path string, schema *serde.Schema, opts WriterOptions) (*Writer, error) {
	// Readers bound a block's record count by its segment lengths, which a
	// file without fields does not have.
	if schema.NumFields() == 0 {
		return nil, fmt.Errorf("storage: %s: schema has no fields", path)
	}
	f, err := durable.Create(path)
	if err != nil {
		return nil, fmt.Errorf("storage: create %s: %w", path, err)
	}
	fail := func(err error) (*Writer, error) {
		f.Abort()
		return nil, err
	}
	w := &Writer{
		f:         f,
		path:      path,
		schema:    schema,
		encodings: make([]FieldEncoding, schema.NumFields()),
		deltas:    make([]*compress.DeltaEncoder, schema.NumFields()),
		dicts:     make([]*compress.Dictionary, schema.NumFields()),
		fieldBufs: make([][]byte, schema.NumFields()),
		curStats:  make([]FieldStats, schema.NumFields()),
		blockSize: opts.BlockSize,
	}
	if w.blockSize <= 0 {
		w.blockSize = DefaultBlockSize
	}
	for name, enc := range opts.Encodings {
		i := schema.IndexOf(name)
		if i < 0 {
			return fail(fmt.Errorf("storage: encoding for unknown field %q", name))
		}
		kind := schema.Field(i).Kind
		switch enc {
		case EncodePlain:
		case EncodeDelta:
			d, err := compress.NewDeltaEncoder(kind)
			if err != nil {
				return fail(fmt.Errorf("storage: field %q: %w", name, err))
			}
			w.deltas[i] = d
		case EncodeDict:
			if kind != serde.KindString {
				return fail(fmt.Errorf("storage: dict encoding requires string field, %q is %v", name, kind))
			}
			w.dicts[i] = compress.NewDictionary()
		default:
			return fail(fmt.Errorf("storage: unknown encoding %d for field %q", enc, name))
		}
		w.encodings[i] = enc
	}
	if _, err := f.Write(appendHeader(nil, schema, w.encodings)); err != nil {
		return fail(fmt.Errorf("storage: write header: %w", err))
	}
	return w, nil
}

// appendHeader appends a record file's header: magic, then the
// length-prefixed schema wire form and one encoding byte per field.
func appendHeader(dst []byte, schema *serde.Schema, encodings []FieldEncoding) []byte {
	var hdr []byte
	hdr = schema.AppendBinary(hdr)
	for _, e := range encodings {
		hdr = append(hdr, byte(e))
	}
	dst = append(dst, magicHeader...)
	dst = binary.AppendUvarint(dst, uint64(len(hdr)))
	return append(dst, hdr...)
}

// appendFooter appends a record file's footer and trailer: the block
// count, the encoded block index entries and per-block stats, the
// dictionary of every dict-encoded field, the footer length and the magic.
func appendFooter(dst []byte, blocks int, index, stats []byte, encodings []FieldEncoding, dicts []*compress.Dictionary) []byte {
	start := len(dst)
	dst = binary.AppendUvarint(dst, uint64(blocks))
	dst = append(dst, index...)
	dst = append(dst, stats...)
	for i, d := range dicts {
		if encodings[i] == EncodeDict {
			dst = d.AppendBinary(dst)
		}
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(dst)-start))
	return append(dst, magicFooter...)
}

// writeFault fires the write injection point for block i of the file
// destined for path. The key is materialized only when an injector is
// installed: this is the per-block write path, and a disabled hook must
// cost one atomic load.
func writeFault(path string, i int) error {
	if !faultinject.Enabled() {
		return nil
	}
	return faultinject.Fail(faultinject.PointStorageWrite, fmt.Sprintf("%s#%d", filepath.Base(path), i))
}

// Append adds one record, which must match the writer's schema.
func (w *Writer) Append(r *serde.Record) error {
	if w.closed {
		return fmt.Errorf("storage: append to closed writer")
	}
	if !r.Schema().Equal(w.schema) {
		return fmt.Errorf("storage: record schema %s != file schema %s", r.Schema(), w.schema)
	}
	for i := 0; i < w.schema.NumFields(); i++ {
		d := r.At(i)
		if !d.IsValid() {
			return fmt.Errorf("storage: record field %q unset", w.schema.Field(i).Name)
		}
		// Zone-map stats accumulate on the LOGICAL value, before any
		// encoding, so predicates over original values can prune blocks of
		// delta- and dict-encoded fields alike. Values append to the
		// field's own segment (columnar layout).
		w.curStats[i].update(d)
		was := len(w.fieldBufs[i])
		switch w.encodings[i] {
		case EncodePlain:
			w.fieldBufs[i] = d.AppendValue(w.fieldBufs[i])
		case EncodeDelta:
			var err error
			w.fieldBufs[i], err = w.deltas[i].Append(w.fieldBufs[i], d)
			if err != nil {
				return err
			}
		case EncodeDict:
			w.fieldBufs[i] = binary.AppendUvarint(w.fieldBufs[i], w.dicts[i].Encode(d.Str()))
		}
		w.fieldLen += len(w.fieldBufs[i]) - was
	}
	w.blockRecs++
	w.records++
	if w.fieldLen >= w.blockSize {
		return w.flushBlock()
	}
	return nil
}

func (w *Writer) flushBlock() error {
	if w.blockRecs == 0 {
		return nil
	}
	if err := writeFault(w.path, w.blocks); err != nil {
		return err
	}
	// The block is its segments back to back; what locates and checks them
	// goes to the footer's index entry.
	w.index = binary.AppendUvarint(w.index, uint64(w.blockRecs))
	for _, fb := range w.fieldBufs {
		if _, err := w.f.Write(fb); err != nil {
			return fmt.Errorf("storage: write block: %w", err)
		}
		w.index = binary.AppendUvarint(w.index, uint64(len(fb)))
		w.index = binary.LittleEndian.AppendUint32(w.index, crc32.Checksum(fb, castagnoli))
	}
	w.blocks++
	w.stats = appendBlockStats(w.stats, w.curStats)
	for i := range w.curStats {
		w.curStats[i].reset()
	}
	for i := range w.fieldBufs {
		w.fieldBufs[i] = w.fieldBufs[i][:0]
	}
	w.fieldLen = 0
	w.blockRecs = 0
	for _, d := range w.deltas {
		if d != nil {
			d.Reset()
		}
	}
	return nil
}

// NumRecords returns the number of records appended so far.
func (w *Writer) NumRecords() int64 { return w.records }

// Close flushes the final block, writes the footer (block index, stats,
// dictionaries), then commits (durable.File.Commit). Any failure removes
// the temp file and leaves the final path untouched.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.flushBlock(); err != nil {
		w.f.Abort()
		return err
	}
	ftr := appendFooter(nil, w.blocks, w.index, w.stats, w.encodings, w.dicts)
	if _, err := w.f.Write(ftr); err != nil {
		w.f.Abort()
		return fmt.Errorf("storage: write footer: %w", err)
	}
	if err := w.f.Commit(); err != nil {
		return fmt.Errorf("storage: commit %s: %w", w.path, err)
	}
	return nil
}

// Abort closes the writer and removes the partial temp file; used when
// the producing job (or a losing task attempt) must be discarded. The
// final path is never touched. A no-op after Close.
func (w *Writer) Abort() error {
	w.closed = true
	return w.f.Abort()
}

// Schema returns the writer's file schema.
func (w *Writer) Schema() *serde.Schema { return w.schema }
