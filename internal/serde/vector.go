package serde

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Vector is a flat typed column: one storage block's worth of values for a
// single field, decoded into a kind-matched Go slice so predicate kernels
// and consumers run tight loops instead of per-row Datum dispatch.
//
// Ownership contract: a Vector belongs to the Batch that holds it, and the
// Batch belongs to its producer (storage.BatchScanner). Slices returned by
// the borrow accessors (Ints, Floats, Strs, Raws, Bools) are views of
// producer-owned storage — string and bytes elements may additionally alias
// the producer's block read buffer — valid only until the producer's next
// batch. Retaining one (appending it to a slice, storing it in a struct
// field, map, or channel) is a use-after-overwrite bug; retainers must copy
// the elements they need first. The vecborrow lint analyzer enforces this.
type Vector struct {
	kind   Kind
	ints   []int64
	floats []float64
	strs   []string
	raws   [][]byte
	bools  []bool
}

// Kind returns the vector's element kind.
func (v *Vector) Kind() Kind { return v.kind }

// Len returns the number of elements.
func (v *Vector) Len() int {
	switch v.kind {
	case KindInt64:
		return len(v.ints)
	case KindFloat64:
		return len(v.floats)
	case KindString:
		return len(v.strs)
	case KindBytes:
		return len(v.raws)
	case KindBool:
		return len(v.bools)
	default:
		return 0
	}
}

// Resize re-types the vector to kind with n elements, reusing prior
// capacity, and is how producers prepare a vector for bulk decoding. The
// returned-slice variants below are the write paths.
func (v *Vector) Resize(kind Kind, n int) {
	v.kind = kind
	switch kind {
	case KindInt64:
		v.ints = grow(v.ints, n)
	case KindFloat64:
		v.floats = grow(v.floats, n)
	case KindString:
		v.strs = grow(v.strs, n)
	case KindBytes:
		v.raws = grow(v.raws, n)
	case KindBool:
		v.bools = grow(v.bools, n)
	default:
		panic(fmt.Sprintf("serde: Vector.Resize invalid kind %v", kind))
	}
}

func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// ResizeInts re-types to int64 with n elements and returns the writable
// storage. The remaining Resize* variants do the same for their kinds.
func (v *Vector) ResizeInts(n int) []int64 {
	v.Resize(KindInt64, n)
	return v.ints
}

// ResizeFloats re-types to float64 with n elements (see ResizeInts).
func (v *Vector) ResizeFloats(n int) []float64 {
	v.Resize(KindFloat64, n)
	return v.floats
}

// ResizeStrs re-types to string with n elements (see ResizeInts).
func (v *Vector) ResizeStrs(n int) []string {
	v.Resize(KindString, n)
	return v.strs
}

// ResizeRaws re-types to bytes with n elements (see ResizeInts).
func (v *Vector) ResizeRaws(n int) [][]byte {
	v.Resize(KindBytes, n)
	return v.raws
}

// ResizeBools re-types to bool with n elements (see ResizeInts).
func (v *Vector) ResizeBools(n int) []bool {
	v.Resize(KindBool, n)
	return v.bools
}

// Borrow accessors. Each returns the backing slice for the vector's kind
// (nil when the vector holds another kind); see the ownership contract in
// the type comment — results are valid only until the producer's next
// batch and must not be retained.

// Ints borrows the int64 elements.
func (v *Vector) Ints() []int64 { return v.ints }

// Floats borrows the float64 elements.
func (v *Vector) Floats() []float64 { return v.floats }

// Strs borrows the string elements.
func (v *Vector) Strs() []string { return v.strs }

// Raws borrows the bytes elements.
func (v *Vector) Raws() [][]byte { return v.raws }

// Bools borrows the bool elements.
func (v *Vector) Bools() []bool { return v.bools }

// Datum returns element i boxed as a Datum. String/bytes datums alias the
// vector's storage (same validity window as the borrow accessors).
func (v *Vector) Datum(i int) Datum {
	switch v.kind {
	case KindInt64:
		return Int(v.ints[i])
	case KindFloat64:
		return Float(v.floats[i])
	case KindString:
		return String(v.strs[i])
	case KindBytes:
		return Bytes(v.raws[i])
	case KindBool:
		return Bool(v.bools[i])
	default:
		return Datum{}
	}
}

// Batch is one storage block — or one B+Tree leaf's in-range entries —
// decoded column-wise: a column vector per decoded field, a selection
// vector naming the rows that survived residual filtering, and each row's
// map key. A record file's row key is its whole-file index, Base()+row, so
// consumers observe whole-file record keys under any pruning; a B+Tree
// batch carries a key column instead, each row's raw index sort key (see
// RowKey).
//
// A Batch is reused by its producer across blocks: everything borrowed from
// it — column slices, the selection vector, datums with string/bytes
// payloads — is valid only until the producer's next batch. Consumers that
// retain row data must copy it (Record.Clone after MaterializeInto).
type Batch struct {
	schema     *Schema
	cols       []Vector
	decoded    []bool
	decodedIdx []int // decoded field indices, in schema order
	n          int
	sel        []int32
	base       int64
	keys       [][]byte // each row's sort-key bytes; nil when keyed by position
}

// Reset re-shapes the batch for a block of n rows starting at whole-file
// row index base, marking every column not-decoded. Column storage is
// retained for reuse.
func (b *Batch) Reset(schema *Schema, n int, base int64) {
	if b.schema != schema || len(b.cols) != schema.NumFields() {
		b.schema = schema
		b.cols = make([]Vector, schema.NumFields())
		b.decoded = make([]bool, schema.NumFields())
	}
	for i := range b.decoded {
		b.decoded[i] = false
	}
	b.decodedIdx = b.decodedIdx[:0]
	b.n = n
	b.base = base
	b.sel = b.sel[:0]
	b.keys = nil
}

// Schema returns the batch's record schema.
func (b *Batch) Schema() *Schema { return b.schema }

// Len returns the number of rows in the block (before selection).
func (b *Batch) Len() int { return b.n }

// Base returns the whole-file index of the block's row 0: without a key
// column, row r's record key is Base()+r.
func (b *Batch) Base() int64 { return b.base }

// SetKeys installs the batch's key column: keys[r] is row r's sort-key
// encoding (serde.AppendSortKey, possibly followed by a suffix such as a
// B+Tree entry's sequence number). The batch borrows keys until its next
// Reset, so the producer keeps them intact for the batch's lifetime.
func (b *Batch) SetKeys(keys [][]byte) { b.keys = keys }

// Keys borrows the key column (nil when the batch has none); valid until
// the producer's next batch, like the selection vector.
func (b *Batch) Keys() [][]byte { return b.keys }

// RowKey returns row's map key: the datum its key-column entry encodes, or
// Base()+row when the batch has no key column. A string or bytes key is
// decoded into fresh storage.
func (b *Batch) RowKey(row int) (Datum, error) {
	if b.keys == nil {
		return Int(b.base + int64(row)), nil
	}
	d, _, err := DecodeSortKey(b.keys[row])
	return d, err
}

// Col returns field i's column vector (for decoding into, or for kernels
// to borrow from). Meaningful only when Decoded(i) is true.
func (b *Batch) Col(i int) *Vector { return &b.cols[i] }

// Decoded reports whether field i was decoded into its vector; masked
// (field-pruned) columns are not, and materialize as their kind's zero.
func (b *Batch) Decoded(i int) bool { return b.decoded[i] }

// SetDecoded marks field i's column as holding decoded values.
func (b *Batch) SetDecoded(i int) {
	if !b.decoded[i] {
		b.decoded[i] = true
		b.decodedIdx = append(b.decodedIdx, i)
	}
}

// Sel borrows the selection vector: the ascending row numbers (0-based
// within the block) that survived residual filtering. Valid until the
// producer's next batch; do not retain.
func (b *Batch) Sel() []int32 { return b.sel }

// SelectAll selects every row of the block.
func (b *Batch) SelectAll() {
	b.sel = growSel(b.sel, b.n)
	for i := range b.sel {
		b.sel[i] = int32(i)
	}
}

// SetSelMask compacts a per-row bool mask (len == Len) into the selection
// vector. The unconditional store + conditional advance compiles without a
// per-row branch, which matters when the mask is branch-predictor-hostile
// (mid-selectivity residual filters).
func (b *Batch) SetSelMask(mask []bool) {
	sel := growSel(b.sel, b.n)
	j := 0
	for i, ok := range mask {
		sel[j] = int32(i)
		if ok {
			j++
		}
	}
	b.sel = sel[:j]
}

// SetSel copies sel (ascending block-row numbers) into the batch's own
// selection storage.
func (b *Batch) SetSel(sel []int32) {
	s := growSel(b.sel, len(sel))
	copy(s, sel)
	b.sel = s
}

func growSel(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n)
}

// MaterializeInto writes block-row `row` into rec (which must share the
// batch's schema): decoded columns provide their values — string/bytes
// fields alias vector storage, same validity window as the batch — and
// never-decoded (masked) columns provide their kind's zero value.
func (b *Batch) MaterializeInto(rec *Record, row int) {
	for i := 0; i < b.schema.NumFields(); i++ {
		slot := rec.Slot(i)
		if !b.decoded[i] {
			*slot = ZeroOf(b.schema.Field(i).Kind)
			continue
		}
		*slot = b.cols[i].Datum(row)
	}
}

// ZeroUndecoded writes every undecoded (masked) field's zero value into
// rec. Consumers materializing many rows of one batch through one reused
// record call this once, then MaterializeDecodedInto per row: masked slots
// stay zero across rows, so re-writing them per row is wasted work.
func (b *Batch) ZeroUndecoded(rec *Record) {
	for i := 0; i < b.schema.NumFields(); i++ {
		if !b.decoded[i] {
			*rec.Slot(i) = ZeroOf(b.schema.Field(i).Kind)
		}
	}
}

// MaterializeDecodedInto writes block-row `row`'s decoded columns into rec,
// leaving every other slot untouched. Preceded by ZeroUndecoded (and with
// the record unmodified in between), it is observably identical to
// MaterializeInto at a fraction of the per-row stores when most fields are
// masked. String/bytes values alias vector storage, as with
// MaterializeInto.
func (b *Batch) MaterializeDecodedInto(rec *Record, row int) {
	for _, i := range b.decodedIdx {
		*rec.Slot(i) = b.cols[i].Datum(row)
	}
}

// Rows walks a batch's selected rows through one reused record: the one
// batch-to-row walk shared by every row consumer of the batch pipeline.
// Reset zeroes the batch's undecoded fields once; Next writes each row's
// decoded columns. The record aliases the batch's vectors, so it is valid
// only until the batch's producer moves on, and the consumer must not
// modify it between rows (see ZeroUndecoded).
type Rows struct {
	b   *Batch
	rec *Record
	pos int // the next index into b's selection vector
}

// Reset starts the walk over b's selected rows.
func (r *Rows) Reset(b *Batch) {
	if r.rec == nil || r.rec.Schema() != b.Schema() {
		r.rec = NewRecord(b.Schema())
	}
	r.b, r.pos = b, 0
	b.ZeroUndecoded(r.rec)
}

// Next materializes the next selected row into Record and returns its
// block row, or false once the batch's selection is exhausted.
func (r *Rows) Next() (int, bool) {
	if r.b == nil || r.pos >= len(r.b.sel) {
		return 0, false
	}
	row := int(r.b.sel[r.pos])
	r.pos++
	r.b.MaterializeDecodedInto(r.rec, row)
	return row, true
}

// Record returns the current row's record (nil before the first Reset).
func (r *Rows) Record() *Record { return r.rec }

// Bulk column decoders: each decodes len(dst) consecutive kind-implied
// value encodings (see Datum.AppendValue) from buf into dst, returning the
// bytes consumed. They are the batch-path counterparts of DecodeValueInto,
// hoisting the per-value kind dispatch out of the loop.

// DecodeInt64Column bulk-decodes zigzag-varint int64s.
func DecodeInt64Column(buf []byte, dst []int64) (int, error) {
	pos := 0
	for i := range dst {
		if pos < len(buf) {
			if c := buf[pos]; c < 0x80 { // one-byte varint fast path
				dst[i] = int64(c>>1) ^ -int64(c&1)
				pos++
				continue
			}
		}
		v, n := binary.Varint(buf[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("serde: truncated int64 column at row %d", i)
		}
		dst[i] = v
		pos += n
	}
	return pos, nil
}

// DecodeFloat64Column bulk-decodes fixed 8-byte little-endian float64s.
func DecodeFloat64Column(buf []byte, dst []float64) (int, error) {
	if len(buf) < 8*len(dst) {
		return 0, fmt.Errorf("serde: truncated float64 column")
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return 8 * len(dst), nil
}

// DecodeBoolColumn bulk-decodes one-byte bools.
func DecodeBoolColumn(buf []byte, dst []bool) (int, error) {
	if len(buf) < len(dst) {
		return 0, fmt.Errorf("serde: truncated bool column")
	}
	for i := range dst {
		dst[i] = buf[i] != 0
	}
	return len(dst), nil
}

// DecodeStringColumnShared bulk-decodes length-prefixed strings WITHOUT
// copying: every element aliases buf. dst is valid only while buf's
// contents are intact; storing an element beyond that window requires
// Datum.CloneData (or Record.Clone).
func DecodeStringColumnShared(buf []byte, dst []string) (int, error) {
	pos := 0
	for i := range dst {
		var l, n int
		if pos < len(buf) && buf[pos] < 0x80 { // one-byte length fast path
			l, n = int(buf[pos]), 1
		} else {
			// Bound the length as an unsigned value: a corrupt uvarint of
			// 2^63 or more would turn negative as an int and pass the check.
			lv, un := binary.Uvarint(buf[pos:])
			if un <= 0 || lv > uint64(len(buf)-pos-un) {
				return 0, fmt.Errorf("serde: truncated string column at row %d", i)
			}
			l, n = int(lv), un
		}
		if pos+n+l > len(buf) {
			return 0, fmt.Errorf("serde: truncated string column at row %d", i)
		}
		dst[i] = unsafeString(buf[pos+n : pos+n+l])
		pos += n + l
	}
	return pos, nil
}

// DecodeBytesColumnShared bulk-decodes length-prefixed byte strings WITHOUT
// copying: every element aliases buf (see DecodeStringColumnShared).
func DecodeBytesColumnShared(buf []byte, dst [][]byte) (int, error) {
	pos := 0
	for i := range dst {
		lv, n := binary.Uvarint(buf[pos:])
		if n <= 0 || lv > uint64(len(buf)-pos-n) {
			return 0, fmt.Errorf("serde: truncated bytes column at row %d", i)
		}
		l := int(lv)
		dst[i] = buf[pos+n : pos+n+l : pos+n+l]
		pos += n + l
	}
	return pos, nil
}

// DecodeUvarintColumn bulk-decodes uvarints (dictionary codes) into an
// int64 slice.
func DecodeUvarintColumn(buf []byte, dst []int64) (int, error) {
	pos := 0
	for i := range dst {
		if pos < len(buf) {
			if c := buf[pos]; c < 0x80 { // one-byte uvarint fast path
				dst[i] = int64(c)
				pos++
				continue
			}
		}
		v, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("serde: truncated uvarint column at row %d", i)
		}
		dst[i] = int64(v)
		pos += n
	}
	return pos, nil
}
