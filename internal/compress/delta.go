// Package compress implements the two semantics-aware compression schemes
// Manimal applies (paper Section 2.1 and Appendix C/D, following Abadi et
// al.): delta-compression of numeric fields and dictionary compression for
// direct operation on compressed values.
package compress

import (
	"encoding/binary"
	"fmt"
	"math"

	"manimal/internal/serde"
)

// DeltaEncoder encodes a numeric field as zigzag-varint differences from the
// previous value. State resets per storage block (call Reset), so blocks
// stay independently decodable. Small deltas plus the size-sensitive varint
// representation yield the large storage savings the paper reports
// (~47% on UserVisits numerics, Table 5).
type DeltaEncoder struct {
	kind serde.Kind
	prev int64
}

// NewDeltaEncoder returns an encoder for the given numeric kind.
// Float64 values are delta-encoded on their IEEE-754 bit patterns, which is
// exact and compresses well for slowly-varying series.
func NewDeltaEncoder(kind serde.Kind) (*DeltaEncoder, error) {
	if !kind.Numeric() {
		return nil, fmt.Errorf("compress: delta encoding requires a numeric kind, got %v", kind)
	}
	return &DeltaEncoder{kind: kind}, nil
}

// Reset clears the delta chain (start of a new block).
func (e *DeltaEncoder) Reset() { e.prev = 0 }

// Append appends the delta encoding of d, which must match the encoder kind.
func (e *DeltaEncoder) Append(dst []byte, d serde.Datum) ([]byte, error) {
	if d.Kind != e.kind {
		return dst, fmt.Errorf("compress: delta encoder for %v got %v", e.kind, d.Kind)
	}
	cur := e.asInt(d)
	dst = binary.AppendVarint(dst, cur-e.prev)
	e.prev = cur
	return dst, nil
}

func (e *DeltaEncoder) asInt(d serde.Datum) int64 {
	if e.kind == serde.KindFloat64 {
		return int64(math.Float64bits(d.Float()))
	}
	return d.Int()
}

// DeltaDecoder decodes the stream produced by DeltaEncoder.
type DeltaDecoder struct {
	kind serde.Kind
	prev int64
}

// NewDeltaDecoder returns a decoder for the given numeric kind.
func NewDeltaDecoder(kind serde.Kind) (*DeltaDecoder, error) {
	if !kind.Numeric() {
		return nil, fmt.Errorf("compress: delta decoding requires a numeric kind, got %v", kind)
	}
	return &DeltaDecoder{kind: kind}, nil
}

// Reset clears the delta chain (start of a new block).
func (d *DeltaDecoder) Reset() { d.prev = 0 }

// Decode reads one value from buf, returning the datum and bytes consumed.
func (d *DeltaDecoder) Decode(buf []byte) (serde.Datum, int, error) {
	delta, n := binary.Varint(buf)
	if n <= 0 {
		return serde.Datum{}, 0, fmt.Errorf("compress: truncated delta value")
	}
	d.prev += delta
	if d.kind == serde.KindFloat64 {
		return serde.Float(math.Float64frombits(uint64(d.prev))), n, nil
	}
	return serde.Int(d.prev), n, nil
}

// DecodeColumn bulk-decodes len(dst) values of one contiguous delta chain
// into dst as RAW int64s (a prefix sum over the varint deltas), returning
// the bytes consumed. For float64 chains the raw values are IEEE-754 bit
// patterns; callers convert with math.Float64frombits. The chain is reset
// first: a column is always one whole per-block segment.
func (d *DeltaDecoder) DecodeColumn(buf []byte, dst []int64) (int, error) {
	pos := 0
	prev := int64(0)
	for i := range dst {
		delta, n := binary.Varint(buf[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("compress: truncated delta column at row %d", i)
		}
		prev += delta
		dst[i] = prev
		pos += n
	}
	d.prev = prev
	return pos, nil
}
