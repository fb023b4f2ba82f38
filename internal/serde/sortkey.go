package serde

import (
	"encoding/binary"
	"fmt"
	"math"
)

// SortKey encodings: order-preserving byte encodings such that
// bytes.Compare(SortKey(a), SortKey(b)) == a.Compare(b). Used for B+Tree
// keys and shuffle sorting, where comparing raw bytes is far cheaper than
// decoding datums.
//
// Layout: one kind tag byte, then a kind-specific payload:
//
//	int64   8 bytes big-endian with the sign bit flipped
//	float64 8 bytes big-endian IEEE with the standard total-order transform
//	string  raw bytes with 0x00 escaped as 0x00 0xFF, terminated by 0x00 0x00
//	bytes   same escaping as string
//	bool    one byte 0/1
//
// The escaping makes composite keys (key ++ tiebreaker) order correctly
// even when one string is a prefix of another.

// AppendSortKey appends the order-preserving encoding of d.
func (d Datum) AppendSortKey(dst []byte) []byte {
	dst = append(dst, byte(d.Kind))
	switch d.Kind {
	case KindInt64:
		return binary.BigEndian.AppendUint64(dst, d.w^(1<<63))
	case KindFloat64:
		bits := d.w
		if bits&(1<<63) != 0 {
			bits = ^bits // negative: flip all bits
		} else {
			bits |= 1 << 63 // positive: flip sign bit
		}
		return binary.BigEndian.AppendUint64(dst, bits)
	case KindString, KindBytes:
		return appendEscaped(dst, d.s)
	case KindBool:
		return append(dst, byte(d.w))
	default:
		panic("serde: AppendSortKey on invalid datum")
	}
}

// SortKey returns the order-preserving encoding of d as a fresh slice.
func (d Datum) SortKey() []byte { return d.AppendSortKey(nil) }

func appendEscaped(dst []byte, raw string) []byte {
	for i := 0; i < len(raw); i++ {
		b := raw[i]
		if b == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, b)
		}
	}
	return append(dst, 0x00, 0x00)
}

// DecodeSortKey decodes a datum from its sort-key encoding, returning the
// datum and bytes consumed. It is the inverse of AppendSortKey.
func DecodeSortKey(buf []byte) (Datum, int, error) {
	if len(buf) < 1 {
		return Datum{}, 0, fmt.Errorf("serde: empty sort key")
	}
	kind := Kind(buf[0])
	rest := buf[1:]
	switch kind {
	case KindInt64:
		if len(rest) < 8 {
			return Datum{}, 0, fmt.Errorf("serde: truncated int64 sort key")
		}
		return Int(int64(binary.BigEndian.Uint64(rest) ^ (1 << 63))), 9, nil
	case KindFloat64:
		if len(rest) < 8 {
			return Datum{}, 0, fmt.Errorf("serde: truncated float64 sort key")
		}
		bits := binary.BigEndian.Uint64(rest)
		if bits&(1<<63) != 0 {
			bits &^= 1 << 63
		} else {
			bits = ^bits
		}
		return Float(math.Float64frombits(bits)), 9, nil
	case KindString, KindBytes:
		raw, n, err := decodeEscaped(rest)
		if err != nil {
			return Datum{}, 0, err
		}
		return Datum{Kind: kind, s: unsafeString(raw)}, n + 1, nil
	case KindBool:
		if len(rest) < 1 {
			return Datum{}, 0, fmt.Errorf("serde: truncated bool sort key")
		}
		return Bool(rest[0] != 0), 2, nil
	default:
		return Datum{}, 0, fmt.Errorf("serde: bad sort key kind %d", kind)
	}
}

func decodeEscaped(buf []byte) ([]byte, int, error) {
	var out []byte
	for i := 0; i < len(buf); {
		b := buf[i]
		if b != 0x00 {
			out = append(out, b)
			i++
			continue
		}
		if i+1 >= len(buf) {
			return nil, 0, fmt.Errorf("serde: truncated escape in sort key")
		}
		switch buf[i+1] {
		case 0x00:
			return out, i + 2, nil
		case 0xFF:
			out = append(out, 0x00)
			i += 2
		default:
			return nil, 0, fmt.Errorf("serde: bad escape 0x00 0x%02x in sort key", buf[i+1])
		}
	}
	return nil, 0, fmt.Errorf("serde: unterminated sort key")
}
