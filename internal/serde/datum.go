package serde

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Datum is a single scalar runtime value: the unit of map keys, map values
// within records, and interpreter computation. The zero Datum is invalid.
type Datum struct {
	Kind Kind
	I    int64
	F    float64
	S    string
	B    []byte
	Bool bool
}

// Constructors for each kind.
func Int(v int64) Datum     { return Datum{Kind: KindInt64, I: v} }
func Float(v float64) Datum { return Datum{Kind: KindFloat64, F: v} }
func String(v string) Datum { return Datum{Kind: KindString, S: v} }
func Bytes(v []byte) Datum  { return Datum{Kind: KindBytes, B: v} }
func Bool(v bool) Datum     { return Datum{Kind: KindBool, Bool: v} }

// IsValid reports whether the datum carries a value.
func (d Datum) IsValid() bool { return d.Kind != KindInvalid }

// Equal reports deep value equality. Datums of different kinds are unequal.
func (d Datum) Equal(o Datum) bool {
	if d.Kind != o.Kind {
		return false
	}
	switch d.Kind {
	case KindInt64:
		return d.I == o.I
	case KindFloat64:
		return d.F == o.F
	case KindString:
		return d.S == o.S
	case KindBytes:
		return bytes.Equal(d.B, o.B)
	case KindBool:
		return d.Bool == o.Bool
	default:
		return true
	}
}

// Compare orders two datums. Datums of different kinds order by kind tag,
// so heterogeneous shuffle keys still have a total order. Returns -1/0/+1.
func (d Datum) Compare(o Datum) int {
	if d.Kind != o.Kind {
		if d.Kind < o.Kind {
			return -1
		}
		return 1
	}
	switch d.Kind {
	case KindInt64:
		return cmpOrdered(d.I, o.I)
	case KindFloat64:
		return cmpOrdered(d.F, o.F)
	case KindString:
		return bytes.Compare([]byte(d.S), []byte(o.S))
	case KindBytes:
		return bytes.Compare(d.B, o.B)
	case KindBool:
		return cmpBool(d.Bool, o.Bool)
	default:
		return 0
	}
}

func cmpOrdered[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	default:
		return 1
	}
}

// String renders the datum for debugging and table output.
func (d Datum) String() string {
	switch d.Kind {
	case KindInt64:
		return strconv.FormatInt(d.I, 10)
	case KindFloat64:
		return strconv.FormatFloat(d.F, 'g', -1, 64)
	case KindString:
		return d.S
	case KindBytes:
		return fmt.Sprintf("0x%x", d.B)
	case KindBool:
		return strconv.FormatBool(d.Bool)
	default:
		return "<invalid>"
	}
}

// AppendValue appends the kind-implied encoding of the datum (no tag byte):
// int64 as zigzag varint, float64 as 8 fixed bytes, string/bytes as
// uvarint length + raw bytes, bool as one byte.
func (d Datum) AppendValue(dst []byte) []byte {
	switch d.Kind {
	case KindInt64:
		return binary.AppendVarint(dst, d.I)
	case KindFloat64:
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(d.F))
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(d.S)))
		return append(dst, d.S...)
	case KindBytes:
		dst = binary.AppendUvarint(dst, uint64(len(d.B)))
		return append(dst, d.B...)
	case KindBool:
		if d.Bool {
			return append(dst, 1)
		}
		return append(dst, 0)
	default:
		panic("serde: AppendValue on invalid datum")
	}
}

// DecodeValue decodes a datum of the given kind from buf, returning the
// datum and bytes consumed.
func DecodeValue(kind Kind, buf []byte) (Datum, int, error) {
	switch kind {
	case KindInt64:
		v, n := binary.Varint(buf)
		if n <= 0 {
			return Datum{}, 0, fmt.Errorf("serde: truncated int64")
		}
		return Int(v), n, nil
	case KindFloat64:
		if len(buf) < 8 {
			return Datum{}, 0, fmt.Errorf("serde: truncated float64")
		}
		return Float(math.Float64frombits(binary.LittleEndian.Uint64(buf))), 8, nil
	case KindString:
		l, n := binary.Uvarint(buf)
		if n <= 0 || n+int(l) > len(buf) {
			return Datum{}, 0, fmt.Errorf("serde: truncated string")
		}
		return String(string(buf[n : n+int(l)])), n + int(l), nil
	case KindBytes:
		l, n := binary.Uvarint(buf)
		if n <= 0 || n+int(l) > len(buf) {
			return Datum{}, 0, fmt.Errorf("serde: truncated bytes")
		}
		return Bytes(append([]byte(nil), buf[n:n+int(l)]...)), n + int(l), nil
	case KindBool:
		if len(buf) < 1 {
			return Datum{}, 0, fmt.Errorf("serde: truncated bool")
		}
		return Bool(buf[0] != 0), 1, nil
	default:
		return Datum{}, 0, fmt.Errorf("serde: decode of invalid kind %v", kind)
	}
}

// DecodeValueInto is DecodeValue decoding into *dst in place, sparing the
// caller a 64-byte Datum copy per field on record-decode hot paths.
func DecodeValueInto(kind Kind, buf []byte, dst *Datum) (int, error) {
	switch kind {
	case KindInt64:
		v, n := binary.Varint(buf)
		if n <= 0 {
			return 0, fmt.Errorf("serde: truncated int64")
		}
		*dst = Datum{Kind: KindInt64, I: v}
		return n, nil
	case KindFloat64:
		if len(buf) < 8 {
			return 0, fmt.Errorf("serde: truncated float64")
		}
		*dst = Datum{Kind: KindFloat64, F: math.Float64frombits(binary.LittleEndian.Uint64(buf))}
		return 8, nil
	case KindBool:
		if len(buf) < 1 {
			return 0, fmt.Errorf("serde: truncated bool")
		}
		*dst = Datum{Kind: KindBool, Bool: buf[0] != 0}
		return 1, nil
	default:
		d, n, err := DecodeValue(kind, buf)
		if err != nil {
			return 0, err
		}
		*dst = d
		return n, nil
	}
}

// DecodeTaggedInto is DecodeTagged decoding into *dst in place.
func DecodeTaggedInto(buf []byte, dst *Datum) (int, error) {
	if len(buf) < 1 {
		return 0, fmt.Errorf("serde: truncated tagged datum")
	}
	n, err := DecodeValueInto(Kind(buf[0]), buf[1:], dst)
	return n + 1, err
}

// unsafeString views b as a string without copying. Callers must guarantee
// b is never mutated while the string is reachable.
func unsafeString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// CloneData returns the datum with its variable-length payload (string or
// bytes) copied into fresh storage, detaching it from any shared buffer a
// shared column decode (DecodeStringColumnShared) produced it from.
func (d Datum) CloneData() Datum {
	switch d.Kind {
	case KindString:
		d.S = strings.Clone(d.S)
	case KindBytes:
		d.B = append([]byte(nil), d.B...)
	}
	return d
}

// ZeroOf returns the zero value of a kind (0, 0.0, "", nil bytes, false).
// Record readers use it to give never-decoded (field-pruned) slots a
// deterministic value instead of stale bytes from a previous row.
func ZeroOf(k Kind) Datum {
	switch k {
	case KindInt64:
		return Int(0)
	case KindFloat64:
		return Float(0)
	case KindString:
		return String("")
	case KindBytes:
		return Bytes(nil)
	case KindBool:
		return Bool(false)
	default:
		panic("serde: ZeroOf invalid kind")
	}
}

// AppendTagged appends a self-describing encoding: one kind tag byte
// followed by the kind-implied value encoding. Used for shuffle keys whose
// kind is not fixed by a schema.
func (d Datum) AppendTagged(dst []byte) []byte {
	dst = append(dst, byte(d.Kind))
	return d.AppendValue(dst)
}

// DecodeTagged decodes a datum written by AppendTagged.
func DecodeTagged(buf []byte) (Datum, int, error) {
	if len(buf) < 1 {
		return Datum{}, 0, fmt.Errorf("serde: truncated tagged datum")
	}
	d, n, err := DecodeValue(Kind(buf[0]), buf[1:])
	return d, n + 1, err
}
