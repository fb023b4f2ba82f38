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
//
// It is 32 bytes (TestDatumSize): w holds the int64, the float64's IEEE bits
// or the bool, and s the string payload or — viewed as bytes — the bytes
// payload. Only the payload of the datum's own Kind is live, so each typed
// accessor (Int, Float, Str, Raw, Flag) answers for exactly one kind and
// returns its type's zero value for any other; see "Value representation"
// in the package documentation. Datums are built only through Int, Float,
// String, Bytes and Bool.
type Datum struct {
	Kind Kind
	w    uint64
	s    string
}

// Constructors for each kind.
func Int(v int64) Datum     { return Datum{Kind: KindInt64, w: uint64(v)} }
func Float(v float64) Datum { return Datum{Kind: KindFloat64, w: math.Float64bits(v)} }
func String(v string) Datum { return Datum{Kind: KindString, s: v} }

// Bytes wraps v without copying: the datum aliases v's storage, so the
// caller must not mutate v while the datum, or any copy of it, is in use.
func Bytes(v []byte) Datum { return Datum{Kind: KindBytes, s: unsafeString(v)} }

func Bool(v bool) Datum {
	if v {
		return Datum{Kind: KindBool, w: 1}
	}
	return Datum{Kind: KindBool}
}

// Int returns the payload of a KindInt64 datum, and 0 for any other kind.
func (d Datum) Int() int64 {
	if d.Kind != KindInt64 {
		return 0
	}
	return int64(d.w)
}

// Float returns the payload of a KindFloat64 datum, and 0 for any other kind.
func (d Datum) Float() float64 {
	if d.Kind != KindFloat64 {
		return 0
	}
	return math.Float64frombits(d.w)
}

// Str returns the payload of a KindString datum, and "" for any other kind.
func (d Datum) Str() string {
	if d.Kind != KindString {
		return ""
	}
	return d.s
}

// Raw returns the payload of a KindBytes datum, and nil for any other kind.
// Nil and empty bytes are one value: an empty payload has length 0 and may
// come back as either.
//
// The result is a read-only borrow: it views the datum's storage, which may
// be a shared decode buffer (same lifetime as Vector.Strs) and which other
// copies of the datum share. Writing through it is a bug; copy first.
func (d Datum) Raw() []byte {
	if d.Kind != KindBytes {
		return nil
	}
	return d.view()
}

// Flag returns the payload of a KindBool datum, and false for any other kind.
func (d Datum) Flag() bool { return d.Kind == KindBool && d.w != 0 }

// view is the string-or-bytes payload as bytes, uncopied.
func (d Datum) view() []byte { return unsafe.Slice(unsafe.StringData(d.s), len(d.s)) }

// IsValid reports whether the datum carries a value.
func (d Datum) IsValid() bool { return d.Kind != KindInvalid }

// Equal reports deep value equality. Datums of different kinds are unequal.
func (d Datum) Equal(o Datum) bool {
	if d.Kind != o.Kind {
		return false
	}
	switch d.Kind {
	case KindInt64, KindBool:
		return d.w == o.w
	case KindFloat64:
		return math.Float64frombits(d.w) == math.Float64frombits(o.w)
	case KindString, KindBytes:
		return d.s == o.s
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
		return cmpOrdered(int64(d.w), int64(o.w))
	case KindFloat64:
		return cmpOrdered(math.Float64frombits(d.w), math.Float64frombits(o.w))
	case KindString, KindBytes:
		return bytes.Compare(d.view(), o.view())
	case KindBool:
		return cmpOrdered(d.w, o.w)
	default:
		return 0
	}
}

func cmpOrdered[T int64 | uint64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// String renders the datum for debugging and table output.
func (d Datum) String() string {
	switch d.Kind {
	case KindInt64:
		return strconv.FormatInt(int64(d.w), 10)
	case KindFloat64:
		return strconv.FormatFloat(math.Float64frombits(d.w), 'g', -1, 64)
	case KindString:
		return d.s
	case KindBytes:
		return fmt.Sprintf("0x%x", d.s)
	case KindBool:
		return strconv.FormatBool(d.w != 0)
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
		return binary.AppendVarint(dst, int64(d.w))
	case KindFloat64:
		return binary.LittleEndian.AppendUint64(dst, d.w)
	case KindString, KindBytes:
		dst = binary.AppendUvarint(dst, uint64(len(d.s)))
		return append(dst, d.s...)
	case KindBool:
		return append(dst, byte(d.w))
	default:
		panic("serde: AppendValue on invalid datum")
	}
}

// DecodeValue decodes a datum of the given kind from buf, returning the
// datum and bytes consumed. String and bytes payloads are copied out of buf.
func DecodeValue(kind Kind, buf []byte) (Datum, int, error) {
	var d Datum
	n, err := DecodeValueInto(kind, buf, &d)
	return d, n, err
}

// DecodeValueInto is DecodeValue decoding into *dst in place, sparing the
// caller a Datum copy per field on record-decode hot paths.
func DecodeValueInto(kind Kind, buf []byte, dst *Datum) (int, error) {
	switch kind {
	case KindInt64:
		v, n := binary.Varint(buf)
		if n <= 0 {
			return 0, fmt.Errorf("serde: truncated int64")
		}
		*dst = Datum{Kind: KindInt64, w: uint64(v)}
		return n, nil
	case KindFloat64:
		if len(buf) < 8 {
			return 0, fmt.Errorf("serde: truncated float64")
		}
		*dst = Datum{Kind: KindFloat64, w: binary.LittleEndian.Uint64(buf)}
		return 8, nil
	case KindString, KindBytes:
		l, n := binary.Uvarint(buf)
		if n <= 0 || l > uint64(len(buf)-n) {
			return 0, fmt.Errorf("serde: truncated %v", kind)
		}
		*dst = Datum{Kind: kind, s: string(buf[n : n+int(l)])}
		return n + int(l), nil
	case KindBool:
		if len(buf) < 1 {
			return 0, fmt.Errorf("serde: truncated bool")
		}
		*dst = Bool(buf[0] != 0)
		return 1, nil
	default:
		return 0, fmt.Errorf("serde: decode of invalid kind %v", kind)
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
	if d.Kind == KindString || d.Kind == KindBytes {
		d.s = strings.Clone(d.s)
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
