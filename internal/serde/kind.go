// Package serde implements the typed record model that Manimal jobs operate
// on: schemas, scalar datums, records, their binary wire encodings, and
// order-preserving sort-key encodings used by the shuffle and the B+Tree.
//
// A file of serialized records plus its schema plays the role of the
// "serialized class declares the file's schema" observation from the paper
// (Section 2.2): the schema is what lets the analyzer reason about fields.
//
// Alongside the row-oriented Record, the package provides the columnar
// units of the scan pipeline (vector.go): Vector, a flat typed column, and
// Batch, one storage block decoded column-wise with a selection vector,
// plus per-encoding bulk decoders. Vectors and batches are producer-owned
// and reused — everything borrowed from them is valid only until the
// producer's next batch (retainers copy); row-at-a-time consumers
// (storage.Scanner) materialize a batch's selected rows one by one via
// MaterializeInto.
//
// # Value representation
//
// A Datum is 32 bytes: the Kind tag, one 64-bit word (the int64, the
// float64's IEEE bits, or the bool) and one string (the string payload, or
// the bytes payload viewed as a string). Datums are copied by value
// everywhere — out of records and vectors, through every interpreter
// closure — and on amd64 a copy above 64 bytes stops being inline moves, so
// the size is a test (TestDatumSize). Datums are built only with Int,
// Float, String, Bytes and Bool, and read through the accessor of their
// Kind — Int() for KindInt64, Float() for KindFloat64, Str() for
// KindString, Raw() for KindBytes, Flag() for KindBool; an accessor called
// on a datum of any other kind returns its type's zero value. Bytes(b)
// aliases b, and Raw() is a read-only borrow of the datum's storage with
// the same lifetime as Vector.Strs(): valid until the producer's next
// batch, shared with every copy of the datum, never written through.
// CloneData detaches a string or bytes datum from that storage.
package serde

import "fmt"

// Kind identifies the runtime type of a scalar value.
type Kind uint8

// The supported scalar kinds. KindInvalid is the zero value and never
// appears in a valid schema.
const (
	KindInvalid Kind = iota
	KindInt64
	KindFloat64
	KindString
	KindBytes
	KindBool
)

// String returns the lower-case name of the kind as used in schema text.
func (k Kind) String() string {
	switch k {
	case KindInt64:
		return "int64"
	case KindFloat64:
		return "float64"
	case KindString:
		return "string"
	case KindBytes:
		return "bytes"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("invalid(%d)", uint8(k))
	}
}

// KindOf parses a kind name as produced by Kind.String.
func KindOf(name string) (Kind, error) {
	switch name {
	case "int64", "int":
		return KindInt64, nil
	case "float64", "float":
		return KindFloat64, nil
	case "string":
		return KindString, nil
	case "bytes":
		return KindBytes, nil
	case "bool":
		return KindBool, nil
	default:
		return KindInvalid, fmt.Errorf("serde: unknown kind %q", name)
	}
}

// Numeric reports whether the kind is numeric, i.e. eligible for
// delta-compression (paper Appendix C).
func (k Kind) Numeric() bool { return k == KindInt64 || k == KindFloat64 }
