package serde

import (
	"fmt"
	"strings"
)

// Record is a tuple of datums conforming to a schema. Records are the unit
// of map() input and of structured map output values.
type Record struct {
	schema *Schema
	vals   []Datum
}

// NewRecord returns an empty (all-invalid) record for the schema.
func NewRecord(schema *Schema) *Record {
	return &Record{schema: schema, vals: make([]Datum, schema.NumFields())}
}

// Schema returns the record's schema.
func (r *Record) Schema() *Schema { return r.schema }

// Get returns the datum of the named field. It panics if the field does not
// exist; the interpreter checks field existence before calling.
func (r *Record) Get(name string) Datum {
	i := r.schema.IndexOf(name)
	if i < 0 {
		panic(fmt.Sprintf("serde: record has no field %q (schema %s)", name, r.schema))
	}
	return r.vals[i]
}

// Lookup returns the datum of the named field and whether it exists.
func (r *Record) Lookup(name string) (Datum, bool) {
	i := r.schema.IndexOf(name)
	if i < 0 {
		return Datum{}, false
	}
	return r.vals[i], true
}

// At returns the datum at field position i.
func (r *Record) At(i int) Datum { return r.vals[i] }

// Slot returns a pointer to field i's storage for in-place decoding by
// high-throughput readers (storage.Scanner), sparing a Datum copy per
// field. The caller must store a datum of the schema's kind for the field;
// SetAt is the checked path for everyone not on a per-record hot loop.
func (r *Record) Slot(i int) *Datum { return &r.vals[i] }

// SetAt stores d at field position i, checking the kind against the schema.
func (r *Record) SetAt(i int, d Datum) error {
	if want := r.schema.Field(i).Kind; d.Kind != want {
		return fmt.Errorf("serde: field %q wants %v, got %v", r.schema.Field(i).Name, want, d.Kind)
	}
	r.vals[i] = d
	return nil
}

// Set stores d under the named field, checking kind against the schema.
func (r *Record) Set(name string, d Datum) error {
	i := r.schema.IndexOf(name)
	if i < 0 {
		return fmt.Errorf("serde: record has no field %q", name)
	}
	return r.SetAt(i, d)
}

// MustSet is Set that panics on error; for test and generator code.
func (r *Record) MustSet(name string, d Datum) {
	if err := r.Set(name, d); err != nil {
		panic(err)
	}
}

// Typed accessors used by the mapper language: v.Int("rank") etc.

// Int returns the named int64 field.
func (r *Record) Int(name string) int64 { return r.get(name, KindInt64).Int() }

// Float returns the named float64 field.
func (r *Record) Float(name string) float64 { return r.get(name, KindFloat64).Float() }

// Str returns the named string field.
func (r *Record) Str(name string) string { return r.get(name, KindString).Str() }

// Raw returns the named bytes field.
func (r *Record) Raw(name string) []byte { return r.get(name, KindBytes).Raw() }

// Flag returns the named bool field.
func (r *Record) Flag(name string) bool { return r.get(name, KindBool).Flag() }

func (r *Record) get(name string, want Kind) Datum {
	d := r.Get(name)
	if d.Kind != want {
		panic(fmt.Sprintf("serde: field %q is %v, not %v", name, d.Kind, want))
	}
	return d
}

// Clone returns a deep copy of the record: string and bytes payloads are
// copied into fresh storage. This is how a caller retains a record obtained
// from a reusing iterator (storage.Scanner, mapreduce.RecordIter) past the
// iterator's next advance — reused records may alias a scan buffer that the
// producer overwrites.
func (r *Record) Clone() *Record {
	c := &Record{schema: r.schema, vals: make([]Datum, len(r.vals))}
	for i, d := range r.vals {
		c.vals[i] = d.CloneData()
	}
	return c
}

// Project returns a new record holding only the fields of sub, which must be
// a sub-schema of the record's schema.
func (r *Record) Project(sub *Schema) (*Record, error) {
	out := NewRecord(sub)
	for i := 0; i < sub.NumFields(); i++ {
		name := sub.Field(i).Name
		d, ok := r.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("serde: projection field %q missing", name)
		}
		out.vals[i] = d
	}
	return out, nil
}

// Equal reports whether two records have equal schemas and values.
func (r *Record) Equal(o *Record) bool {
	if !r.schema.Equal(o.schema) {
		return false
	}
	for i := range r.vals {
		if !r.vals[i].Equal(o.vals[i]) {
			return false
		}
	}
	return true
}

// String renders the record as {name=value, ...} for debugging.
func (r *Record) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, f := range r.schema.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.Name)
		b.WriteByte('=')
		b.WriteString(r.vals[i].String())
	}
	b.WriteByte('}')
	return b.String()
}

// AppendBinary appends the schema-implied encoding of all fields in order.
func (r *Record) AppendBinary(dst []byte) []byte {
	for i := range r.vals {
		if !r.vals[i].IsValid() {
			// Encode unset fields as the zero value of their kind so that a
			// half-built record still round-trips deterministically.
			r.vals[i] = zeroOf(r.schema.fields[i].Kind)
		}
		dst = r.vals[i].AppendValue(dst)
	}
	return dst
}

func zeroOf(k Kind) Datum { return ZeroOf(k) }

// DecodeRecord decodes a record of the given schema from buf, returning the
// record and bytes consumed.
func DecodeRecord(schema *Schema, buf []byte) (*Record, int, error) {
	r := NewRecord(schema)
	pos := 0
	for i := 0; i < schema.NumFields(); i++ {
		n, err := DecodeValueInto(schema.fields[i].Kind, buf[pos:], &r.vals[i])
		if err != nil {
			return nil, 0, fmt.Errorf("serde: field %q: %w", schema.fields[i].Name, err)
		}
		pos += n
	}
	return r, pos, nil
}
