package serde

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Field is one named, typed column of a schema.
type Field struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of fields. It is immutable after construction.
type Schema struct {
	fields []Field
	byName map[string]int
}

// NewSchema builds a schema from the given fields. Field names must be
// unique and non-empty, and kinds must be valid.
func NewSchema(fields ...Field) (*Schema, error) {
	s := &Schema{
		fields: append([]Field(nil), fields...),
		byName: make(map[string]int, len(fields)),
	}
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("serde: field %d has empty name", i)
		}
		if f.Kind == KindInvalid || f.Kind > KindBool {
			return nil, fmt.Errorf("serde: field %q has invalid kind", f.Name)
		}
		if _, dup := s.byName[f.Name]; dup {
			return nil, fmt.Errorf("serde: duplicate field name %q", f.Name)
		}
		s.byName[f.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for statically-known schemas.
func MustSchema(fields ...Field) *Schema {
	s, err := NewSchema(fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// ParseSchema parses a compact textual schema of the form
// "name:kind,name:kind,...", e.g. "url:string,rank:int64,content:string".
func ParseSchema(text string) (*Schema, error) {
	if strings.TrimSpace(text) == "" {
		return nil, fmt.Errorf("serde: empty schema text")
	}
	parts := strings.Split(text, ",")
	fields := make([]Field, 0, len(parts))
	for _, p := range parts {
		nk := strings.SplitN(strings.TrimSpace(p), ":", 2)
		if len(nk) != 2 {
			return nil, fmt.Errorf("serde: bad field spec %q", p)
		}
		k, err := KindOf(strings.TrimSpace(nk[1]))
		if err != nil {
			return nil, err
		}
		fields = append(fields, Field{Name: strings.TrimSpace(nk[0]), Kind: k})
	}
	return NewSchema(fields...)
}

// NumFields returns the number of fields.
func (s *Schema) NumFields() int { return len(s.fields) }

// Field returns the i-th field.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// Fields returns a copy of the field list.
func (s *Schema) Fields() []Field { return append([]Field(nil), s.fields...) }

// IndexOf returns the position of the named field, or -1 if absent.
func (s *Schema) IndexOf(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Has reports whether the schema contains the named field.
func (s *Schema) Has(name string) bool { return s.IndexOf(name) >= 0 }

// KindOf returns the kind of the named field and whether it exists.
func (s *Schema) KindOf(name string) (Kind, bool) {
	i := s.IndexOf(name)
	if i < 0 {
		return KindInvalid, false
	}
	return s.fields[i].Kind, true
}

// FieldNames returns the field names in schema order.
func (s *Schema) FieldNames() []string {
	names := make([]string, len(s.fields))
	for i, f := range s.fields {
		names[i] = f.Name
	}
	return names
}

// Project returns a new schema containing only the named fields, in the
// order given. This is the schema of a projection-optimized file.
func (s *Schema) Project(names ...string) (*Schema, error) {
	fields := make([]Field, 0, len(names))
	for _, n := range names {
		i := s.IndexOf(n)
		if i < 0 {
			return nil, fmt.Errorf("serde: projected field %q not in schema", n)
		}
		fields = append(fields, s.fields[i])
	}
	return NewSchema(fields...)
}

// Equal reports whether the two schemas have identical fields in order.
func (s *Schema) Equal(o *Schema) bool {
	// One schema value is shared by every record of a file or job, so the
	// per-record write paths almost always compare a schema with itself.
	if s == o {
		return true
	}
	if s == nil || o == nil {
		return s == o
	}
	if len(s.fields) != len(o.fields) {
		return false
	}
	for i := range s.fields {
		if s.fields[i] != o.fields[i] {
			return false
		}
	}
	return true
}

// String returns the compact textual form accepted by ParseSchema.
func (s *Schema) String() string {
	var b strings.Builder
	for i, f := range s.fields {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(f.Name)
		b.WriteByte(':')
		b.WriteString(f.Kind.String())
	}
	return b.String()
}

// AppendBinary appends the wire encoding of the schema (for file headers).
func (s *Schema) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s.fields)))
	for _, f := range s.fields {
		dst = binary.AppendUvarint(dst, uint64(len(f.Name)))
		dst = append(dst, f.Name...)
		dst = append(dst, byte(f.Kind))
	}
	return dst
}

// DecodeSchema decodes a schema from buf, returning the schema and the
// number of bytes consumed.
func DecodeSchema(buf []byte) (*Schema, int, error) {
	n, used := binary.Uvarint(buf)
	if used <= 0 {
		return nil, 0, fmt.Errorf("serde: truncated schema header")
	}
	pos := used
	// A field takes at least a name length and a kind byte.
	if n > uint64(len(buf)-pos)/2 {
		return nil, 0, fmt.Errorf("serde: schema of %d fields in %d bytes", n, len(buf))
	}
	fields := make([]Field, 0, n)
	for i := uint64(0); i < n; i++ {
		l, used := binary.Uvarint(buf[pos:])
		if used <= 0 {
			return nil, 0, fmt.Errorf("serde: truncated schema field %d", i)
		}
		pos += used
		if l >= uint64(len(buf)-pos) {
			return nil, 0, fmt.Errorf("serde: truncated schema field name %d", i)
		}
		name := string(buf[pos : pos+int(l)])
		pos += int(l)
		kind := Kind(buf[pos])
		pos++
		fields = append(fields, Field{Name: name, Kind: kind})
	}
	s, err := NewSchema(fields...)
	if err != nil {
		return nil, 0, err
	}
	return s, pos, nil
}
