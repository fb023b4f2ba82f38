package compress

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Dictionary maps string field values to small integer codes for
// direct-operation compression (paper Section 2.1): a value used only in
// equality tests never needs decompression, so the stored (and in-flight)
// representation is just the code. The mapping is injective, so equality
// tests on codes agree with equality tests on the original strings.
// Ordering is NOT preserved, which is why the paper restricts the
// optimization when the user requires sorted final output (footnote 1).
type Dictionary struct {
	codes map[string]uint64
	terms []string
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{codes: make(map[string]uint64)}
}

// Encode returns the code for s, assigning the next code on first sight.
// A newly seen term is cloned before it is stored: callers routinely pass
// strings that alias a reused scan buffer (storage.Scanner's shared-decode
// records), which would otherwise mutate under the dictionary.
func (d *Dictionary) Encode(s string) uint64 {
	if c, ok := d.codes[s]; ok {
		return c
	}
	s = strings.Clone(s)
	c := uint64(len(d.terms))
	d.codes[s] = c
	d.terms = append(d.terms, s)
	return c
}

// Lookup returns the code for s if s was previously encoded.
func (d *Dictionary) Lookup(s string) (uint64, bool) {
	c, ok := d.codes[s]
	return c, ok
}

// Decode returns the string for code c. Decoding is only used by tooling
// and tests; the execution fabric operates directly on codes.
func (d *Dictionary) Decode(c uint64) (string, error) {
	if c >= uint64(len(d.terms)) {
		return "", fmt.Errorf("compress: dictionary code %d out of range (%d terms)", c, len(d.terms))
	}
	return d.terms[c], nil
}

// Len returns the number of distinct terms.
func (d *Dictionary) Len() int { return len(d.terms) }

// AppendBinary appends the dictionary's wire form (term count, then
// length-prefixed terms in code order) for storage in a file footer.
func (d *Dictionary) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(d.terms)))
	for _, t := range d.terms {
		dst = binary.AppendUvarint(dst, uint64(len(t)))
		dst = append(dst, t...)
	}
	return dst
}

// DecodeDictionary decodes a dictionary from buf, returning it and the
// number of bytes consumed.
func DecodeDictionary(buf []byte) (*Dictionary, int, error) {
	n, used := binary.Uvarint(buf)
	if used <= 0 {
		return nil, 0, fmt.Errorf("compress: truncated dictionary header")
	}
	pos := used
	d := NewDictionary()
	for i := uint64(0); i < n; i++ {
		l, used := binary.Uvarint(buf[pos:])
		if used <= 0 {
			return nil, 0, fmt.Errorf("compress: truncated dictionary term %d", i)
		}
		pos += used
		if l > uint64(len(buf)-pos) {
			return nil, 0, fmt.Errorf("compress: truncated dictionary term body %d", i)
		}
		d.Encode(string(buf[pos : pos+int(l)]))
		pos += int(l)
	}
	return d, pos, nil
}

// CodeString renders a dictionary code as a compact string value. The
// execution fabric substitutes this for the original string field: equality
// and hashing behave identically (the mapping is injective) while the
// payload shrinks to a few bytes.
func CodeString(c uint64) string {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], c)
	return string(buf[:n])
}

// ParseCodeString is the inverse of CodeString.
func ParseCodeString(s string) (uint64, error) {
	c, n := binary.Uvarint([]byte(s))
	if n <= 0 || n != len(s) {
		return 0, fmt.Errorf("compress: %q is not a code string", s)
	}
	return c, nil
}
