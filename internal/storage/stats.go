package storage

import (
	"encoding/binary"
	"fmt"
	"strings"

	"manimal/internal/predicate"
	"manimal/internal/serde"
)

// statsPrefixLen bounds the stored min/max of string and bytes fields: long
// values are reduced to a 16-byte prefix bound so footer stats stay small
// no matter how large the payloads are.
const statsPrefixLen = 16

// FieldStats is one block's zone-map entry for one field: a conservative
// value envelope plus a null count.
//
//   - Min, when valid, is a LOWER bound on every value of the field in the
//     block (exact for numeric and bool fields; a prefix — which orders at
//     or below the full value — for string and bytes fields).
//   - Max, when valid, is an UPPER bound on every value (exact for short
//     values; the lexicographic successor of a 16-byte prefix for long
//     strings/bytes). Invalid means no representable upper bound (the
//     prefix was all 0xFF): the block cannot be pruned from above.
//   - Nulls counts unset values. Writers currently reject unset fields, so
//     it is always zero; the format carries it for future optional fields.
//
// Because the bounds are conservative envelopes, pruning logic may only
// conclude "no value in this block falls inside an interval", never the
// converse.
type FieldStats struct {
	Min, Max serde.Datum
	Nulls    int64

	// hasAny distinguishes a fresh accumulator (no values yet) from one
	// whose upper bound became unrepresentable (Max invalid but sticky).
	hasAny bool
}

// update widens the envelope to admit d. String/bytes bounds are clipped to
// statsPrefixLen and cloned, so the accumulator never retains caller memory
// (records routinely alias reused scan buffers).
func (s *FieldStats) update(d serde.Datum) {
	switch d.Kind {
	case serde.KindString, serde.KindBytes:
		if !s.Min.IsValid() || d.Compare(s.Min) < 0 {
			s.Min = prefixLowerBound(d)
		}
		// s.Max invalid after a value was seen means "unbounded": sticky.
		if s.hasAny && !s.Max.IsValid() {
			break
		}
		if !s.hasAny || d.Compare(s.Max) > 0 {
			s.Max = prefixUpperBound(d)
		}
	default:
		if !s.Min.IsValid() || d.Compare(s.Min) < 0 {
			s.Min = d
		}
		if !s.Max.IsValid() || d.Compare(s.Max) > 0 {
			s.Max = d
		}
	}
	s.hasAny = true
}

// reset clears the envelope for the next block.
func (s *FieldStats) reset() { *s = FieldStats{} }

// prefixLowerBound returns a clipped clone of d that orders at or below d:
// a prefix of a string/bytes value is always <= the full value.
func prefixLowerBound(d serde.Datum) serde.Datum {
	if d.Kind == serde.KindString {
		v := d.Str()
		if len(v) > statsPrefixLen {
			v = v[:statsPrefixLen]
		}
		return serde.String(strings.Clone(v))
	}
	v := d.Raw()
	if len(v) > statsPrefixLen {
		v = v[:statsPrefixLen]
	}
	return serde.Bytes(append([]byte(nil), v...))
}

// prefixUpperBound returns a clipped value that orders at or above d, or an
// invalid datum when none is representable. Short values are exact clones;
// long ones use the successor of the 16-byte prefix (last non-0xFF byte
// incremented, 0xFF tail dropped), which every string sharing the prefix
// sorts below. An all-0xFF prefix has no successor.
func prefixUpperBound(d serde.Datum) serde.Datum {
	var v []byte
	if d.Kind == serde.KindString {
		v = []byte(d.Str())
	} else {
		v = d.Raw()
	}
	if len(v) <= statsPrefixLen {
		out := append([]byte(nil), v...)
		return reclip(d.Kind, out)
	}
	p := append([]byte(nil), v[:statsPrefixLen]...)
	i := len(p) - 1
	for i >= 0 && p[i] == 0xFF {
		i--
	}
	if i < 0 {
		return serde.Datum{} // no representable upper bound
	}
	p[i]++
	return reclip(d.Kind, p[:i+1])
}

func reclip(k serde.Kind, b []byte) serde.Datum {
	if k == serde.KindString {
		return serde.String(string(b))
	}
	return serde.Bytes(b)
}

// Per-field stats flags in the footer encoding.
const (
	statHasMin = 1 << 0
	statHasMax = 1 << 1
)

// appendBlockStats appends one block's per-field stats: for each field a
// flags byte, the null count, then the present bounds in the field's
// kind-implied value encoding.
func appendBlockStats(dst []byte, stats []FieldStats) []byte {
	for i := range stats {
		s := &stats[i]
		var flags byte
		if s.Min.IsValid() {
			flags |= statHasMin
		}
		if s.Max.IsValid() {
			flags |= statHasMax
		}
		dst = append(dst, flags)
		dst = binary.AppendUvarint(dst, uint64(s.Nulls))
		if s.Min.IsValid() {
			dst = s.Min.AppendValue(dst)
		}
		if s.Max.IsValid() {
			dst = s.Max.AppendValue(dst)
		}
	}
	return dst
}

// decodeBlockStats decodes one block's per-field stats for the schema,
// returning the entries and bytes consumed.
func decodeBlockStats(buf []byte, schema *serde.Schema) ([]FieldStats, int, error) {
	out := make([]FieldStats, schema.NumFields())
	pos := 0
	for i := 0; i < schema.NumFields(); i++ {
		if pos >= len(buf) {
			return nil, 0, fmt.Errorf("truncated stats for field %q", schema.Field(i).Name)
		}
		flags := buf[pos]
		pos++
		nulls, used := binary.Uvarint(buf[pos:])
		if used <= 0 {
			return nil, 0, fmt.Errorf("truncated null count for field %q", schema.Field(i).Name)
		}
		pos += used
		out[i].Nulls = int64(nulls)
		kind := schema.Field(i).Kind
		if flags&statHasMin != 0 {
			d, n, err := serde.DecodeValue(kind, buf[pos:])
			if err != nil {
				return nil, 0, fmt.Errorf("stats min for field %q: %w", schema.Field(i).Name, err)
			}
			out[i].Min = d
			pos += n
		}
		if flags&statHasMax != 0 {
			d, n, err := serde.DecodeValue(kind, buf[pos:])
			if err != nil {
				return nil, 0, fmt.Errorf("stats max for field %q: %w", schema.Field(i).Name, err)
			}
			out[i].Max = d
			pos += n
		}
	}
	return out, pos, nil
}

// Pushdown carries the scan-time optimizations the planner derived from a
// program's selection formula and used-field set. The OPTIMIZER owns
// legality — it only installs a Filter when skipping records cannot change
// observable output (no guarded side effects), and only masks Fields the
// program provably never needs; storage applies the pushdown mechanically.
type Pushdown struct {
	// Filter, when non-nil, enables zone-map block skipping: blocks whose
	// stats prove no record can satisfy the filter are never read.
	Filter predicate.ZoneFilter
	// Residual additionally evaluates Filter on each decoded row and drops
	// provable non-matches before they reach the caller (and interpreter).
	Residual bool
	// Fields, when non-nil, is the set of field names to decode; all other
	// fields are skipped at the encoding level and hold their kind's zero
	// value in the scanned record. Fields the Filter constrains are always
	// decoded regardless of the mask.
	Fields []string
}

// compiledFilter is a ZoneFilter resolved against one file's schema:
// field names become slot indices, and constraints that cannot be
// evaluated on this file (unknown field, kind mismatch, or — under
// direct-operation scans — dictionary fields whose decoded form is a code,
// not the original string) are dropped, which only weakens the filter.
type compiledFilter struct {
	conjuncts [][]compiledBound
}

type compiledBound struct {
	field int
	iv    predicate.Interval
}

// compileFilter resolves f against the reader's schema. Direct operation
// on codes excludes dict-encoded fields from RESIDUAL bounds (the decoded value is
// a code string, not the logical value the bounds constrain); block-level
// stats are computed on logical values at write time, so block pruning
// keeps those bounds — the caller compiles two variants.
func (r *Reader) compileFilter(f predicate.ZoneFilter, forResidual bool) compiledFilter {
	cf := compiledFilter{conjuncts: make([][]compiledBound, 0, len(f))}
	for _, c := range f {
		var bounds []compiledBound
		for _, b := range c {
			i := r.schema.IndexOf(b.Field)
			if i < 0 {
				continue
			}
			if k := boundKind(b.Iv); k == serde.KindInvalid || k != r.schema.Field(i).Kind {
				continue
			}
			if forResidual && r.Codes != DecodeTerms && r.encodings[i] == EncodeDict {
				continue
			}
			bounds = append(bounds, compiledBound{field: i, iv: b.Iv})
		}
		cf.conjuncts = append(cf.conjuncts, bounds)
	}
	return cf
}

func boundKind(iv predicate.Interval) serde.Kind {
	if iv.Lo.IsValid() {
		return iv.Lo.Kind
	}
	if iv.Hi.IsValid() {
		return iv.Hi.Kind
	}
	return serde.KindInvalid
}

// blockSkippable reports whether block bi provably contains no record
// satisfying the filter: every conjunct must be ruled out by some bound
// whose interval is disjoint from the block's stats envelope.
func (r *Reader) blockSkippable(cf *compiledFilter, bi int) bool {
	stats := r.blockStats[bi]
	for _, bounds := range cf.conjuncts {
		missed := false
		for _, b := range bounds {
			if envelopeMisses(&stats[b.field], b.iv) {
				missed = true
				break
			}
		}
		if !missed {
			return false
		}
	}
	return true
}

// envelopeMisses reports whether the stats envelope [Min, Max] is provably
// disjoint from iv. Min underestimates the true block minimum and Max
// overestimates the true maximum, so only conclusions that survive the
// slack are drawn; ties respect the interval's open sides.
func envelopeMisses(s *FieldStats, iv predicate.Interval) bool {
	if iv.Empty {
		return true
	}
	// Whole block below the interval: trueMax <= Max < lo  (or <= open lo).
	if iv.Lo.IsValid() && s.Max.IsValid() {
		c := s.Max.Compare(iv.Lo)
		if c < 0 || (c == 0 && !iv.LoInc) {
			return true
		}
	}
	// Whole block above the interval: trueMin >= Min > hi (or >= open hi).
	if iv.Hi.IsValid() && s.Min.IsValid() {
		c := s.Min.Compare(iv.Hi)
		if c > 0 || (c == 0 && !iv.HiInc) {
			return true
		}
	}
	return false
}

// SkippableBlocks evaluates the filter against every block's stats,
// returning the skippable mask and count. Planners use this for split
// pruning and selectivity estimates; scanners re-check per block.
func (r *Reader) SkippableBlocks(f predicate.ZoneFilter) ([]bool, int) {
	mask := make([]bool, len(r.blocks))
	if f == nil {
		return mask, 0
	}
	cf := r.compileFilter(f, false)
	n := 0
	for i := range r.blocks {
		if r.blockSkippable(&cf, i) {
			mask[i] = true
			n++
		}
	}
	return mask, n
}

// BlockStats returns block i's per-field stats in schema order, or nil for
// an out-of-range index.
func (r *Reader) BlockStats(i int) []FieldStats {
	if i < 0 || i >= len(r.blockStats) {
		return nil
	}
	return r.blockStats[i]
}

// ScanStats is what one scan did: the blocks whose payload it read and
// the bytes they held, the blocks its zone maps skipped without I/O, the
// rows its residual filter dropped before reaching the caller, and whether
// it rode a shared physical scan with company (see ScanShare). A scan owns
// its counts; whoever ran it decides where they are committed.
type ScanStats struct {
	BlocksRead    int64
	BlocksSkipped int64
	BytesRead     int64
	RowsFiltered  int64
	Shared        bool
}

// add adds o's counts to s, scaled by sign (1, or -1 to subtract).
func (s *ScanStats) add(o ScanStats, sign int64) {
	s.BlocksRead += sign * o.BlocksRead
	s.BlocksSkipped += sign * o.BlocksSkipped
	s.BytesRead += sign * o.BytesRead
	s.RowsFiltered += sign * o.RowsFiltered
	s.Shared = s.Shared || o.Shared
}
