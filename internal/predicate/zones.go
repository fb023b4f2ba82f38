package predicate

import (
	"fmt"
	"go/token"
	"sort"

	"manimal/internal/serde"
)

// Contains reports whether the interval admits the datum. The datum must be
// of the same kind as the interval's bounds (Zones guarantees this for
// filters it builds); mixed-kind comparisons order by kind tag and would
// silently misclassify.
func (iv Interval) Contains(d serde.Datum) bool {
	if iv.Empty {
		return false
	}
	if iv.Lo.IsValid() {
		c := d.Compare(iv.Lo)
		if c < 0 || (c == 0 && !iv.LoInc) {
			return false
		}
	}
	if iv.Hi.IsValid() {
		c := d.Compare(iv.Hi)
		if c > 0 || (c == 0 && !iv.HiInc) {
			return false
		}
	}
	return true
}

// FieldInterval constrains one named input-record field to an interval of
// values of the field's kind.
type FieldInterval struct {
	Field string
	Iv    Interval
}

// ZoneConjunct is the field-interval relaxation of one DNF disjunct: the
// per-field bounds implied by the disjunct's directly-bounded record
// accessors. It is a RELAXATION — atoms that do not have the shape
// "v.Kind(field) cmp constant" are dropped — so a record satisfying the
// disjunct always satisfies the conjunct, but not vice versa. That
// direction is exactly what makes zone pruning sound: a value region
// disjoint from the conjunct is certainly disjoint from the disjunct.
type ZoneConjunct []FieldInterval

// ZoneFilter is the block-skipping form of a whole DNF formula: one
// ZoneConjunct per (satisfiable) disjunct. A value region — a storage
// block's per-field min/max, or a single record — can be rejected iff
// EVERY conjunct rules it out. A zero-length filter is the statically
// false formula: everything may be rejected.
type ZoneFilter []ZoneConjunct

// String renders the filter for plan notes and debugging.
func (f ZoneFilter) String() string {
	if len(f) == 0 {
		return "false"
	}
	out := ""
	for i, c := range f {
		if i > 0 {
			out += " OR "
		}
		out += "("
		for j, b := range c {
			if j > 0 {
				out += " AND "
			}
			out += b.Field + " in " + b.Iv.String()
		}
		out += ")"
	}
	return out
}

// MatchesRecord reports whether the record can satisfy the filter's
// formula: true when some conjunct admits every bounded field value. Fields
// missing from the record pass their bound (conservative); false means the
// record provably fails the original formula. This is the REFERENCE
// implementation (and test oracle) of residual row filtering — production
// scanners evaluate an equivalent slot-index-compiled form over column
// vectors (package storage's compileFilter and the Filter* kernels, which
// additionally drop bounds a particular file cannot serve).
func (f ZoneFilter) MatchesRecord(r *serde.Record) bool {
	for _, c := range f {
		all := true
		for _, b := range c {
			d, ok := r.Lookup(b.Field)
			if !ok || d.Kind != b.Iv.kindOfBounds() {
				continue
			}
			if !b.Iv.Contains(d) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// kindOfBounds returns the kind of the interval's bounds (invalid when
// unbounded on both sides — such intervals admit everything).
func (iv Interval) kindOfBounds() serde.Kind {
	if iv.Lo.IsValid() {
		return iv.Lo.Kind
	}
	return iv.Hi.Kind
}

// Zones derives the zone filter of the formula for block skipping and
// residual row filtering. Per disjunct it intersects the intervals of every
// atom shaped "v.Kind(field) cmp bindable" (with int bounds promoted to
// float for Float accessors); all other atoms are ignored, erring wide.
// Statically empty disjuncts (contradictory bounds) are removed entirely —
// no record can take that path.
//
// ok is false when the filter cannot prune anything: some satisfiable
// disjunct bounds no field at all. Callers should then scan unfiltered.
func (d DNF) Zones(conf Config) (f ZoneFilter, ok bool, err error) {
	for _, c := range d {
		bounds := make(map[string]Interval)
		for _, a := range c {
			key, bound, isRange := a.rangeParts()
			if !isRange {
				continue
			}
			fld, isField := key.keyExpr.(Field)
			if !isField {
				continue
			}
			want := accessorKind(fld.Accessor)
			if want == serde.KindInvalid {
				continue
			}
			val, berr := bindValue(bound.rhs, conf)
			if berr != nil {
				return nil, false, fmt.Errorf("predicate: binding %s: %w", a.Canon(), berr)
			}
			if want == serde.KindFloat64 && val.Kind == serde.KindInt64 {
				val = serde.Float(float64(val.Int()))
			}
			if val.Kind != want {
				continue // type-mismatched comparison: leave to the program
			}
			var atomIv Interval
			switch bound.op {
			case token.LSS:
				atomIv = Interval{Hi: val}
			case token.LEQ:
				atomIv = Interval{Hi: val, HiInc: true}
			case token.GTR:
				atomIv = Interval{Lo: val}
			case token.GEQ:
				atomIv = Interval{Lo: val, LoInc: true}
			case token.EQL:
				atomIv = PointInterval(val)
			}
			if prev, seen := bounds[fld.Name]; seen {
				atomIv = prev.Intersect(atomIv)
			}
			bounds[fld.Name] = atomIv
		}
		empty := false
		for _, iv := range bounds {
			if iv.Empty {
				empty = true
				break
			}
		}
		if empty {
			continue // contradictory disjunct: no record takes this path
		}
		if len(bounds) == 0 {
			// This disjunct constrains nothing: the filter can never prune.
			return nil, false, nil
		}
		names := make([]string, 0, len(bounds))
		for n := range bounds {
			names = append(names, n)
		}
		sort.Strings(names)
		zc := make(ZoneConjunct, 0, len(names))
		for _, n := range names {
			zc = append(zc, FieldInterval{Field: n, Iv: bounds[n]})
		}
		f = append(f, zc)
	}
	return f, true, nil
}

// Fields returns the sorted set of field names the filter constrains.
// (Informational — record scanners derive their forced-decode set from
// the filter compiled against a concrete file schema, not from this.)
func (f ZoneFilter) Fields() []string {
	seen := make(map[string]bool)
	var out []string
	for _, c := range f {
		for _, b := range c {
			if !seen[b.Field] {
				seen[b.Field] = true
				out = append(out, b.Field)
			}
		}
	}
	sort.Strings(out)
	return out
}
