package predicate

import (
	"fmt"
	"go/token"
	"sort"

	"manimal/internal/serde"
)

// Interval is a (possibly unbounded, possibly degenerate) range of datum
// values of one kind. An empty interval is represented by Empty=true.
type Interval struct {
	Lo, Hi       serde.Datum // invalid datum = unbounded on that side
	LoInc, HiInc bool
	Empty        bool
}

// FullInterval is the unbounded interval.
func FullInterval() Interval { return Interval{} }

// PointInterval is the degenerate interval [d, d].
func PointInterval(d serde.Datum) Interval {
	return Interval{Lo: d, Hi: d, LoInc: true, HiInc: true}
}

// Bounded reports whether at least one side is bounded.
func (iv Interval) Bounded() bool { return iv.Lo.IsValid() || iv.Hi.IsValid() }

// String renders the interval in math notation for descriptors and tables.
func (iv Interval) String() string {
	if iv.Empty {
		return "∅"
	}
	lo, hi := "(-inf", "+inf)"
	if iv.Lo.IsValid() {
		b := "("
		if iv.LoInc {
			b = "["
		}
		lo = b + iv.Lo.String()
	}
	if iv.Hi.IsValid() {
		b := ")"
		if iv.HiInc {
			b = "]"
		}
		hi = iv.Hi.String() + b
	}
	return lo + ", " + hi
}

// Intersect narrows the interval with another.
func (iv Interval) Intersect(o Interval) Interval {
	if iv.Empty || o.Empty {
		return Interval{Empty: true}
	}
	out := iv
	if o.Lo.IsValid() {
		switch {
		case !out.Lo.IsValid():
			out.Lo, out.LoInc = o.Lo, o.LoInc
		default:
			c := o.Lo.Compare(out.Lo)
			if c > 0 || (c == 0 && !o.LoInc) {
				out.Lo, out.LoInc = o.Lo, o.LoInc
			}
		}
	}
	if o.Hi.IsValid() {
		switch {
		case !out.Hi.IsValid():
			out.Hi, out.HiInc = o.Hi, o.HiInc
		default:
			c := o.Hi.Compare(out.Hi)
			if c < 0 || (c == 0 && !o.HiInc) {
				out.Hi, out.HiInc = o.Hi, o.HiInc
			}
		}
	}
	if out.Lo.IsValid() && out.Hi.IsValid() {
		c := out.Lo.Compare(out.Hi)
		if c > 0 || (c == 0 && !(out.LoInc && out.HiInc)) {
			return Interval{Empty: true}
		}
	}
	return out
}

// overlapsOrAdjacent reports whether two intervals can be merged into one.
func (iv Interval) overlapsOrAdjacent(o Interval) bool {
	if iv.Empty || o.Empty {
		return false
	}
	// iv strictly before o?
	if iv.Hi.IsValid() && o.Lo.IsValid() {
		c := iv.Hi.Compare(o.Lo)
		if c < 0 || (c == 0 && !iv.HiInc && !o.LoInc) {
			return false
		}
	}
	if o.Hi.IsValid() && iv.Lo.IsValid() {
		c := o.Hi.Compare(iv.Lo)
		if c < 0 || (c == 0 && !o.HiInc && !iv.LoInc) {
			return false
		}
	}
	return true
}

// union merges two overlapping-or-adjacent intervals.
func (iv Interval) union(o Interval) Interval {
	out := iv
	if !o.Lo.IsValid() {
		out.Lo, out.LoInc = serde.Datum{}, false
	} else if out.Lo.IsValid() {
		c := o.Lo.Compare(out.Lo)
		if c < 0 || (c == 0 && o.LoInc) {
			out.Lo, out.LoInc = o.Lo, o.LoInc
		}
	}
	if !o.Hi.IsValid() {
		out.Hi, out.HiInc = serde.Datum{}, false
	} else if out.Hi.IsValid() {
		c := o.Hi.Compare(out.Hi)
		if c > 0 || (c == 0 && o.HiInc) {
			out.Hi, out.HiInc = o.Hi, o.HiInc
		}
	}
	return out
}

// MergeIntervals sorts and coalesces a set of intervals into a minimal
// disjoint cover, so the B+Tree never scans the same leaf twice.
func MergeIntervals(ivs []Interval) []Interval {
	live := ivs[:0:0]
	for _, iv := range ivs {
		if !iv.Empty {
			live = append(live, iv)
		}
	}
	if len(live) == 0 {
		return nil
	}
	sort.Slice(live, func(i, j int) bool {
		a, b := live[i], live[j]
		switch {
		case !a.Lo.IsValid():
			return b.Lo.IsValid()
		case !b.Lo.IsValid():
			return false
		default:
			c := a.Lo.Compare(b.Lo)
			if c != 0 {
				return c < 0
			}
			return a.LoInc && !b.LoInc
		}
	})
	out := []Interval{live[0]}
	for _, iv := range live[1:] {
		last := &out[len(out)-1]
		if last.overlapsOrAdjacent(iv) {
			*last = last.union(iv)
		} else {
			out = append(out, iv)
		}
	}
	return out
}

// IndexableKeys returns the canonical key expressions that appear in a
// bounded comparison (key cmp const/conf, in either order) in EVERY
// disjunct of the formula. Only such keys give a B+Tree scan that is
// strictly smaller than a full scan for every path to an emit.
func (d DNF) IndexableKeys() []string {
	if len(d) == 0 {
		return nil
	}
	counts := make(map[string]int)
	canonExpr := make(map[string]Expr)
	for _, c := range d {
		seen := make(map[string]bool)
		for _, a := range c {
			key, _, ok := a.rangeParts()
			if ok && !seen[key.keyCanon] {
				seen[key.keyCanon] = true
				counts[key.keyCanon]++
				canonExpr[key.keyCanon] = key.keyExpr
			}
		}
	}
	var out []string
	for canon, n := range counts {
		if n == len(d) {
			out = append(out, canon)
		}
	}
	sort.Strings(out)
	return out
}

// KeyExprFor returns the Expr whose Canon matches the given canonical key,
// searching the formula's atoms.
func (d DNF) KeyExprFor(canon string) (Expr, bool) {
	for _, c := range d {
		for _, a := range c {
			if key, _, ok := a.rangeParts(); ok && key.keyCanon == canon {
				return key.keyExpr, true
			}
		}
	}
	return nil, false
}

type rangeKey struct {
	keyCanon string
	keyExpr  Expr
}

type rangeBound struct {
	op  token.Token // normalized so the key is on the left
	rhs Expr        // Const or Conf
}

// rangeParts decomposes an atom into (key, bound) when it has the shape
// key cmp (const|conf) or (const|conf) cmp key. Negated atoms flip the
// operator first.
func (a Atom) rangeParts() (rangeKey, rangeBound, bool) {
	b, ok := a.Expr.(Binary)
	if !ok {
		return rangeKey{}, rangeBound{}, false
	}
	op := b.Op
	if a.Negated {
		op = flipOp(op)
	}
	switch op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL:
	default:
		return rangeKey{}, rangeBound{}, false
	}
	if isBindable(b.R) && !isBindable(b.L) {
		return rangeKey{keyCanon: b.L.Canon(), keyExpr: b.L}, rangeBound{op: op, rhs: b.R}, true
	}
	if isBindable(b.L) && !isBindable(b.R) {
		// Mirror: const cmp key  ==>  key cmp' const.
		var mirror token.Token
		switch op {
		case token.LSS:
			mirror = token.GTR
		case token.LEQ:
			mirror = token.GEQ
		case token.GTR:
			mirror = token.LSS
		case token.GEQ:
			mirror = token.LEQ
		default:
			mirror = op
		}
		return rangeKey{keyCanon: b.R.Canon(), keyExpr: b.R}, rangeBound{op: mirror, rhs: b.L}, true
	}
	return rangeKey{}, rangeBound{}, false
}

// isBindable reports whether an expression's value is known at optimization
// time: literals, config parameters, and arithmetic over them.
func isBindable(e Expr) bool {
	switch ex := e.(type) {
	case Const, Conf:
		return true
	case Binary:
		switch ex.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM:
			return isBindable(ex.L) && isBindable(ex.R)
		}
		return false
	case Unary:
		return isBindable(ex.X)
	default:
		return false
	}
}

// bindValue evaluates a bindable expression (see isBindable) given the
// job config.
func bindValue(e Expr, conf Config) (serde.Datum, error) {
	switch ex := e.(type) {
	case Const:
		return ex.D, nil
	case Conf:
		d, ok := conf[ex.Name]
		if !ok {
			return serde.Datum{}, fmt.Errorf("predicate: job config has no parameter %q", ex.Name)
		}
		return d, nil
	case Binary:
		l, err := bindValue(ex.L, conf)
		if err != nil {
			return serde.Datum{}, err
		}
		r, err := bindValue(ex.R, conf)
		if err != nil {
			return serde.Datum{}, err
		}
		return EvalBinary(ex.Op, l, r)
	case Unary:
		x, err := bindValue(ex.X, conf)
		if err != nil {
			return serde.Datum{}, err
		}
		switch {
		case ex.Op == token.ADD:
			return x, nil
		case ex.Op == token.SUB && x.Kind == serde.KindInt64:
			return serde.Int(-x.Int()), nil
		case ex.Op == token.SUB && x.Kind == serde.KindFloat64:
			return serde.Float(-x.Float()), nil
		case ex.Op == token.NOT && x.Kind == serde.KindBool:
			return serde.Bool(!x.Flag()), nil
		}
		return serde.Datum{}, fmt.Errorf("predicate: unsupported unary %s on %v", ex.Op, x.Kind)
	}
	return serde.Datum{}, fmt.Errorf("predicate: %s is not bindable", e.Canon())
}

// RangesFor derives, for the given canonical key expression and job config,
// the merged set of intervals the index must scan so that every record
// satisfying the formula is covered. The cover errs wide: atoms that do not
// constrain the key are ignored (map() re-tests every record it sees, so a
// superset scan is always safe). ok is false when some disjunct does not
// bound the key at all — a full scan would be required, so the index is
// useless for this job.
func (d DNF) RangesFor(keyCanon string, conf Config) (ivs []Interval, ok bool, err error) {
	for _, c := range d {
		iv := FullInterval()
		bounded := false
		for _, a := range c {
			key, bound, isRange := a.rangeParts()
			if !isRange || key.keyCanon != keyCanon {
				continue
			}
			val, berr := bindValue(bound.rhs, conf)
			if berr != nil {
				return nil, false, fmt.Errorf("predicate: binding %s: %w", a.Canon(), berr)
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
			iv = iv.Intersect(atomIv)
			bounded = true
		}
		if !bounded {
			return nil, false, nil
		}
		ivs = append(ivs, iv)
	}
	return MergeIntervals(ivs), true, nil
}
