package predicate

import (
	"go/token"
	"strings"
)

// Atom is one boolean-valued leaf expression of a formula (a comparison,
// a Has() test, a pure boolean call, ...), possibly negated.
type Atom struct {
	Expr    Expr
	Negated bool
}

// Canon renders the atom canonically.
func (a Atom) Canon() string {
	if a.Negated {
		return "!" + a.Expr.Canon()
	}
	return a.Expr.Canon()
}

// Conjunct is a conjunction of atoms: the tests that must all hold on one
// CFG path to an emit.
type Conjunct []Atom

// Canon renders the conjunct canonically.
func (c Conjunct) Canon() string {
	if len(c) == 0 {
		return "true"
	}
	parts := make([]string, len(c))
	for i, a := range c {
		parts[i] = a.Canon()
	}
	return strings.Join(parts, " AND ")
}

// DNF is a disjunction of conjuncts: one disjunct per unique path to an
// emit() statement (paper Section 3.2).
type DNF []Conjunct

// Canon renders the formula canonically.
func (d DNF) Canon() string {
	if len(d) == 0 {
		return "false"
	}
	parts := make([]string, len(d))
	for i, c := range d {
		parts[i] = "(" + c.Canon() + ")"
	}
	return strings.Join(parts, " OR ")
}

// AlwaysEmits reports whether the formula is trivially true: some path to
// an emit carries no conditions at all, i.e. the program performs no
// selection ("Not Present" in paper Table 1).
func (d DNF) AlwaysEmits() bool {
	for _, c := range d {
		if len(c) == 0 {
			return true
		}
	}
	return false
}

// ToDNF converts a boolean expression (with possible nested &&, ||, !) plus
// an outer negation into DNF, pushing negations down to comparisons
// (De Morgan, with comparison-operator flipping).
func ToDNF(e Expr, negated bool) DNF {
	switch ex := e.(type) {
	case Unary:
		if ex.Op == token.NOT {
			return ToDNF(ex.X, !negated)
		}
	case Binary:
		switch ex.Op {
		case token.LAND:
			if !negated {
				return andDNF(ToDNF(ex.L, false), ToDNF(ex.R, false))
			}
			return orDNF(ToDNF(ex.L, true), ToDNF(ex.R, true))
		case token.LOR:
			if !negated {
				return orDNF(ToDNF(ex.L, false), ToDNF(ex.R, false))
			}
			return andDNF(ToDNF(ex.L, true), ToDNF(ex.R, true))
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			if negated {
				return DNF{{Atom{Expr: Binary{Op: flipOp(ex.Op), L: ex.L, R: ex.R}}}}
			}
			return DNF{{Atom{Expr: ex}}}
		}
	}
	return DNF{{Atom{Expr: e, Negated: negated}}}
}

func flipOp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GEQ
	case token.LEQ:
		return token.GTR
	case token.GTR:
		return token.LEQ
	case token.GEQ:
		return token.LSS
	case token.EQL:
		return token.NEQ
	case token.NEQ:
		return token.EQL
	default:
		return op
	}
}

func andDNF(a, b DNF) DNF {
	var out DNF
	for _, ca := range a {
		for _, cb := range b {
			conj := make(Conjunct, 0, len(ca)+len(cb))
			conj = append(conj, ca...)
			conj = append(conj, cb...)
			out = append(out, conj)
		}
	}
	return out
}

func orDNF(a, b DNF) DNF {
	out := make(DNF, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// AndConjunct conjoins an additional formula into every disjunct of d.
func (d DNF) AndConjunct(e DNF) DNF { return andDNF(d, e) }

// Or appends the disjuncts of e to d.
func (d DNF) Or(e DNF) DNF { return orDNF(d, e) }
