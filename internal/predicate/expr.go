// Package predicate is the IR for the logical formulas the analyzer
// extracts from map() functions: "a logical formula over these values that
// describes when the map() may emit data" (paper Section 2.2). Formulas are
// kept in disjunctive normal form, one disjunct per CFG path to an emit
// (paper Section 3.2), and support interval extraction so the optimizer can
// turn them into B+Tree range scans.
package predicate

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"
	"strings"

	"manimal/internal/lang"
	"manimal/internal/serde"
)

// Config carries the job parameters a program reads via ctx.ConfInt etc.
// They are fixed for the lifetime of a job, which is what makes them
// admissible in the isFunc test and bindable at optimization time.
type Config map[string]serde.Datum

// Expr is a pure expression over the map() input record and job config.
type Expr interface {
	// Canon returns the canonical string form, used to match selection
	// descriptors against index key expressions in the catalog.
	Canon() string
}

// Field is a record accessor: v.Int("rank"). Accessor is the method name
// (Int, Float, Str, Raw, Flag, Has); Name is the field.
type Field struct {
	Accessor string
	Name     string
}

// Canon implements Expr.
func (f Field) Canon() string { return fmt.Sprintf("v.%s(%q)", f.Accessor, f.Name) }

// Kind is the datum kind f's accessor reads (KindInvalid for an unknown
// accessor).
func (f Field) Kind() serde.Kind { return accessorKind(f.Accessor) }

func accessorKind(acc string) serde.Kind {
	switch acc {
	case "Int":
		return serde.KindInt64
	case "Float":
		return serde.KindFloat64
	case "Str":
		return serde.KindString
	case "Raw":
		return serde.KindBytes
	case "Flag":
		return serde.KindBool
	default:
		return serde.KindInvalid
	}
}

// Conf is a job-configuration reference: ctx.ConfInt("threshold").
type Conf struct {
	Accessor string // ConfInt, ConfFloat, ConfStr
	Name     string
}

// Canon implements Expr.
func (c Conf) Canon() string { return fmt.Sprintf("ctx.%s(%q)", c.Accessor, c.Name) }

// Const is a literal.
type Const struct{ D serde.Datum }

// Canon implements Expr.
func (c Const) Canon() string {
	if c.D.Kind == serde.KindString {
		return strconv.Quote(c.D.Str())
	}
	return c.D.String()
}

// Call is a whitelisted pure function call, e.g. strings.Split(...). It is
// canonical and index-buildable: the interpreter evaluates it.
type Call struct {
	Name string
	Args []Expr
}

// Canon implements Expr.
func (c Call) Canon() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.Canon()
	}
	return c.Name + "(" + strings.Join(parts, ", ") + ")"
}

// Index is a subscript expression, e.g. parts[1].
type Index struct{ X, I Expr }

// Canon implements Expr.
func (ix Index) Canon() string { return ix.X.Canon() + "[" + ix.I.Canon() + "]" }

// Binary is an arithmetic or comparison operation.
type Binary struct {
	Op   token.Token
	L, R Expr
}

// Canon implements Expr.
func (b Binary) Canon() string {
	return "(" + b.L.Canon() + " " + b.Op.String() + " " + b.R.Canon() + ")"
}

// Unary is !x or -x.
type Unary struct {
	Op token.Token
	X  Expr
}

// Canon implements Expr.
func (u Unary) Canon() string { return u.Op.String() + u.X.Canon() }

// EvalBinary applies a binary operator to two datums with Go-like numeric
// promotion between int64 and float64. It is shared with the interpreter so
// static predicate evaluation and runtime execution cannot disagree.
func EvalBinary(op token.Token, l, r serde.Datum) (serde.Datum, error) {
	// Numeric promotion.
	if l.Kind == serde.KindFloat64 && r.Kind == serde.KindInt64 {
		r = serde.Float(float64(r.Int()))
	}
	if l.Kind == serde.KindInt64 && r.Kind == serde.KindFloat64 {
		l = serde.Float(float64(l.Int()))
	}
	switch op {
	case token.EQL:
		return serde.Bool(l.Equal(r)), nil
	case token.NEQ:
		return serde.Bool(!l.Equal(r)), nil
	case token.LSS, token.LEQ, token.GTR, token.GEQ:
		if l.Kind != r.Kind {
			return serde.Datum{}, fmt.Errorf("predicate: ordered comparison of %v and %v", l.Kind, r.Kind)
		}
		c := l.Compare(r)
		switch op {
		case token.LSS:
			return serde.Bool(c < 0), nil
		case token.LEQ:
			return serde.Bool(c <= 0), nil
		case token.GTR:
			return serde.Bool(c > 0), nil
		default:
			return serde.Bool(c >= 0), nil
		}
	case token.LAND, token.LOR:
		if l.Kind != serde.KindBool || r.Kind != serde.KindBool {
			return serde.Datum{}, fmt.Errorf("predicate: logical op on %v and %v", l.Kind, r.Kind)
		}
		if op == token.LAND {
			return serde.Bool(l.Flag() && r.Flag()), nil
		}
		return serde.Bool(l.Flag() || r.Flag()), nil
	}
	// Arithmetic.
	switch {
	case l.Kind == serde.KindInt64 && r.Kind == serde.KindInt64:
		switch op {
		case token.ADD:
			return serde.Int(l.Int() + r.Int()), nil
		case token.SUB:
			return serde.Int(l.Int() - r.Int()), nil
		case token.MUL:
			return serde.Int(l.Int() * r.Int()), nil
		case token.QUO:
			if r.Int() == 0 {
				return serde.Datum{}, fmt.Errorf("predicate: integer division by zero")
			}
			return serde.Int(l.Int() / r.Int()), nil
		case token.REM:
			if r.Int() == 0 {
				return serde.Datum{}, fmt.Errorf("predicate: integer modulo by zero")
			}
			return serde.Int(l.Int() % r.Int()), nil
		}
	case l.Kind == serde.KindFloat64 && r.Kind == serde.KindFloat64:
		switch op {
		case token.ADD:
			return serde.Float(l.Float() + r.Float()), nil
		case token.SUB:
			return serde.Float(l.Float() - r.Float()), nil
		case token.MUL:
			return serde.Float(l.Float() * r.Float()), nil
		case token.QUO:
			return serde.Float(l.Float() / r.Float()), nil
		}
	case l.Kind == serde.KindString && r.Kind == serde.KindString && op == token.ADD:
		return serde.String(l.Str() + r.Str()), nil
	}
	return serde.Datum{}, fmt.Errorf("predicate: unsupported %v %s %v", l.Kind, op, r.Kind)
}

// FromAST converts a mapper-language AST expression into a predicate Expr.
// valueParam and ctxParam are the map() parameter names for the input value
// record and the context. Unconvertible expressions return an error; the
// analyzer treats those conservatively.
func FromAST(e ast.Expr, valueParam, ctxParam string) (Expr, error) {
	switch ex := e.(type) {
	case *ast.ParenExpr:
		return FromAST(ex.X, valueParam, ctxParam)
	case *ast.BasicLit:
		return litConst(ex)
	case *ast.Ident:
		switch ex.Name {
		case "true":
			return Const{serde.Bool(true)}, nil
		case "false":
			return Const{serde.Bool(false)}, nil
		}
		return nil, fmt.Errorf("predicate: free variable %q", ex.Name)
	case *ast.UnaryExpr:
		x, err := FromAST(ex.X, valueParam, ctxParam)
		if err != nil {
			return nil, err
		}
		// Constant-fold negated literals so -5 is a Const.
		if c, ok := x.(Const); ok && ex.Op == token.SUB {
			switch c.D.Kind {
			case serde.KindInt64:
				return Const{serde.Int(-c.D.Int())}, nil
			case serde.KindFloat64:
				return Const{serde.Float(-c.D.Float())}, nil
			}
		}
		return Unary{Op: ex.Op, X: x}, nil
	case *ast.BinaryExpr:
		l, err := FromAST(ex.X, valueParam, ctxParam)
		if err != nil {
			return nil, err
		}
		r, err := FromAST(ex.Y, valueParam, ctxParam)
		if err != nil {
			return nil, err
		}
		return Binary{Op: ex.Op, L: l, R: r}, nil
	case *ast.IndexExpr:
		x, err := FromAST(ex.X, valueParam, ctxParam)
		if err != nil {
			return nil, err
		}
		i, err := FromAST(ex.Index, valueParam, ctxParam)
		if err != nil {
			return nil, err
		}
		return Index{X: x, I: i}, nil
	case *ast.CallExpr:
		return callFromAST(ex, valueParam, ctxParam)
	default:
		return nil, fmt.Errorf("predicate: unconvertible expression %T", e)
	}
}

func litConst(l *ast.BasicLit) (Expr, error) {
	switch l.Kind {
	case token.INT:
		v, err := strconv.ParseInt(l.Value, 0, 64)
		if err != nil {
			return nil, err
		}
		return Const{serde.Int(v)}, nil
	case token.FLOAT:
		v, err := strconv.ParseFloat(l.Value, 64)
		if err != nil {
			return nil, err
		}
		return Const{serde.Float(v)}, nil
	case token.STRING:
		v, err := strconv.Unquote(l.Value)
		if err != nil {
			return nil, err
		}
		return Const{serde.String(v)}, nil
	default:
		return nil, fmt.Errorf("predicate: unsupported literal %s", l.Kind)
	}
}

func callFromAST(c *ast.CallExpr, valueParam, ctxParam string) (Expr, error) {
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if ok {
		if base, isIdent := sel.X.(*ast.Ident); isIdent {
			method := sel.Sel.Name
			switch base.Name {
			case valueParam:
				field, err := constString(c)
				if err != nil {
					return nil, err
				}
				return Field{Accessor: method, Name: field}, nil
			case ctxParam:
				field, err := constString(c)
				if err != nil {
					return nil, err
				}
				return Conf{Accessor: method, Name: field}, nil
			case "strings", "strconv", "math":
				if !lang.PureFuncs[base.Name+"."+method] {
					return nil, fmt.Errorf("predicate: %s.%s is not whitelisted", base.Name, method)
				}
				args := make([]Expr, len(c.Args))
				for i, a := range c.Args {
					conv, err := FromAST(a, valueParam, ctxParam)
					if err != nil {
						return nil, err
					}
					args[i] = conv
				}
				return Call{Name: base.Name + "." + method, Args: args}, nil
			}
		}
	}
	if id, isIdent := c.Fun.(*ast.Ident); isIdent {
		if !lang.PureFuncs[id.Name] {
			return nil, fmt.Errorf("predicate: call to non-whitelisted function %q", id.Name)
		}
		args := make([]Expr, len(c.Args))
		for i, a := range c.Args {
			conv, err := FromAST(a, valueParam, ctxParam)
			if err != nil {
				return nil, err
			}
			args[i] = conv
		}
		return Call{Name: id.Name, Args: args}, nil
	}
	return nil, fmt.Errorf("predicate: unconvertible call")
}

func constString(c *ast.CallExpr) (string, error) {
	if len(c.Args) != 1 {
		return "", fmt.Errorf("predicate: accessor needs exactly one argument")
	}
	lit, ok := c.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", fmt.Errorf("predicate: accessor argument must be a string constant")
	}
	return strconv.Unquote(lit.Value)
}
