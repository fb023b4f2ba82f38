package interp

import (
	"go/ast"
	"go/token"
	"strings"
	"unicode"
	"unicode/utf8"

	"manimal/internal/lang"
)

// Token loops. L := strings.Fields(E) followed at once by
//
//	for _, w := range L {
//		if strings.HasPrefix(w, "lit") { ... }
//	}
//
// where L appears nowhere else, the if has no init and no else, lit is a
// non-empty ASCII literal without white space, and w is read nowhere
// outside that body, walks E's string in place: no []string is
// built, and the walk jumps from one occurrence of lit to the next, binding
// only the fields that start with it. HasPrefix is pure and w is not
// observed between iterations, so the fields it would reject are
// unobservable. White space is exactly strings.Fields': the ASCII table,
// unicode.IsSpace for other runes, and an invalid byte is not space. Every
// other range over strings.Fields builds the list.

// asciiSpace is strings.Fields' table of ASCII white space.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// fieldEnd returns the end of the field running through s[i], a rune
// boundary: the start of the first space rune at or after i, or len(s).
func fieldEnd(s string, i int) int {
	for i < len(s) {
		if b := s[i]; b < utf8.RuneSelf {
			if asciiSpace[b] {
				break
			}
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		if isSpace(r) {
			break
		}
		i += n
	}
	return i
}

// nextPrefixed returns the bounds of the first field of s at or after i
// that starts with lit, a guardLiteral. Every occurrence of lit starts at a
// rune boundary, since lit[0] is ASCII, so it starts a field iff it opens s
// or follows a space rune; and the field runs at least through lit, which
// holds no space.
func nextPrefixed(s, lit string, i int) (start, end int, ok bool) {
	for {
		p := strings.Index(s[i:], lit)
		if p < 0 {
			return 0, 0, false
		}
		p += i
		if r, _ := utf8.DecodeLastRuneInString(s[:p]); p == 0 || isSpace(r) {
			return p, fieldEnd(s, p+len(lit)), true
		}
		i = p + 1
	}
}

// isSpace reports whether r is white space to strings.Fields; RuneError,
// which an invalid byte decodes to, is not.
func isSpace(r rune) bool {
	if r < utf8.RuneSelf {
		return asciiSpace[r]
	}
	return unicode.IsSpace(r)
}

// guardLiteral reports whether lit can drive nextPrefixed: non-empty, ASCII
// and free of white space.
func guardLiteral(lit string) bool {
	if lit == "" {
		return false
	}
	for i := 0; i < len(lit); i++ {
		if lit[i] >= utf8.RuneSelf || asciiSpace[lit[i]] {
			return false
		}
	}
	return true
}

// fieldsArg returns E when e is strings.Fields(E) with E statically a
// string: the call compiler.call would lower to the typed builtin.
func (c *compiler) fieldsArg(e ast.Expr) (ast.Expr, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil, false
	}
	if recv, method, ok := lang.MethodOn(call); !ok || recv != "strings" || method != "Fields" {
		return nil, false
	}
	if c.kindOf(call.Args[0]) != kStr {
		return nil, false
	}
	return call.Args[0], true
}

// fieldsListLoop recognizes list[i] as L := strings.Fields(E) and
// list[i+1] as a range over L, where L appears nowhere else in the function
// — the language has no shadowing, so the count is exact. It returns the
// range statement and E.
func (c *compiler) fieldsListLoop(list []ast.Stmt, i int) (*ast.RangeStmt, ast.Expr, bool) {
	if i+1 >= len(list) {
		return nil, nil, false
	}
	as, ok := list[i].(*ast.AssignStmt)
	if !ok || as.Tok != token.DEFINE || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, nil, false
	}
	l, ok := as.Lhs[0].(*ast.Ident)
	rs, ok2 := list[i+1].(*ast.RangeStmt)
	if !ok || !ok2 || l.Name == "_" {
		return nil, nil, false
	}
	if x, ok := rs.X.(*ast.Ident); !ok || x.Name != l.Name || countIdent(c.fn.Body, l.Name) != 2 {
		return nil, nil, false
	}
	src, ok := c.fieldsArg(as.Rhs[0])
	return rs, src, ok
}

// prefixGuard returns the literal and the guarded body when the range
// statement qualifies for the prefix jump: no index variable, and a body of
// exactly one else-less if strings.HasPrefix(w, lit) on the element
// variable w, lit a guardLiteral, and w read nowhere outside the body.
func (c *compiler) prefixGuard(st *ast.RangeStmt) (string, *ast.BlockStmt, bool) {
	if key, ok := st.Key.(*ast.Ident); st.Key != nil && (!ok || key.Name != "_") {
		return "", nil, false
	}
	w, ok := st.Value.(*ast.Ident)
	if !ok || w.Name == "_" || len(st.Body.List) != 1 {
		return "", nil, false
	}
	ifst, ok := st.Body.List[0].(*ast.IfStmt)
	if !ok || ifst.Init != nil || ifst.Else != nil {
		return "", nil, false
	}
	call, ok := ifst.Cond.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return "", nil, false
	}
	if recv, method, ok := lang.MethodOn(call); !ok || recv != "strings" || method != "HasPrefix" {
		return "", nil, false
	}
	arg, ok := call.Args[0].(*ast.Ident)
	lit, isLit := constString(call.Args[1])
	if !ok || arg.Name != w.Name || !isLit || !guardLiteral(lit) {
		return "", nil, false
	}
	if countIdent(c.fn.Body, w.Name) != 1+countIdent(st.Body, w.Name) {
		return "", nil, false
	}
	return lit, ifst.Body, true
}

// countIdent counts the identifiers named name under n. Selector names
// count too, which can only make a candidate fail to qualify.
func countIdent(n ast.Node, name string) int {
	count := 0
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			count++
		}
		return true
	})
	return count
}

// tokenLoop compiles list[i] and list[i+1] as one token loop when they
// have its shape.
func (c *compiler) tokenLoop(list []ast.Stmt, i int) (stmtFn, bool) {
	st, src, ok := c.fieldsListLoop(list, i)
	if !ok {
		return nil, false
	}
	lit, guarded, ok := c.prefixGuard(st)
	if !ok {
		return nil, false
	}
	vars, err := c.rangeVars(st)
	if err != nil {
		return nil, false
	}
	str := c.expr(src).s
	bodyFn := c.block(guarded)
	return func(fr *frame) (ctrl, error) {
		s, err := str(fr)
		if err != nil {
			return ctrlNone, err
		}
		for i := 0; ; {
			start, end, ok := nextPrefixed(s, lit, i)
			if !ok {
				return ctrlNone, nil
			}
			vars.bind(fr, 0, s[start:end])
			if stop, ct, err := loopCtrl(bodyFn(fr)); stop {
				return ct, err
			}
			i = end
		}
	}, true
}
