package lang

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"
)

// validateGlobal enforces the shape of a package-level variable: a scalar
// that is either declared with its type and zero-initialized, or
// initialized by a literal whose value is representable. With this, every
// program Parse accepts can be instantiated by the interpreter.
func (p *Program) validateGlobal(g *Global, pos token.Pos) error {
	if g.Init == nil {
		switch g.Type {
		case "int", "int64", "float64", "string", "bool":
			return nil
		}
		return fmt.Errorf("lang: %s: package-level variable %q has unsupported type %q (allowed: int, int64, float64, string, bool)", p.Pos(pos), g.Name, g.Type)
	}
	lit, ok := g.Init.(*ast.BasicLit)
	if !ok {
		return fmt.Errorf("lang: %s: package-level variable %q must be initialized by a literal", p.Pos(pos), g.Name)
	}
	var err error
	switch lit.Kind {
	case token.INT:
		_, err = strconv.ParseInt(lit.Value, 0, 64)
	case token.FLOAT:
		_, err = strconv.ParseFloat(lit.Value, 64)
	case token.STRING, token.CHAR:
	default:
		err = fmt.Errorf("unsupported literal kind %s", lit.Kind)
	}
	if err != nil {
		return fmt.Errorf("lang: %s: package-level variable %q: %w", p.Pos(pos), g.Name, err)
	}
	return nil
}

// validateFunc enforces the supported statement/expression subset and the
// no-shadowing rule. Keeping the language small is what makes the analyzer
// sound: everything that parses here is something the CFG builder, the
// dataflow pass, and the interpreter all understand completely.
func (p *Program) validateFunc(fn *Function) error {
	v := &validator{p: p, fn: fn, declared: make(map[string]bool)}
	for _, prm := range fn.Params {
		if prm.Name == "_" {
			continue
		}
		if v.declared[prm.Name] {
			return fmt.Errorf("lang: duplicate parameter %q in %s", prm.Name, fn.Name)
		}
		v.declared[prm.Name] = true
		fn.addSlot(prm.Name)
	}
	return v.block(fn.Body)
}

type validator struct {
	p        *Program
	fn       *Function
	declared map[string]bool // all names ever declared in this function
}

func (v *validator) errf(pos token.Pos, format string, args ...any) error {
	return fmt.Errorf("lang: %s: in %s: "+format, append([]any{v.p.Pos(pos), v.fn.Name}, args...)...)
}

func (v *validator) block(b *ast.BlockStmt) error {
	for _, s := range b.List {
		if err := v.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (v *validator) declare(pos token.Pos, name string) error {
	if name == "_" {
		return nil
	}
	if v.declared[name] {
		return v.errf(pos, "redeclaration of %q: the mapper language forbids shadowing", name)
	}
	if v.p.IsGlobal(name) {
		return v.errf(pos, "local %q shadows a package-level variable", name)
	}
	v.declared[name] = true
	v.fn.addSlot(name)
	return nil
}

func (v *validator) stmt(s ast.Stmt) error {
	switch st := s.(type) {
	case *ast.AssignStmt:
		return v.assign(st)
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return v.errf(s.Pos(), "only var declarations are supported in function bodies")
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for _, n := range vs.Names {
				if err := v.declare(n.Pos(), n.Name); err != nil {
					return err
				}
			}
			for _, val := range vs.Values {
				if err := v.expr(val); err != nil {
					return err
				}
			}
		}
		return nil
	case *ast.ExprStmt:
		call, ok := st.X.(*ast.CallExpr)
		if !ok {
			return v.errf(s.Pos(), "expression statements must be calls")
		}
		return v.expr(call)
	case *ast.IfStmt:
		if st.Init != nil {
			return v.errf(s.Pos(), "if statements with init clauses are not supported")
		}
		if err := v.expr(st.Cond); err != nil {
			return err
		}
		if err := v.block(st.Body); err != nil {
			return err
		}
		switch e := st.Else.(type) {
		case nil:
			return nil
		case *ast.BlockStmt:
			return v.block(e)
		case *ast.IfStmt:
			return v.stmt(e)
		default:
			return v.errf(st.Else.Pos(), "unsupported else clause")
		}
	case *ast.ForStmt:
		if st.Init != nil {
			if err := v.stmt(st.Init); err != nil {
				return err
			}
		}
		if st.Cond != nil {
			if err := v.expr(st.Cond); err != nil {
				return err
			}
		}
		if st.Post != nil {
			if err := v.stmt(st.Post); err != nil {
				return err
			}
		}
		return v.block(st.Body)
	case *ast.RangeStmt:
		if st.Tok == token.DEFINE {
			for _, e := range []ast.Expr{st.Key, st.Value} {
				if e == nil {
					continue
				}
				id, ok := e.(*ast.Ident)
				if !ok {
					return v.errf(e.Pos(), "range variables must be identifiers")
				}
				if err := v.declare(id.Pos(), id.Name); err != nil {
					return err
				}
			}
		} else {
			for _, e := range []ast.Expr{st.Key, st.Value} {
				if id, ok := e.(*ast.Ident); ok && !v.p.IsGlobal(id.Name) {
					v.fn.addSlot(id.Name)
				}
			}
		}
		if err := v.expr(st.X); err != nil {
			return err
		}
		return v.block(st.Body)
	case *ast.ReturnStmt:
		if IsWellKnown(v.fn.Name) {
			if len(st.Results) > 0 {
				return v.errf(s.Pos(), "return must be bare")
			}
			return nil
		}
		// Helpers declare exactly one result; every return must supply it.
		if len(st.Results) != 1 {
			return v.errf(s.Pos(), "helper %s must return exactly one value", v.fn.Name)
		}
		return v.expr(st.Results[0])
	case *ast.BranchStmt:
		if st.Label != nil {
			return v.errf(s.Pos(), "labeled branches are not supported")
		}
		if st.Tok != token.BREAK && st.Tok != token.CONTINUE {
			return v.errf(s.Pos(), "%s is not supported", st.Tok)
		}
		return nil
	case *ast.IncDecStmt:
		return v.expr(st.X)
	case *ast.BlockStmt:
		return v.block(st)
	default:
		return v.errf(s.Pos(), "unsupported statement %T", s)
	}
}

func (v *validator) assign(st *ast.AssignStmt) error {
	switch st.Tok {
	case token.ASSIGN, token.DEFINE,
		token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN, token.REM_ASSIGN:
	default:
		return v.errf(st.Pos(), "unsupported assignment operator %s", st.Tok)
	}
	// Supported shapes: x = e | x := e | x, ok := m[k] | x op= e | m[k] = e.
	if len(st.Lhs) == 2 {
		if len(st.Rhs) != 1 {
			return v.errf(st.Pos(), "two-value assignment needs a single map-index or call right-hand side")
		}
		switch st.Rhs[0].(type) {
		case *ast.IndexExpr, *ast.CallExpr:
		default:
			return v.errf(st.Pos(), "two-value assignment needs a map-index or call right-hand side")
		}
	} else if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
		return v.errf(st.Pos(), "only single assignments are supported")
	}
	for _, l := range st.Lhs {
		switch lhs := l.(type) {
		case *ast.Ident:
			if st.Tok == token.DEFINE {
				if err := v.declare(lhs.Pos(), lhs.Name); err != nil {
					return err
				}
			} else if !v.p.IsGlobal(lhs.Name) {
				// Plain assignment may bind a fresh local (define-on-assign);
				// give the name a slot so the frame can address it.
				v.fn.addSlot(lhs.Name)
			}
		case *ast.IndexExpr:
			if st.Tok == token.DEFINE {
				return v.errf(l.Pos(), "cannot := into an index expression")
			}
			if err := v.expr(lhs); err != nil {
				return err
			}
		default:
			return v.errf(l.Pos(), "unsupported assignment target %T", l)
		}
	}
	for _, r := range st.Rhs {
		if err := v.expr(r); err != nil {
			return err
		}
	}
	return nil
}

func (v *validator) expr(e ast.Expr) error {
	switch ex := e.(type) {
	case *ast.BasicLit:
		switch ex.Kind {
		case token.INT, token.FLOAT, token.STRING, token.CHAR:
			return nil
		default:
			return v.errf(e.Pos(), "unsupported literal kind %s", ex.Kind)
		}
	case *ast.Ident:
		return nil
	case *ast.ParenExpr:
		return v.expr(ex.X)
	case *ast.UnaryExpr:
		if ex.Op != token.NOT && ex.Op != token.SUB && ex.Op != token.ADD {
			return v.errf(e.Pos(), "unsupported unary operator %s", ex.Op)
		}
		return v.expr(ex.X)
	case *ast.BinaryExpr:
		switch ex.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
			token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
		default:
			return v.errf(e.Pos(), "unsupported binary operator %s", ex.Op)
		}
		if err := v.expr(ex.X); err != nil {
			return err
		}
		return v.expr(ex.Y)
	case *ast.IndexExpr:
		if err := v.expr(ex.X); err != nil {
			return err
		}
		return v.expr(ex.Index)
	case *ast.CallExpr:
		return v.call(ex)
	case *ast.MapType, *ast.ArrayType:
		// Only valid as the first argument of make(); call() checks context.
		return nil
	default:
		return v.errf(e.Pos(), "unsupported expression %T", e)
	}
}

func (v *validator) call(c *ast.CallExpr) error {
	switch fn := c.Fun.(type) {
	case *ast.Ident:
		name := fn.Name
		if helper, isHelper := v.p.Funcs[name]; isHelper && !IsWellKnown(name) {
			if len(c.Args) != len(helper.Params) {
				return v.errf(c.Pos(), "%s called with %d arguments, wants %d", name, len(c.Args), len(helper.Params))
			}
		} else if IsWellKnown(name) {
			return v.errf(c.Pos(), "cannot call stage function %q directly", name)
		} else if !PureFuncs[name] && !ImpureFuncs[name] {
			return v.errf(c.Pos(), "call to unknown function %q", name)
		} else if err := v.checkArity(c, name); err != nil {
			return err
		}
	case *ast.SelectorExpr:
		base, ok := fn.X.(*ast.Ident)
		if !ok {
			return v.errf(c.Pos(), "unsupported call target")
		}
		method := fn.Sel.Name
		switch {
		case v.fn.HasParam(base.Name):
			// A method on a parameter: record accessor, ctx method, or iter
			// method, depending on which parameter it is. The exact check is
			// semantic and lives in the interpreter/analyzer; here we only
			// require the name to be known at all.
			if !recordAccessors[method] && !ctxMethods[method] && !iterMethods[method] {
				return v.errf(c.Pos(), "unknown method %q on parameter %q", method, base.Name)
			}
		case base.Name == "strings" || base.Name == "strconv" || base.Name == "math":
			full := base.Name + "." + method
			if !PureFuncs[full] {
				return v.errf(c.Pos(), "%s is not in the supported function whitelist", full)
			}
			if err := v.checkArity(c, full); err != nil {
				return err
			}
		default:
			return v.errf(c.Pos(), "unsupported call base %q", base.Name)
		}
	default:
		return v.errf(c.Pos(), "unsupported call form %T", c.Fun)
	}
	for _, a := range c.Args {
		if err := v.expr(a); err != nil {
			return err
		}
	}
	return nil
}

// checkArity enforces the argument-count bounds of a whitelisted function,
// as the Go compiler would; the interpreter's builtin implementations rely
// on this to index their argument slices safely.
func (v *validator) checkArity(c *ast.CallExpr, name string) error {
	ar, ok := FuncArity[name]
	if !ok {
		return nil
	}
	n := len(c.Args)
	if n < ar[0] || (ar[1] >= 0 && n > ar[1]) {
		return v.errf(c.Pos(), "%s called with %d arguments, wants %s", name, n, arityText(ar))
	}
	return nil
}

func arityText(ar [2]int) string {
	switch {
	case ar[1] < 0:
		return fmt.Sprintf("at least %d", ar[0])
	case ar[0] == ar[1]:
		return fmt.Sprintf("%d", ar[0])
	default:
		return fmt.Sprintf("%d to %d", ar[0], ar[1])
	}
}

// CallName returns the canonical name of a call expression's target
// ("strings.Contains", "len", "v.Int", ...) and true if recognizable.
func CallName(c *ast.CallExpr) (string, bool) {
	switch fn := c.Fun.(type) {
	case *ast.Ident:
		return fn.Name, true
	case *ast.SelectorExpr:
		if base, ok := fn.X.(*ast.Ident); ok {
			return base.Name + "." + fn.Sel.Name, true
		}
	}
	return "", false
}

// MethodOn decomposes a call of the form recv.Method(args) where recv is a
// bare identifier, returning (recv, method, true).
func MethodOn(c *ast.CallExpr) (recv, method string, ok bool) {
	sel, isSel := c.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	base, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	return base.Name, sel.Sel.Name, true
}

// IsEmit reports whether the call is ctx.Emit(...) for the given ctx
// parameter name (the analyzer's isEmit(s) test, paper Figure 3).
func IsEmit(c *ast.CallExpr, ctxName string) bool {
	recv, method, ok := MethodOn(c)
	return ok && recv == ctxName && method == "Emit"
}

// IsRecordAccessor reports whether method is a record field accessor and
// returns the accessed field name when the argument is a string constant.
// A non-constant field name returns ok=true, field="" — callers must treat
// that as "touches an unknown field" (defeats projection, conservatively).
func IsRecordAccessor(c *ast.CallExpr) (field string, method string, ok bool) {
	_, m, isMethod := MethodOn(c)
	if !isMethod || !recordAccessors[m] {
		return "", "", false
	}
	if len(c.Args) == 1 {
		if lit, isLit := c.Args[0].(*ast.BasicLit); isLit && lit.Kind == token.STRING {
			// Strip the quotes; the subset only allows plain double-quoted
			// field names, so this is a simple unquote.
			s := lit.Value
			if len(s) >= 2 {
				return s[1 : len(s)-1], m, true
			}
		}
	}
	return "", m, true
}
