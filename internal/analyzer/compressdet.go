package analyzer

import (
	"fmt"
	"go/ast"
	"go/token"

	"manimal/internal/lang"
	"manimal/internal/serde"
)

// findDelta implements delta-compression detection (paper Appendix C):
// the analyzer "simply tests whether the serialized key and value inputs to
// map() contain numeric values; if so, delta-compression can be applied to
// those fields". The schema recovered from the serialized input is what
// makes the fields distinguishable — when a program hides its data in an
// opaque blob (paper Benchmark 1's AbstractTuple), there are no numeric
// fields to find and the opportunity goes undetected.
func (a *analysis) findDelta(d *Descriptor) *DeltaDescriptor {
	if a.schema == nil {
		d.notef("delta: no input schema available")
		return nil
	}
	var fields []string
	for _, f := range a.schema.Fields() {
		if f.Kind.Numeric() {
			fields = append(fields, f.Name)
		}
	}
	if len(fields) == 0 {
		d.notef("delta: input schema has no numeric fields")
		return nil
	}
	return &DeltaDescriptor{Fields: fields}
}

// findDirectOp implements direct-operation detection (paper Appendix C):
// "input parameters for which all uses are equality tests are suitable for
// direct operation on compressed data". A string field qualifies when every
// use in map() is equality-compatible under an injective recoding:
//
//   - the key argument of ctx.Emit (group-by keying compares codes for
//     equality only — note the paper's footnote 1: this forfeits sorted
//     final output, which the optimizer checks), or
//   - an ==/!= comparison whose other side is an access of the same field
//     (same dictionary, so code equality coincides with string equality).
//
// Comparisons against string literals are conservatively rejected: the
// literal would need translating through the dictionary at run time.
func (a *analysis) findDirectOp(d *Descriptor) *DirectOpDescriptor {
	if a.schema == nil {
		d.notef("direct-op: no input schema available")
		return nil
	}

	// Injective recoding of a map output key is invisible to grouping but
	// NOT to the final output. It is only safe when the reduce stage never
	// touches its key parameter (the paper's compression experiment "does
	// not in the end emit the URL; it simply uses destURL as the key
	// parameter to reduce()"). Map-only jobs expose map keys directly, so
	// they never qualify.
	reduce := a.prog.Reduce()
	if reduce == nil {
		d.notef("direct-op: no Reduce stage; map output keys are final output")
		return nil
	}
	if len(reduce.Params) == 3 && reduceUsesKey(reduce) {
		d.notef("direct-op: Reduce reads its key parameter %q; recoded keys would reach the output", reduce.Params[0].Name)
		return nil
	}

	// A whole-record emit puts every field into the program's data flow
	// downstream; no field of it may be recoded.
	for _, e := range a.emits {
		for _, arg := range e.call.Args {
			if _, all := a.fieldsIn(arg); all {
				if _, isAccessor := arg.(*ast.CallExpr); !isAccessor {
					d.notef("direct-op: whole record flows into emit; no field can be recoded")
					return nil
				}
			}
		}
	}

	parents := parentMap(a.fn.Body)
	bad := make(map[string]bool)  // fields with an equality-incompatible use
	used := make(map[string]bool) // fields with at least one use

	ast.Inspect(a.fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, _, isMethod := lang.MethodOn(call)
		if !isMethod || (recv != a.valueParam) {
			// A helper receiving the record reads fields the syntactic scan
			// below cannot see; it has no use-context information for them,
			// so every field the summary attributes to the passed parameter
			// is conservatively poisoned (used in a non-equality position).
			if id, isIdent := call.Fun.(*ast.Ident); isIdent && !isMethod {
				if sum := a.summaries[id.Name]; sum != nil {
					for i, arg := range call.Args {
						vid, isV := unparen(arg).(*ast.Ident)
						if !isV || vid.Name != a.valueParam || i >= len(sum.ParamFields) {
							continue
						}
						if sum.ParamFields[i].Opaque {
							for _, f := range a.schema.FieldNames() {
								bad[f] = true
							}
							continue
						}
						for _, f := range sum.ParamFields[i].Fields {
							if kind, _ := a.schema.KindOf(f); kind == serde.KindString {
								used[f] = true
								bad[f] = true
							}
						}
					}
				}
			}
			return true
		}
		field, method, ok := lang.IsRecordAccessor(call)
		if !ok {
			return true
		}
		if field == "" {
			// Dynamic field name: poisons every field.
			for _, f := range a.schema.FieldNames() {
				bad[f] = true
			}
			return true
		}
		if kind, _ := a.schema.KindOf(field); kind != serde.KindString || method != "Str" {
			return true
		}
		used[field] = true
		if !a.equalityCompatibleUse(call, parents) {
			bad[field] = true
		}
		return true
	})

	set := make(map[string]bool)
	for f := range used {
		if !bad[f] {
			set[f] = true
		}
	}
	if len(set) == 0 {
		d.notef("direct-op: no string field has exclusively equality-compatible uses")
		return nil
	}
	return &DirectOpDescriptor{Fields: sortedStrings(set)}
}

// equalityCompatibleUse classifies the syntactic context of one accessor
// call site.
func (a *analysis) equalityCompatibleUse(call *ast.CallExpr, parents map[ast.Node]ast.Node) bool {
	parent := parents[call]
	// Unwrap parentheses.
	for {
		p, ok := parent.(*ast.ParenExpr)
		if !ok {
			break
		}
		parent = parents[p]
	}
	switch p := parent.(type) {
	case *ast.BinaryExpr:
		if p.Op != token.EQL && p.Op != token.NEQ {
			return false
		}
		other := p.X
		if other == call || samePos(other, call) {
			other = p.Y
		}
		otherCall, ok := unparen(other).(*ast.CallExpr)
		if !ok {
			return false
		}
		recvO, _, okO := lang.MethodOn(otherCall)
		if !okO || recvO != a.valueParam {
			return false
		}
		fieldO, _, okO := lang.IsRecordAccessor(otherCall)
		fieldT, _, _ := lang.IsRecordAccessor(call)
		return okO && fieldO == fieldT
	case *ast.CallExpr:
		// Allowed only as the key argument of ctx.Emit.
		if recv, method, ok := lang.MethodOn(p); ok && recv == a.ctxParam && method == "Emit" {
			return len(p.Args) >= 1 && (p.Args[0] == call || samePos(p.Args[0], call))
		}
		return false
	default:
		return false
	}
}

// reduceUsesKey reports whether the Reduce function's key parameter ident
// appears anywhere in its body (conservative: any appearance counts).
func reduceUsesKey(reduce *lang.Function) bool {
	keyName := reduce.Params[0].Name
	if keyName == "_" {
		return false
	}
	found := false
	ast.Inspect(reduce.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == keyName {
			found = true
		}
		return !found
	})
	return found
}

// findCombine recognizes a Combine that is exactly an int64 sum of its
// values re-emitted under its own key:
//
//	acc := 0
//	for values.Next() {
//		acc = acc + values.Int()   // or acc += values.Int()
//	}
//	ctx.Emit(key, acc)
//
// Such a Combine has no state, no side effect and no other output, and its
// result does not depend on how a key's values are split across calls: a
// running sum kept per key as pairs are emitted, wrapping like the
// interpreter's int64 +, gives the pairs it would. Any other Combine —
// extra statements, ctx.Counter or ctx.Log, a global, Float or FieldInt, a
// condition, a rewritten key — is left to the interpreter, with a note.
func findCombine(p *lang.Program, d *Descriptor) *CombineDescriptor {
	comb := p.Combine()
	if comb == nil {
		return nil
	}
	if why := sumCombineMismatch(comb); why != "" {
		d.notef("combine: not an int64 sum, %s; the interpreter runs it", why)
		return nil
	}
	return &CombineDescriptor{Op: "sum"}
}

// sumCombineMismatch returns why fn is not the int64-sum Combine shape
// findCombine matches, or "" when it is.
func sumCombineMismatch(fn *lang.Function) string {
	if len(fn.Params) != 3 {
		return fmt.Sprintf("it takes %d parameters", len(fn.Params))
	}
	key, values, ctx := fn.Params[0].Name, fn.Params[1].Name, fn.Params[2].Name
	if key == "_" || values == "_" || ctx == "_" {
		return "a parameter is unnamed"
	}
	body := fn.Body.List
	if len(body) != 3 {
		return fmt.Sprintf("its body has %d statements, not an accumulator, a loop and an emit", len(body))
	}
	// The language forbids shadowing, so a := here declares a fresh local.
	init, ok := body[0].(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 || !isIntLit(init.Rhs[0], "0") {
		return "its first statement does not declare an accumulator as the literal 0"
	}
	acc := init.Lhs[0].(*ast.Ident)
	loop, ok := body[1].(*ast.ForStmt)
	if !ok || loop.Init != nil || loop.Post != nil || !isIterCall(loop.Cond, values, "Next") || len(loop.Body.List) != 1 {
		return fmt.Sprintf("its loop is not `for %s.Next()` around one statement", values)
	}
	if !isSumStep(loop.Body.List[0], acc.Name, values) {
		return fmt.Sprintf("its loop does not add %s.Int() to %s", values, acc.Name)
	}
	var call *ast.CallExpr
	if es, ok := body[2].(*ast.ExprStmt); ok {
		call, _ = es.X.(*ast.CallExpr)
	}
	if call == nil || !lang.IsEmit(call, ctx) || len(call.Args) != 2 || !isIdentNamed(call.Args[0], key) || !isIdentNamed(call.Args[1], acc.Name) {
		return fmt.Sprintf("its last statement is not %s.Emit(%s, %s)", ctx, key, acc.Name)
	}
	return ""
}

// isSumStep reports whether s is `acc = acc + values.Int()` or
// `acc += values.Int()`.
func isSumStep(s ast.Stmt, acc, values string) bool {
	as, ok := s.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || !isIdentNamed(as.Lhs[0], acc) {
		return false
	}
	switch as.Tok {
	case token.ADD_ASSIGN:
		return isIterCall(as.Rhs[0], values, "Int")
	case token.ASSIGN:
		sum, ok := as.Rhs[0].(*ast.BinaryExpr)
		return ok && sum.Op == token.ADD && isIdentNamed(sum.X, acc) && isIterCall(sum.Y, values, "Int")
	}
	return false
}

// isIterCall reports whether e is the argument-free call values.method().
func isIterCall(e ast.Expr, values, method string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	recv, m, ok := lang.MethodOn(call)
	return ok && recv == values && m == method
}

func isIdentNamed(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

func isIntLit(e ast.Expr, value string) bool {
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Kind == token.INT && lit.Value == value
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func samePos(a, b ast.Node) bool {
	return a != nil && b != nil && a.Pos() == b.Pos() && a.End() == b.End()
}

// parentMap records each AST node's parent within the body.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
