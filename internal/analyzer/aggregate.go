package analyzer

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"manimal/internal/lang"
	"manimal/internal/serde"
)

// AggregateDescriptor names a Map the engine can run as a column kernel:
// its body is exactly one ctx.Emit(K, V), and the program's Combine is the
// int64 sum findCombine recognizes, so every pair folds. K is
// v.Str(Key), v.Int(Key) or v.Int(Key) / Div with Div a non-zero int
// literal; V is v.Int(Value) or the int literal Const (Value empty). Op
// is the Combine's ("sum").
type AggregateDescriptor struct {
	Op      string
	Key     string
	KeyKind serde.Kind // KindString (v.Str) or KindInt64 (v.Int)
	Div     int64      // 0 when the key is not divided
	Value   string
	Const   int64
}

// String renders the aggregate as "<op> of <value> by <key>".
func (g *AggregateDescriptor) String() string {
	val := strconv.FormatInt(g.Const, 10)
	if g.Value != "" {
		val = fmt.Sprintf("v.Int(%q)", g.Value)
	}
	acc := "Int"
	if g.KeyKind == serde.KindString {
		acc = "Str"
	}
	key := fmt.Sprintf("v.%s(%q)", acc, g.Key)
	if g.Div != 0 {
		key += " / " + strconv.FormatInt(g.Div, 10)
	}
	return fmt.Sprintf("%s of %s by %s", g.Op, val, key)
}

// findAggregate recognizes a Map that is one emit of a field-derived key
// and an int value over a folding Combine. Everything else — a guard, a
// second statement, a side effect, a key from a helper or a global, a
// computed divisor, a field whose kind the accessor does not read — is
// left to the interpreter, with a note.
func (a *analysis) findAggregate(d *Descriptor) *AggregateDescriptor {
	g, why := a.aggregateShape(d)
	if why != "" {
		d.notef("aggregate: %s; the interpreter runs Map", why)
		return nil
	}
	return g
}

func (a *analysis) aggregateShape(d *Descriptor) (*AggregateDescriptor, string) {
	if d.Combine == nil {
		return nil, "no int64-sum Combine to fold into"
	}
	if a.schema == nil {
		return nil, "no input schema available"
	}
	body := a.fn.Body.List
	if len(body) != 1 {
		return nil, fmt.Sprintf("Map has %d statements, not one emit", len(body))
	}
	if _, ok := body[0].(*ast.IfStmt); ok {
		return nil, "Map's emit is guarded"
	}
	var call *ast.CallExpr
	if es, ok := body[0].(*ast.ExprStmt); ok {
		call, _ = es.X.(*ast.CallExpr)
	}
	if call == nil || !lang.IsEmit(call, a.ctxParam) || len(call.Args) != 2 {
		return nil, fmt.Sprintf("Map's statement is not %s.Emit(key, value)", a.ctxParam)
	}
	g := &AggregateDescriptor{Op: d.Combine.Op}
	key := unparen(call.Args[0])
	if div, ok := key.(*ast.BinaryExpr); ok && div.Op == token.QUO {
		c, ok := intLiteral(div.Y)
		if !ok || c == 0 {
			return nil, fmt.Sprintf("key %s divides by %s, not a non-zero int literal", types.ExprString(key), types.ExprString(div.Y))
		}
		g.Div = c
		key = unparen(div.X)
	}
	field, acc, why := a.fieldRead(key)
	switch {
	case why != "":
		return nil, "key " + why
	case acc == "Str" && g.Div == 0:
		g.KeyKind = serde.KindString
	case acc == "Int":
		g.KeyKind = serde.KindInt64
	default:
		return nil, fmt.Sprintf("key %s is not v.Str(f), v.Int(f) or v.Int(f) / C", types.ExprString(call.Args[0]))
	}
	g.Key = field
	val := unparen(call.Args[1])
	if c, ok := intLiteral(val); ok {
		g.Const = c
		return g, ""
	}
	field, acc, why = a.fieldRead(val)
	if why != "" || acc != "Int" {
		return nil, fmt.Sprintf("value %s is not v.Int(f) or an int literal", types.ExprString(call.Args[1]))
	}
	g.Value = field
	return g, ""
}

// fieldRead matches e against v.Str(f) or v.Int(f) on the Map's value
// record with f a schema field of the kind the accessor reads, or says why
// not.
func (a *analysis) fieldRead(e ast.Expr) (field, acc, why string) {
	call, ok := e.(*ast.CallExpr)
	if ok {
		recv, _, isMethod := lang.MethodOn(call)
		ok = isMethod && recv == a.valueParam
	}
	if ok {
		field, acc, ok = lang.IsRecordAccessor(call)
	}
	if !ok || field == "" || (acc != "Str" && acc != "Int") {
		return "", "", fmt.Sprintf("%s is not a field read", types.ExprString(e))
	}
	want := serde.KindString
	if acc == "Int" {
		want = serde.KindInt64
	}
	kind, found := a.schema.KindOf(field)
	if !found {
		return "", "", fmt.Sprintf("field %q is not in the input schema", field)
	}
	if kind != want {
		return "", "", fmt.Sprintf("field %q is %v, not what v.%s reads", field, kind, acc)
	}
	return field, acc, ""
}

// intLiteral returns the value of an int literal, negated or not, as the
// interpreter reads it.
func intLiteral(e ast.Expr) (int64, bool) {
	e = unparen(e)
	neg := false
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.SUB {
		neg, e = true, unparen(u.X)
	}
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.INT {
		return 0, false
	}
	v, err := strconv.ParseInt(lit.Value, 0, 64)
	if err != nil {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}
