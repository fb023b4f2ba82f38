package interp

import (
	"go/ast"
	"go/token"
	"math"

	"manimal/internal/lang"
	"manimal/internal/serde"
)

// Static kinds. The compiler knows, for every expression and every frame
// slot of a function, which scalar kind its value has whenever evaluation
// succeeds — or that it does not know. The knowledge comes from a
// flow-insensitive pass over the function body (infer): the language has no
// shadowing, so a name is one storage location for the whole function, and a
// slot is typed iff every statement that defines it agrees on the kind.
//
// What stays dynamic, and why: parameters (callers pass any datum, and the
// runtime never checked a helper's declared parameter types), package-level
// variables (any function may assign them anything), helper results, map
// reads (a map holds datums of any kind), list elements reached by index
// (the indexed value may as well be a map), the key parameter of Map, and
// every record, list and map reference — those are not scalars at all.
type kind uint8

const (
	kDyn   kind = iota // not statically known, or not a scalar: a boxed Value
	kInt               // int64
	kFloat             // float64
	kStr               // string
	kBool              // bool
	kNone              // inference only: no definition seen yet
)

func (k kind) String() string {
	return [...]string{"dynamic", "int", "float", "string", "bool", "none"}[k]
}

// kindOfDatum maps a datum kind to the static kind of expressions yielding
// it; bytes have no typed convention.
func kindOfDatum(k serde.Kind) kind {
	switch k {
	case serde.KindInt64:
		return kInt
	case serde.KindFloat64:
		return kFloat
	case serde.KindString:
		return kStr
	case serde.KindBool:
		return kBool
	default:
		return kDyn
	}
}

// join is the least upper bound of two definitions of one slot.
func join(a, b kind) kind {
	switch {
	case a == kNone:
		return b
	case b == kNone || a == b:
		return a
	default:
		return kDyn
	}
}

// fn is a compiled expression in the typed convention: it yields a Go value
// of the expression's static kind. exprFn — the boxed convention, a Value —
// is the instance every expression has, natively or derived.
type fn[T any] func(*frame) (T, error)

// exprFn is one compiled expression in the boxed convention.
type exprFn = fn[Value]

// texpr is one lowered expression: its static kind and the closure of that
// kind's convention. A node has ONE lowering. Where the kind is static the
// typed closure is the lowering and the boxed form is derived from it on
// demand (compiler.box); where a statically-kinded node can only be computed
// dynamically (a comparison over a map read, a static conflict such as
// 1 < "a" whose runtime error the walker defines), the boxed closure is the
// lowering and the typed one is derived by unboxing (unboxed). A list is no
// scalar, so a list-valued builtin over typed operands is dynamic with a
// typed closure beside: l yields the []string itself, which a range
// statement takes without boxing it.
type texpr struct {
	e ast.Expr // the node, for the boxed-site inventory
	k kind
	i fn[int64]
	f fn[float64]
	s fn[string]
	b fn[bool]
	l fn[[]string]
	v exprFn // boxed: the lowering itself when k == kDyn, else see above
}

func intX(f fn[int64]) texpr     { return texpr{k: kInt, i: f} }
func floatX(f fn[float64]) texpr { return texpr{k: kFloat, f: f} }
func strX(f fn[string]) texpr    { return texpr{k: kStr, s: f} }
func boolX(f fn[bool]) texpr     { return texpr{k: kBool, b: f} }
func dynX(f exprFn) texpr        { return texpr{k: kDyn, v: f} }
func listX(f fn[[]string]) texpr { return texpr{k: kDyn, l: f, v: boxed(f, strList)} }

// unboxed is a dynamically computed expression whose result is known to be
// of kind k whenever f succeeds; its typed closure unboxes f's value.
func unboxed(k kind, f exprFn) texpr {
	return fromDatum(k, f, func(fr *frame) (serde.Datum, error) {
		v, err := f(fr)
		return v.D, err
	})
}

// fromDatum is unboxed for a computation that yields a bare datum (a field
// read, a conf lookup, an iterator value); boxedFn may be nil.
func fromDatum(k kind, boxedFn exprFn, f fn[serde.Datum]) texpr {
	t := texpr{k: k, v: boxedFn}
	switch k {
	case kInt:
		t.i = func(fr *frame) (int64, error) {
			d, err := f(fr)
			return d.Int(), err
		}
	case kFloat:
		t.f = func(fr *frame) (float64, error) {
			d, err := f(fr)
			return d.Float(), err
		}
	case kStr:
		t.s = func(fr *frame) (string, error) {
			d, err := f(fr)
			return d.Str(), err
		}
	case kBool:
		t.b = func(fr *frame) (bool, error) {
			d, err := f(fr)
			return d.Flag(), err
		}
	default:
		if boxedFn == nil {
			t.v = func(fr *frame) (Value, error) {
				d, err := f(fr)
				if err != nil {
					return Value{}, err
				}
				return Scalar(d), nil
			}
		}
	}
	return t
}

// datum evaluates a statically-kinded expression to a datum without ever
// building a Value: what Emit, map stores and Log consume.
func (t *texpr) datum(fr *frame) (serde.Datum, error) {
	switch t.k {
	case kInt:
		x, err := t.i(fr)
		return serde.Int(x), err
	case kFloat:
		x, err := t.f(fr)
		return serde.Float(x), err
	case kStr:
		x, err := t.s(fr)
		return serde.String(x), err
	default:
		x, err := t.b(fr)
		return serde.Bool(x), err
	}
}

// asFloat is the float64 closure of a numeric expression, promoting an int
// the way predicate.EvalBinary and the math builtins do.
func (t *texpr) asFloat() fn[float64] {
	if t.k == kFloat {
		return t.f
	}
	i := t.i
	return func(fr *frame) (float64, error) {
		x, err := i(fr)
		return float64(x), err
	}
}

func numeric(k kind) bool { return k == kInt || k == kFloat }

// slot is the unboxed storage of one typed frame slot: w holds the int64,
// the float64's bits or the bool, s the string.
type slot struct {
	w uint64
	s string
}

func (s *slot) float() float64 { return math.Float64frombits(s.w) }

// Kind rules. infer and the lowering both go through these, so the kind a
// slot was given and the closure family stored into it cannot disagree.

func isComparison(op token.Token) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return true
	}
	return false
}

// arithKind is the static kind of l op r for an arithmetic operator, kDyn
// when an operand is dynamic or the kinds conflict (the operation then
// fails at run time with predicate.EvalBinary's error).
func arithKind(op token.Token, l, r kind) kind {
	switch {
	case l == kDyn || r == kDyn:
		return kDyn
	case l == kNone || r == kNone:
		return kNone
	case l == kInt && r == kInt:
		return kInt
	case numeric(l) && numeric(r) && op != token.REM:
		return kFloat
	case l == kStr && r == kStr && op == token.ADD:
		return kStr
	default:
		return kDyn
	}
}

func binaryKind(op token.Token, l, r kind) kind {
	if op == token.LAND || op == token.LOR || isComparison(op) {
		return kBool
	}
	return arithKind(op, l, r)
}

func unaryKind(op token.Token, x kind) kind {
	switch {
	case op == token.NOT:
		return kBool
	case op == token.ADD, op == token.SUB && (numeric(x) || x == kNone):
		return x
	default:
		return kDyn
	}
}

// zeroKind is the kind of a var declaration's zero value.
func zeroKind(t ast.Expr) kind {
	z, err := zeroValue(t)
	if err != nil || z.Kind != ValScalar {
		return kDyn
	}
	return kindOfDatum(z.D.Kind)
}

// opOfAssign maps an op-assign token to its binary operator.
func opOfAssign(tok token.Token) token.Token {
	switch tok {
	case token.ADD_ASSIGN:
		return token.ADD
	case token.SUB_ASSIGN:
		return token.SUB
	case token.MUL_ASSIGN:
		return token.MUL
	case token.QUO_ASSIGN:
		return token.QUO
	default:
		return token.REM
	}
}

// infer computes the static kind of every slot and expression of the
// function. Slots start undefined (kNone) except parameters, which are
// dynamic; each pass joins every definition's kind into its slot, to a
// fixpoint. Slots still undefined then — never assigned, or assigned only
// from themselves — become dynamic, and the passes run on so that whatever
// was computed from them settles too. Kinds only ever rise (none < typed <
// dynamic), so this terminates; at the end every definition of a typed slot
// is an expression of the slot's kind under the final slot kinds, which is
// what lets the lowering (which asks kindOf's rules again, node by node)
// store typed closures' results into typed slots unchecked.
func (c *compiler) infer() {
	c.slotKind = make([]kind, c.fn.NumSlots())
	for i := range c.slotKind {
		c.slotKind[i] = kNone
	}
	for _, p := range c.cf.params {
		if p >= 0 {
			c.slotKind[p] = kDyn
		}
	}
	fixpoint := func() {
		for c.changed = true; c.changed; {
			c.changed = false
			c.inferStmt(c.fn.Body)
		}
	}
	fixpoint()
	for i, k := range c.slotKind {
		if k == kNone {
			c.slotKind[i] = kDyn
		}
	}
	fixpoint()
}

// define joins one definition into the target's slot, if it has one.
func (c *compiler) define(target ast.Expr, k kind) {
	id, ok := target.(*ast.Ident)
	if !ok {
		return
	}
	i, ok := c.fn.SlotIndex(id.Name)
	if !ok {
		return
	}
	if id.Name == c.recName {
		c.recName = "" // rebound in the body: no longer known to be the input record
	}
	if nk := join(c.slotKind[i], k); nk != c.slotKind[i] {
		c.slotKind[i] = nk
		c.changed = true
	}
}

func (c *compiler) inferStmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.AssignStmt:
		if len(st.Lhs) == 2 { // x, ok := m[k]
			c.define(st.Lhs[0], kDyn)
			c.define(st.Lhs[1], kBool)
			return
		}
		k := c.kindOf(st.Rhs[0])
		if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
			k = arithKind(opOfAssign(st.Tok), c.kindOf(st.Lhs[0]), k)
		}
		c.define(st.Lhs[0], k)
	case *ast.DeclStmt:
		for _, spec := range st.Decl.(*ast.GenDecl).Specs {
			vs := spec.(*ast.ValueSpec)
			for i, n := range vs.Names {
				k := zeroKind(vs.Type)
				if i < len(vs.Values) {
					k = c.kindOf(vs.Values[i])
				}
				c.define(n, k)
			}
		}
	case *ast.IncDecStmt:
		c.define(st.X, c.kindOf(st.X))
	case *ast.IfStmt:
		c.inferStmt(st.Body)
		if st.Else != nil {
			c.inferStmt(st.Else)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			c.inferStmt(st.Init)
		}
		if st.Post != nil {
			c.inferStmt(st.Post)
		}
		c.inferStmt(st.Body)
	case *ast.RangeStmt:
		// Every list is a list of strings (strList is the only constructor),
		// so a range that runs at all binds an int index and a string element.
		if st.Key != nil {
			c.define(st.Key, kInt)
		}
		if st.Value != nil {
			c.define(st.Value, kStr)
		}
		c.inferStmt(st.Body)
	case *ast.BlockStmt:
		for _, s := range st.List {
			c.inferStmt(s)
		}
	}
}

// kindOf is the static kind of an expression under the current slot kinds.
func (c *compiler) kindOf(e ast.Expr) kind {
	switch ex := e.(type) {
	case *ast.BasicLit:
		if v, err := litValue(ex); err == nil {
			return kindOfDatum(v.D.Kind)
		}
	case *ast.Ident:
		if ex.Name == "true" || ex.Name == "false" {
			return kBool
		}
		if i, ok := c.fn.SlotIndex(ex.Name); ok {
			return c.slotKind[i]
		}
	case *ast.ParenExpr:
		return c.kindOf(ex.X)
	case *ast.UnaryExpr:
		return unaryKind(ex.Op, c.kindOf(ex.X))
	case *ast.BinaryExpr:
		return binaryKind(ex.Op, c.kindOf(ex.X), c.kindOf(ex.Y))
	case *ast.CallExpr:
		return c.callKind(ex)
	}
	return kDyn
}

// callKind mirrors compiler.call's dispatch, which asks it for the kind to
// lower the call to. It answers from the callee alone wherever it can: a
// call with the wrong arity or a non-constant argument still has its
// method's kind, and its lowering — a closure that fails when executed — is
// given that kind.
func (c *compiler) callKind(call *ast.CallExpr) kind {
	// args is what min and max need: the kind the arguments share, if any.
	args := func() kind {
		k := kNone
		for _, a := range call.Args {
			k = join(k, c.kindOf(a))
		}
		return k
	}
	recv, method, ok := lang.MethodOn(call)
	if !ok {
		name, _ := lang.CallName(call)
		if _, helper := c.funcs[name]; helper && !lang.IsWellKnown(name) {
			return kDyn
		}
		return builtinKind(name, args)
	}
	switch {
	case recv == "strings" || recv == "strconv" || recv == "math":
		return builtinKind(recv+"."+method, args)
	case recv == c.ctxName:
		switch method {
		case "ConfInt", "ConfFloat", "ConfStr":
			return kindOfDatum(confKind(method))
		}
		return kDyn
	case recv == c.iterName:
		switch method {
		case "Next", "HasField":
			return kBool
		case "Int", "Float", "Str":
			return kindOfDatum(scalarKind(method))
		case "FieldInt", "FieldFloat", "FieldStr":
			want, _ := accessorKind(iterFieldAccessor(method))
			return kindOfDatum(want)
		}
		return kDyn
	default:
		if method == "Has" {
			return kBool
		}
		want, _ := accessorKind(method)
		return kindOfDatum(want)
	}
}
