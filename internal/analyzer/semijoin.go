package analyzer

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"manimal/internal/lang"
	"manimal/internal/predicate"
	"manimal/internal/serde"
)

// proveSemiJoin checks, safety-first, that the join keyed by keys can run
// as a semi-join: red (the job's Reduce) is inner on one input, and
// dropping the other input's rows before Map changes nothing but work.
// maps holds each input's Map analysis. Every check must pass; the first
// that fails is the error, kept as JoinDescriptor.SemiJoinRefused.
//
// The accepted Reduce is Benchmark 3's shape:
//
//	rank := -1; revenue := 0; visits := 0      // locals, each := a literal
//	for values.Next() {
//		if values.HasField("pageRank") { ... } else { ... }
//	}
//	if visits > 0 { ctx.Emit(...) }           // every emit, under the guard
//
// where HasField's field is in exactly one input's schema, visits starts
// at 0 and is only incremented on the build side's branch, and the other
// side's branch only assigns locals from literals, locals, the key, and
// that side's fields read with the accessor of their kind. A group with no
// build-side value then leaves visits at 0 and never errs, so it emits
// nothing; with no ctx.Counter or ctx.Log in Reduce and no side effect in
// the other side's Map, skipping its rows is invisible. Whether the build
// side's keys are few enough to be worth a set is a plan decision
// (optimizer.ChooseSemiJoin), not part of the proof.
func proveSemiJoin(keys [2]predicate.Field, maps [2]*analysis, red *lang.Function) (*SemiJoinProof, error) {
	var schemas [2]*serde.Schema
	for i, a := range maps {
		schemas[i] = a.schema
		if a.prog.Combine() != nil {
			return nil, fmt.Errorf("input %d's program has a Combine, which would see the filtered values", i)
		}
		for _, e := range a.emits {
			if len(e.call.Args) != 2 || !isIdentNamed(e.call.Args[1], a.valueParam) {
				return nil, fmt.Errorf("input %d's Map emits a value that is not its whole record", i)
			}
		}
	}
	k0, _ := schemas[0].KindOf(keys[0].Name)
	k1, _ := schemas[1].KindOf(keys[1].Name)
	if k0 != k1 || (k0 != serde.KindString && k0 != serde.KindInt64) {
		return nil, fmt.Errorf("join fields are %v and %v; a key set needs both string or both int64", k0, k1)
	}
	for i, k := range keys {
		if k.Kind() != k0 {
			return nil, fmt.Errorf("input %d reads its join field with %s", i, k.Canon())
		}
	}
	if red == nil || len(red.Params) != 3 {
		return nil, errors.New("the lead program has no Reduce(key, values, ctx)")
	}
	proof, err := innerReduce(red, schemas)
	if err != nil {
		return nil, fmt.Errorf("Reduce: %w", err)
	}
	probe := maps[1-proof.Build]
	if fx := probe.findSideEffects(); len(fx) > 0 {
		return nil, fmt.Errorf("input %d's Map has side effects (%s) that filtered rows would skip", 1-proof.Build, fx[0])
	}
	if what, writes := probe.writesGlobals(); writes {
		return nil, fmt.Errorf("input %d's Map writes member variable %s", 1-proof.Build, what)
	}
	return proof, nil
}

// iterFieldKind is the datum kind a values.Field* accessor reads.
var iterFieldKind = map[string]serde.Kind{
	"FieldInt": serde.KindInt64, "FieldFloat": serde.KindFloat64, "FieldStr": serde.KindString,
}

// innerReduce proves red has the shape proveSemiJoin documents and returns
// which input it is inner on.
func innerReduce(red *lang.Function, schemas [2]*serde.Schema) (*SemiJoinProof, error) {
	keyP, vals, ctx := red.Params[0].Name, red.Params[1].Name, red.Params[2].Name
	var bad error
	ast.Inspect(red.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && bad == nil {
			if recv, m, ok := lang.MethodOn(c); ok && recv == ctx && lang.SideEffectCtxMethods[m] {
				bad = fmt.Errorf("calls ctx.%s, which a dropped group would skip", m)
			}
		}
		return bad == nil
	})
	if bad != nil {
		return nil, bad
	}

	// Locals: a run of `x := literal` statements before the loop.
	stmts := red.Body.List
	locals, zero := map[string]bool{}, map[string]bool{}
	for len(stmts) > 0 {
		as, ok := stmts[0].(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != 1 || len(as.Rhs) != 1 || !isLiteral(as.Rhs[0]) {
			break
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			break
		}
		locals[id.Name] = true
		if lit, ok := as.Rhs[0].(*ast.BasicLit); ok && lit.Kind == token.INT && lit.Value == "0" {
			zero[id.Name] = true
		}
		stmts = stmts[1:]
	}

	// The loop: for values.Next() { if [!]values.HasField("f") {...} else {...} }.
	if len(stmts) == 0 {
		return nil, errors.New("no values loop after its locals")
	}
	loop, ok := stmts[0].(*ast.ForStmt)
	if !ok || loop.Init != nil || loop.Post != nil || !isIterCall(loop.Cond, vals, "Next") {
		return nil, fmt.Errorf("the statement after its literal locals is not `for %s.Next()`", vals)
	}
	if len(loop.Body.List) != 1 {
		return nil, errors.New("the values loop is not one HasField test")
	}
	test, ok := loop.Body.List[0].(*ast.IfStmt)
	if !ok || test.Init != nil {
		return nil, errors.New("the values loop is not one HasField test")
	}
	cond, negated := test.Cond, false
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		cond, negated = u.X, true
	}
	tag, ok := iterHasField(cond, vals)
	if !ok {
		return nil, errors.New("the values loop does not branch on values.HasField(\"field\")")
	}
	in0, in1 := schemas[0].Has(tag), schemas[1].Has(tag)
	if in0 == in1 {
		return nil, fmt.Errorf("HasField(%q) does not tell the sides apart: both schemas or neither carry it", tag)
	}
	// thenSide is the input whose values take the then-branch.
	thenSide := 0
	if in1 != negated {
		thenSide = 1
	}
	branches := [2]*ast.BlockStmt{test.Body, {}}
	if test.Else != nil {
		blk, ok := test.Else.(*ast.BlockStmt)
		if !ok {
			return nil, errors.New("the HasField test has an else-if")
		}
		branches[1] = blk
	}

	// Every statement after the loop is `if c > 0 [&& ...] { ... }`, with
	// one counter c throughout.
	counter := ""
	guards := stmts[1:]
	if len(guards) == 0 {
		return nil, errors.New("nothing after the values loop; no emit is guarded")
	}
	for _, s := range guards {
		g, ok := s.(*ast.IfStmt)
		if !ok || g.Init != nil || g.Else != nil {
			return nil, errors.New("a statement after the values loop is not an if without else")
		}
		c, ok := counterTest(g.Cond)
		if !ok || (counter != "" && c != counter) {
			return nil, errors.New("an if after the values loop is not guarded by one local being > 0")
		}
		counter = c
	}
	if !zero[counter] {
		return nil, fmt.Errorf("the guard's local %s does not start at 0", counter)
	}
	emits := countEmits(red.Body, ctx)
	guarded := 0
	for _, s := range guards {
		guarded += countEmits(s.(*ast.IfStmt).Body, ctx)
	}
	if emits != guarded {
		return nil, fmt.Errorf("%d of its %d emits are outside the `%s > 0` guard", emits-guarded, emits, counter)
	}

	// The counter changes only by increments, all on one branch: that
	// branch's side is the build side.
	var per [2]int
	for i, b := range branches {
		n, incOnly := counterWrites(b, counter)
		if !incOnly {
			return nil, fmt.Errorf("%s is assigned other than by a positive increment", counter)
		}
		per[i] = n
	}
	if all, _ := counterWrites(red.Body, counter); all != per[0]+per[1]+1 { // +1: its := 0
		return nil, fmt.Errorf("%s is assigned outside the HasField branches", counter)
	}
	var buildBranch int
	switch {
	case per[0] > 0 && per[1] > 0:
		return nil, fmt.Errorf("%s is incremented for values of both inputs", counter)
	case per[0]+per[1] == 0:
		return nil, fmt.Errorf("%s is never incremented", counter)
	case per[1] > 0:
		buildBranch = 1
	}
	build := thenSide
	if buildBranch == 1 {
		build = 1 - thenSide
	}

	// The other side's branch must not err or reach outside the group.
	other := branches[1-buildBranch]
	for _, s := range other.List {
		if err := safeAssign(s, locals, counter, keyP, vals, schemas[1-build]); err != nil {
			return nil, fmt.Errorf("on input %d's values: %w", 1-build, err)
		}
	}
	return &SemiJoinProof{Build: build, Tag: tag, Counter: counter}, nil
}

// safeAssign accepts `x = e` where x is one of locals other than counter
// and e is a literal, a local, the key, or a field of schema read with the
// values accessor of its kind: a statement that can neither fail nor
// touch anything that outlives the Reduce call.
func safeAssign(s ast.Stmt, locals map[string]bool, counter, keyP, vals string, schema *serde.Schema) error {
	as, ok := s.(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return errors.New("a statement is not a plain `local = value` assignment")
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || !locals[id.Name] || id.Name == counter {
		return fmt.Errorf("it assigns %s, which is not one of its literal locals", types.ExprString(as.Lhs[0]))
	}
	switch rhs := as.Rhs[0].(type) {
	case *ast.Ident:
		if locals[rhs.Name] || rhs.Name == keyP {
			return nil
		}
	case *ast.CallExpr:
		recv, m, ok := lang.MethodOn(rhs)
		want, isField := iterFieldKind[m]
		if ok && recv == vals && isField && len(rhs.Args) == 1 {
			if f, ok := stringLit(rhs.Args[0]); ok {
				if k, has := schema.KindOf(f); has && k == want {
					return nil
				}
			}
		}
	default:
		if isLiteral(rhs) {
			return nil
		}
	}
	return fmt.Errorf("%s may fail or read outside its side's fields", types.ExprString(as.Rhs[0]))
}

// counterWrites counts the statements under n that assign counter, and
// reports whether each is an increment by a positive int literal (its
// `:= 0` counts as one write and as an increment).
func counterWrites(n ast.Node, counter string) (writes int, incOnly bool) {
	incOnly = true
	ast.Inspect(n, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.IncDecStmt:
			if isIdentNamed(st.X, counter) {
				writes++
				incOnly = incOnly && st.Tok == token.INC
			}
		case *ast.AssignStmt:
			for _, l := range st.Lhs {
				if !isIdentNamed(l, counter) {
					continue
				}
				writes++
				switch {
				case st.Tok == token.DEFINE:
				case st.Tok == token.ADD_ASSIGN && len(st.Rhs) == 1:
					incOnly = incOnly && positiveInt(st.Rhs[0])
				case st.Tok == token.ASSIGN && len(st.Rhs) == 1:
					b, ok := st.Rhs[0].(*ast.BinaryExpr)
					incOnly = incOnly && ok && b.Op == token.ADD &&
						((isIdentNamed(b.X, counter) && positiveInt(b.Y)) || (isIdentNamed(b.Y, counter) && positiveInt(b.X)))
				default:
					incOnly = false
				}
			}
		}
		return true
	})
	return writes, incOnly
}

// counterTest recognizes a guard that is false when local c is 0: `c > 0`,
// `c >= 1`, `c != 0` or their mirror images, possibly as the leftmost
// operand of a && chain (which short-circuits before the rest).
func counterTest(e ast.Expr) (string, bool) {
	e = unparen(e)
	b, ok := e.(*ast.BinaryExpr)
	if !ok {
		return "", false
	}
	if b.Op == token.LAND {
		return counterTest(b.X)
	}
	x, y, op := unparen(b.X), unparen(b.Y), b.Op
	if _, ok := x.(*ast.BasicLit); ok {
		x, y = y, x
		switch op {
		case token.LSS:
			op = token.GTR
		case token.GTR:
			op = token.LSS
		case token.LEQ:
			op = token.GEQ
		case token.GEQ:
			op = token.LEQ
		}
	}
	id, ok := x.(*ast.Ident)
	lit, isLit := y.(*ast.BasicLit)
	if !ok || !isLit || lit.Kind != token.INT {
		return "", false
	}
	switch {
	case op == token.GTR && lit.Value == "0", op == token.NEQ && lit.Value == "0", op == token.GEQ && lit.Value == "1":
		return id.Name, true
	}
	return "", false
}

// countEmits counts the ctx.Emit calls under n.
func countEmits(n ast.Node, ctx string) int {
	count := 0
	ast.Inspect(n, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && lang.IsEmit(c, ctx) {
			count++
		}
		return true
	})
	return count
}

// iterHasField matches `vals.HasField("f")` and returns f.
func iterHasField(e ast.Expr, vals string) (string, bool) {
	c, ok := unparen(e).(*ast.CallExpr)
	if !ok || len(c.Args) != 1 {
		return "", false
	}
	if recv, m, ok := lang.MethodOn(c); !ok || recv != vals || m != "HasField" {
		return "", false
	}
	return stringLit(c.Args[0])
}

// isLiteral matches a basic literal, possibly negated.
func isLiteral(e ast.Expr) bool {
	e = unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.SUB {
		e = unparen(u.X)
	}
	_, ok := e.(*ast.BasicLit)
	return ok
}

func positiveInt(e ast.Expr) bool {
	lit, ok := unparen(e).(*ast.BasicLit)
	if !ok || lit.Kind != token.INT {
		return false
	}
	n, err := strconv.ParseInt(lit.Value, 0, 64)
	return err == nil && n > 0
}

func stringLit(e ast.Expr) (string, bool) {
	lit, ok := unparen(e).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}
