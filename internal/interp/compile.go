package interp

import (
	"fmt"
	"go/ast"
	"go/token"

	"manimal/internal/lang"
	"manimal/internal/predicate"
	"manimal/internal/serde"
)

// This file and compile_expr.go are the interpreter: they lower every
// function body of a program — Map, Reduce, Combine and the user's helpers —
// into chains of Go closures, once per Executor, so that per-record
// execution never re-walks the go/ast tree. Identifier references are
// resolved at compile time to integer frame slots (or to the executor's
// global cells), accessor/builtin/ctx dispatch to function values instead of
// per-call string switches, and helper calls to the callee's compiledFunc.
//
// The lowering is total over everything lang.Parse accepts: a construct the
// language admits syntactically but cannot run (a two-value assignment from
// a call, make of a non-map type, ++ on a map element, ...) compiles to a
// closure that fails with its runtime error when — and only when — that
// statement or expression executes. The AST tree-walker in walker_test.go
// defines those semantics independently; differential_test.go holds the
// closures to it.

// stmtFn is one compiled statement; it returns the control-flow outcome.
type stmtFn func(*frame) (ctrl, error)

// exprFn is one compiled expression.
type exprFn func(*frame) (Value, error)

// storeFn writes one value to a compiled assignment target.
type storeFn func(*frame, Value) error

// compiledFunc is one function lowered to closures, plus what a caller needs
// to activate it: the frame size and the slot of each parameter (-1 for the
// blank identifier).
type compiledFunc struct {
	name   string
	nslots int
	params []int
	body   stmtFn
}

// compileProgram lowers every function of the executor's program. The
// compiledFuncs exist before any body is lowered, so a call site can bind
// its callee regardless of declaration order or recursion.
func compileProgram(ex *Executor) map[string]*compiledFunc {
	funcs := make(map[string]*compiledFunc, len(ex.prog.Funcs))
	for name, fn := range ex.prog.Funcs {
		cf := &compiledFunc{name: name, nslots: fn.NumSlots(), params: make([]int, len(fn.Params))}
		for i, p := range fn.Params {
			cf.params[i] = -1
			if slot, ok := fn.SlotIndex(p.Name); ok {
				cf.params[i] = slot
			}
		}
		funcs[name] = cf
	}
	for name, fn := range ex.prog.Funcs {
		c := &compiler{ex: ex, fn: fn, funcs: funcs}
		// Only a well-formed stage function has a ctx (and, for Reduce and
		// Combine, an iterator) parameter; helpers take neither.
		if lang.IsWellKnown(name) && len(fn.Params) == 3 {
			c.ctxName = fn.Params[2].Name
			if name != lang.MapFuncName {
				c.iterName = fn.Params[1].Name
			}
		}
		funcs[name].body = c.block(fn.Body)
	}
	return funcs
}

// compiler lowers one function. ctxName/iterName name the parameters whose
// method calls are ctx and iterator operations ("" when there is none).
type compiler struct {
	ex       *Executor
	fn       *lang.Function
	funcs    map[string]*compiledFunc
	ctxName  string
	iterName string
}

func (c *compiler) block(b *ast.BlockStmt) stmtFn {
	fns := make([]stmtFn, len(b.List))
	for i, s := range b.List {
		fns[i] = c.stmt(s)
	}
	return func(fr *frame) (ctrl, error) {
		for _, f := range fns {
			ct, err := f(fr)
			if err != nil || ct != ctrlNone {
				return ct, err
			}
		}
		return ctrlNone, nil
	}
}

func (c *compiler) stmt(s ast.Stmt) stmtFn {
	switch st := s.(type) {
	case *ast.AssignStmt:
		return c.assign(st)
	case *ast.DeclStmt:
		return c.decl(st)
	case *ast.ExprStmt:
		f := c.expr(st.X)
		return func(fr *frame) (ctrl, error) {
			_, err := f(fr)
			return ctrlNone, err
		}
	case *ast.IncDecStmt:
		return c.incDec(st)
	case *ast.IfStmt:
		return c.ifStmt(st)
	case *ast.ForStmt:
		return c.forStmt(st)
	case *ast.RangeStmt:
		return c.rangeStmt(st)
	case *ast.ReturnStmt:
		if len(st.Results) != 1 {
			return func(*frame) (ctrl, error) { return ctrlReturn, nil }
		}
		f := c.expr(st.Results[0])
		return func(fr *frame) (ctrl, error) {
			v, err := f(fr)
			if err != nil {
				return ctrlNone, err
			}
			fr.ret = v
			return ctrlReturn, nil
		}
	case *ast.BranchStmt:
		if st.Tok == token.BREAK {
			return func(*frame) (ctrl, error) { return ctrlBreak, nil }
		}
		return func(*frame) (ctrl, error) { return ctrlContinue, nil }
	case *ast.BlockStmt:
		return c.block(st)
	default:
		return errStmt(fmt.Errorf("interp: unsupported statement %T", s))
	}
}

// errStmt compiles a statement whose execution always fails with err.
func errStmt(err error) stmtFn {
	return func(*frame) (ctrl, error) { return ctrlNone, err }
}

func (c *compiler) assign(st *ast.AssignStmt) stmtFn {
	// Two-value form: x, ok := m[k].
	if len(st.Lhs) == 2 {
		ix, ok := st.Rhs[0].(*ast.IndexExpr)
		if !ok {
			return errStmt(fmt.Errorf("interp: two-value assignment requires a map index"))
		}
		mapFn := c.expr(ix.X)
		keyFn := c.expr(ix.Index)
		store0 := c.store(st.Lhs[0], st.Tok)
		store1 := c.store(st.Lhs[1], st.Tok)
		return func(fr *frame) (ctrl, error) {
			mv, err := mapFn(fr)
			if err != nil {
				return ctrlNone, err
			}
			if mv.Kind != ValMap {
				return ctrlNone, fmt.Errorf("interp: two-value index on %v", mv.Kind)
			}
			kv, err := keyFn(fr)
			if err != nil {
				return ctrlNone, err
			}
			kd, err := kv.scalar()
			if err != nil {
				return ctrlNone, err
			}
			d, found := mv.dict()[string(fr.ex.mapKey(kd))]
			if !found {
				d = serde.Bool(false) // zero value; language maps default to bool
			}
			if err := store0(fr, Scalar(d)); err != nil {
				return ctrlNone, err
			}
			return ctrlNone, store1(fr, BoolVal(found))
		}
	}

	rhsFn := c.expr(st.Rhs[0])
	if st.Tok == token.ASSIGN || st.Tok == token.DEFINE {
		store := c.store(st.Lhs[0], st.Tok)
		return func(fr *frame) (ctrl, error) {
			v, err := rhsFn(fr)
			if err != nil {
				return ctrlNone, err
			}
			return ctrlNone, store(fr, v)
		}
	}

	// Op-assign: read, combine, write.
	curFn := c.expr(st.Lhs[0])
	store := c.store(st.Lhs[0], token.ASSIGN)
	var op token.Token
	switch st.Tok {
	case token.ADD_ASSIGN:
		op = token.ADD
	case token.SUB_ASSIGN:
		op = token.SUB
	case token.MUL_ASSIGN:
		op = token.MUL
	case token.QUO_ASSIGN:
		op = token.QUO
	case token.REM_ASSIGN:
		op = token.REM
	}
	return func(fr *frame) (ctrl, error) {
		rhs, err := rhsFn(fr)
		if err != nil {
			return ctrlNone, err
		}
		cur, err := curFn(fr)
		if err != nil {
			return ctrlNone, err
		}
		curD, err := cur.scalar()
		if err != nil {
			return ctrlNone, err
		}
		rhsD, err := rhs.scalar()
		if err != nil {
			return ctrlNone, err
		}
		out, err := predicate.EvalBinary(op, curD, rhsD)
		if err != nil {
			return ctrlNone, err
		}
		return ctrlNone, store(fr, Scalar(out))
	}
}

// store resolves an assignment target at compile time. Identifier targets
// become slot or global-cell writes; index targets become map stores.
func (c *compiler) store(lhs ast.Expr, tok token.Token) storeFn {
	switch l := lhs.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return func(*frame, Value) error { return nil }
		}
		if i, ok := c.fn.SlotIndex(l.Name); ok {
			// Slot writes cover both := (define) and = (assign-or-define):
			// the no-shadowing rule makes the two identical on slot names.
			return func(fr *frame, v Value) error {
				fr.slots[i] = v
				fr.defined[i] = true
				return nil
			}
		}
		if g, ok := c.ex.globals[l.Name]; ok && tok != token.DEFINE {
			return func(_ *frame, v Value) error {
				*g = v
				return nil
			}
		}
		err := errNotLocal(l.Name)
		return func(*frame, Value) error { return err }
	case *ast.IndexExpr:
		mapFn := c.expr(l.X)
		keyFn := c.expr(l.Index)
		return func(fr *frame, v Value) error {
			mv, err := mapFn(fr)
			if err != nil {
				return err
			}
			if mv.Kind != ValMap {
				return fmt.Errorf("interp: index assignment on %v", mv.Kind)
			}
			kv, err := keyFn(fr)
			if err != nil {
				return err
			}
			kd, err := kv.scalar()
			if err != nil {
				return err
			}
			d, err := v.scalar()
			if err != nil {
				return err
			}
			mv.dict()[string(fr.ex.mapKey(kd))] = d
			return nil
		}
	default:
		err := fmt.Errorf("interp: unsupported assignment target %T", lhs)
		return func(*frame, Value) error { return err }
	}
}

func (c *compiler) decl(st *ast.DeclStmt) stmtFn {
	var fns []stmtFn
	for _, spec := range st.Decl.(*ast.GenDecl).Specs {
		vs := spec.(*ast.ValueSpec)
		for i, n := range vs.Names {
			var valFn exprFn
			if i < len(vs.Values) {
				valFn = c.expr(vs.Values[i])
			} else {
				valFn = zeroFn(vs.Type)
			}
			store := c.store(n, token.DEFINE)
			fns = append(fns, func(fr *frame) (ctrl, error) {
				v, err := valFn(fr)
				if err != nil {
					return ctrlNone, err
				}
				return ctrlNone, store(fr, v)
			})
		}
	}
	return func(fr *frame) (ctrl, error) {
		for _, f := range fns {
			if _, err := f(fr); err != nil {
				return ctrlNone, err
			}
		}
		return ctrlNone, nil
	}
}

// zeroFn compiles the zero value of a declared type. Scalar zeros are
// computed once; map zeros must allocate a fresh map per execution.
func zeroFn(t ast.Expr) exprFn {
	if _, ok := t.(*ast.MapType); ok {
		return func(*frame) (Value, error) { return NewMapVal(), nil }
	}
	z, err := zeroValue(t)
	return func(*frame) (Value, error) { return z, err }
}

func (c *compiler) incDec(st *ast.IncDecStmt) stmtFn {
	id, ok := st.X.(*ast.Ident)
	if !ok {
		return errStmt(fmt.Errorf("interp: ++/-- target must be a variable"))
	}
	ref := c.ref(id.Name)
	delta := int64(1)
	if st.Tok == token.DEC {
		delta = -1
	}
	return func(fr *frame) (ctrl, error) {
		v, err := ref(fr)
		if err != nil {
			return ctrlNone, err
		}
		d, err := v.scalar()
		if err != nil {
			return ctrlNone, err
		}
		switch d.Kind {
		case serde.KindInt64:
			v.D = serde.Int(d.Int() + delta)
		case serde.KindFloat64:
			v.D = serde.Float(d.Float() + float64(delta))
		default:
			return ctrlNone, fmt.Errorf("interp: ++/-- on %v", d.Kind)
		}
		return ctrlNone, nil
	}
}

// ref resolves a mutable variable reference at compile time: the frame slot
// if the name has one, else the executor's global cell, else the runtime
// undefined-variable error.
func (c *compiler) ref(name string) func(*frame) (*Value, error) {
	if i, ok := c.fn.SlotIndex(name); ok {
		return func(fr *frame) (*Value, error) {
			if !fr.defined[i] {
				return nil, fmt.Errorf("interp: undefined variable %q", name)
			}
			return &fr.slots[i], nil
		}
	}
	if g, ok := c.ex.globals[name]; ok {
		return func(*frame) (*Value, error) { return g, nil }
	}
	return func(*frame) (*Value, error) {
		return nil, fmt.Errorf("interp: undefined variable %q", name)
	}
}

func (c *compiler) ifStmt(st *ast.IfStmt) stmtFn {
	condFn := c.boolExpr(st.Cond)
	bodyFn := c.block(st.Body)
	var elseFn stmtFn
	if st.Else != nil {
		elseFn = c.stmt(st.Else) // a block or another if
	}
	return func(fr *frame) (ctrl, error) {
		cond, err := condFn(fr)
		if err != nil {
			return ctrlNone, err
		}
		if cond {
			return bodyFn(fr)
		}
		if elseFn != nil {
			return elseFn(fr)
		}
		return ctrlNone, nil
	}
}

func (c *compiler) forStmt(st *ast.ForStmt) stmtFn {
	var initFn, postFn stmtFn
	var condFn func(*frame) (bool, error)
	if st.Init != nil {
		initFn = c.stmt(st.Init)
	}
	if st.Cond != nil {
		condFn = c.boolExpr(st.Cond)
	}
	if st.Post != nil {
		postFn = c.stmt(st.Post)
	}
	bodyFn := c.block(st.Body)
	return func(fr *frame) (ctrl, error) {
		if initFn != nil {
			if _, err := initFn(fr); err != nil {
				return ctrlNone, err
			}
		}
		for iter := 0; ; iter++ {
			if iter >= maxLoopIterations {
				return ctrlNone, fmt.Errorf("interp: loop exceeded %d iterations", maxLoopIterations)
			}
			if condFn != nil {
				cond, err := condFn(fr)
				if err != nil {
					return ctrlNone, err
				}
				if !cond {
					break
				}
			}
			ct, err := bodyFn(fr)
			if err != nil {
				return ctrlNone, err
			}
			if ct == ctrlBreak {
				break
			}
			if ct == ctrlReturn {
				return ctrlReturn, nil
			}
			if postFn != nil {
				if _, err := postFn(fr); err != nil {
					return ctrlNone, err
				}
			}
		}
		return ctrlNone, nil
	}
}

func (c *compiler) rangeStmt(st *ast.RangeStmt) stmtFn {
	// A range variable is a frame slot; the blank identifier and non-variable
	// targets are ignored (-1). A package-level variable cannot be one.
	slotOf := func(e ast.Expr) (int, error) {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return -1, nil
		}
		if i, ok := c.fn.SlotIndex(id.Name); ok {
			return i, nil
		}
		return -1, errNotLocal(id.Name)
	}
	keySlot, err := slotOf(st.Key)
	if err != nil {
		return errStmt(err)
	}
	valSlot, err := slotOf(st.Value)
	if err != nil {
		return errStmt(err)
	}
	xFn := c.expr(st.X)
	bodyFn := c.block(st.Body)
	return func(fr *frame) (ctrl, error) {
		xv, err := xFn(fr)
		if err != nil {
			return ctrlNone, err
		}
		if xv.Kind != ValList {
			return ctrlNone, fmt.Errorf("interp: range requires a list, got %v", xv.Kind)
		}
		for i, d := range xv.list() {
			fr.bind(keySlot, IntVal(int64(i)))
			fr.bind(valSlot, Scalar(d))
			ct, err := bodyFn(fr)
			if err != nil {
				return ctrlNone, err
			}
			if ct == ctrlBreak {
				break
			}
			if ct == ctrlReturn {
				return ctrlReturn, nil
			}
		}
		return ctrlNone, nil
	}
}
