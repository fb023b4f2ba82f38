package interp

import (
	"fmt"
	"go/ast"
	"go/token"

	"manimal/internal/lang"
	"manimal/internal/serde"
)

// This file, compile_expr.go and kinds.go are the interpreter: they lower
// every function body of a program — Map, Reduce, Combine and the user's
// helpers — into chains of Go closures, once per Executor, so that
// per-record execution never re-walks the go/ast tree. Identifier references
// are resolved at compile time to integer frame slots (or to the executor's
// global cells), accessor/builtin/ctx dispatch to function values instead of
// per-call string switches, and helper calls to the callee's compiledFunc.
//
// # Static kinds, two conventions
//
// Before a body is lowered, compiler.infer (kinds.go) gives every
// expression and frame slot a static kind: int, float, string, bool, or
// dynamic. An expression of static kind lowers to a TYPED closure —
// func(*frame) (int64|float64|string|bool, error) — and a typed slot lives
// unboxed in frame.typed; operators, builtins with a typed signature, Emit
// and conditions consume typed operands directly, so no 56-byte Value is
// built, copied or kind-checked between them. A dynamic expression lowers to
// a BOXED closure returning a Value, as every expression once did. There is
// one lowering per AST node: the boxed form of a typed node is derived by
// boxing its typed closure when a dynamic consumer (a helper argument, a map
// store, the argument stack of a boxed builtin call) asks for it
// (compiler.box, which also records the site in compiledFunc.boxed), and a
// node whose operands' kinds conflict statically (1 < "a", !5) keeps the
// dynamic lowering so that the walker-defined runtime error, raised when the
// node executes, is unchanged. kinds.go lists what stays dynamic and why.
//
// # Column binding
//
// In Map, v.Int/Float/Str/Flag/Has("const") on the record parameter — when
// no statement of the body rebinds that parameter — compiles to a fieldSite
// (compile_expr.go) that InvokeMapBatch binds to the batch: the field index
// resolves once per schema, and the read is b.Col(i).Ints()[row] (the
// kind's zero for a masked column; the walker's missing-field or
// kind-mismatch error, when the site executes). The binding is valid for the
// batch it was made against, the window the column vectors themselves have.
// A row is assembled into a record only for programs that use the parameter
// opaquely (ctx.Emit(k, v), a helper argument, a computed field name):
// compiledFunc.readsRecord. InvokeMap(k, rec) — the B+Tree row path — feeds the
// same closures from the record.
//
// The lowering is total over everything lang.Parse accepts: a construct the
// language admits syntactically but cannot run (a two-value assignment from
// a call, make of a non-map type, ++ on a map element, ...) compiles to a
// closure that fails with its runtime error when — and only when — that
// statement or expression executes. The AST tree-walker in walker_test.go
// defines those semantics independently; differential_test.go and
// FuzzCompileTotal hold the closures to it.

// stmtFn is one compiled statement; it returns the control-flow outcome.
type stmtFn func(*frame) (ctrl, error)

// storeFn writes one boxed value to a compiled assignment target.
type storeFn func(*frame, Value) error

// compiledFunc is one function lowered to closures, plus what a caller needs
// to activate it: the frame size and the slot of each parameter (-1 for the
// blank identifier; named parameters take the first slots, in order).
type compiledFunc struct {
	name   string
	nslots int
	params []int
	body   stmtFn
	// boxed lists, in lowering order, the expressions whose value is built as
	// a boxed Value at run time: the dynamic sites plus the typed ones a
	// dynamic consumer boxes. TestPaperProgramsLowerTyped pins it.
	boxed []ast.Expr

	// Stage functions only. reads[i] says whether the body reads parameter i
	// as a value, i.e. whether an invocation must bind it at all (ctx and the
	// iterator are normally only receivers of method calls, and Map rarely
	// looks at its key) — and, for Map's record, assemble one from a batch's
	// columns. fields are Map's accessor sites bound to the input's columns.
	reads  [3]bool
	fields []*fieldSite
}

// readsRecord reports whether Map uses its record parameter opaquely —
// hands it to Emit or a helper, reads a computed field name — rather than
// only through column-bound field reads.
func (cf *compiledFunc) readsRecord() bool { return cf.reads[1] }

// compileProgram lowers every function of the executor's program. The
// compiledFuncs exist before any body is lowered, so a call site can bind
// its callee regardless of declaration order or recursion.
func compileProgram(ex *Executor) (map[string]*compiledFunc, error) {
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
		c := &compiler{ex: ex, fn: fn, cf: funcs[name], funcs: funcs}
		// Only a well-formed stage function has a ctx (and, for Reduce and
		// Combine, an iterator) parameter; helpers take neither.
		if lang.IsWellKnown(name) && len(fn.Params) == 3 {
			c.ctxName = fn.Params[2].Name
			if name == lang.MapFuncName {
				c.recName = fn.Params[1].Name
			} else {
				c.iterName = fn.Params[1].Name
			}
		}
		c.infer()
		c.cf.body = c.block(fn.Body)
		if c.err != nil {
			return nil, c.err
		}
	}
	return funcs, nil
}

// compiler lowers one function. ctxName/iterName name the parameters whose
// method calls are ctx and iterator operations, recName Map's record
// parameter ("" when there is none; infer clears it when the body rebinds
// the parameter). slotKind is infer's result.
type compiler struct {
	ex       *Executor
	fn       *lang.Function
	cf       *compiledFunc
	funcs    map[string]*compiledFunc
	ctxName  string
	iterName string
	recName  string
	slotKind []kind
	changed  bool  // infer: the current pass raised a slot's kind
	err      error // a lowering that contradicts infer: a bug, reported by New
}

func (c *compiler) block(b *ast.BlockStmt) stmtFn {
	fns := make([]stmtFn, len(b.List))
	for i, s := range b.List {
		fns[i] = c.stmt(s)
	}
	if len(fns) == 1 {
		return fns[0]
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
		if call, ok := st.X.(*ast.CallExpr); ok && lang.IsEmit(call, c.ctxName) {
			return c.emit(call.Args)
		}
		return effect(c.expr(st.X))
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
		f := c.box(c.expr(st.Results[0]))
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

// effect compiles the evaluation of an expression for its side effects, in
// the expression's own convention.
func effect(t texpr) stmtFn {
	switch t.k {
	case kInt:
		return discard(t.i)
	case kFloat:
		return discard(t.f)
	case kStr:
		return discard(t.s)
	case kBool:
		return discard(t.b)
	default:
		return discard(t.v)
	}
}

func discard[T any](f fn[T]) stmtFn {
	return func(fr *frame) (ctrl, error) {
		_, err := f(fr)
		return ctrlNone, err
	}
}

func (c *compiler) assign(st *ast.AssignStmt) stmtFn {
	// Two-value form: x, ok := m[k].
	if len(st.Lhs) == 2 {
		ix, ok := st.Rhs[0].(*ast.IndexExpr)
		if !ok {
			return errStmt(fmt.Errorf("interp: two-value assignment requires a map index"))
		}
		mapFn := c.box(c.expr(ix.X))
		keyFn := c.box(c.expr(ix.Index))
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

	rhs := c.expr(st.Rhs[0])
	if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
		// Op-assign is "target = target op rhs" with the right-hand side
		// evaluated before the target is read.
		rhs = c.binop(opOfAssign(st.Tok), c.expr(st.Lhs[0]), rhs, true)
		return c.assignTo(st.Lhs[0], token.ASSIGN, rhs)
	}
	return c.assignTo(st.Lhs[0], st.Tok, rhs)
}

// assignTo compiles "lhs = rhs". A typed slot takes the typed closure's
// result unboxed — infer guarantees rhs has the slot's kind — and every
// other target takes the boxed value (store).
func (c *compiler) assignTo(lhs ast.Expr, tok token.Token, rhs texpr) stmtFn {
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return effect(rhs)
		}
		if i, ok := c.fn.SlotIndex(id.Name); ok && c.slotKind[i] != kDyn {
			if rhs.k != c.slotKind[i] {
				c.bug("%s slot %q assigned a %v expression", c.slotKind[i], id.Name, rhs.k)
			}
			return storeTyped(i, rhs)
		}
	}
	put := c.store(lhs, tok)
	f := c.box(rhs)
	return func(fr *frame) (ctrl, error) {
		v, err := f(fr)
		if err != nil {
			return ctrlNone, err
		}
		return ctrlNone, put(fr, v)
	}
}

// bug records a lowering that contradicts infer; New reports it instead of
// returning an executor that would misread a slot.
func (c *compiler) bug(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("interp: internal: in %s: "+format, append([]any{c.fn.Name}, args...)...)
	}
}

// storeTyped compiles the write of a typed expression into the typed slot i
// of the same kind.
func storeTyped(i int, rhs texpr) stmtFn {
	switch rhs.k {
	case kInt:
		f := rhs.i
		return func(fr *frame) (ctrl, error) {
			x, err := f(fr)
			if err != nil {
				return ctrlNone, err
			}
			fr.setInt(i, x)
			return ctrlNone, nil
		}
	case kFloat:
		f := rhs.f
		return func(fr *frame) (ctrl, error) {
			x, err := f(fr)
			if err != nil {
				return ctrlNone, err
			}
			fr.setFloat(i, x)
			return ctrlNone, nil
		}
	case kStr:
		f := rhs.s
		return func(fr *frame) (ctrl, error) {
			x, err := f(fr)
			if err != nil {
				return ctrlNone, err
			}
			fr.setStr(i, x)
			return ctrlNone, nil
		}
	default:
		f := rhs.b
		return func(fr *frame) (ctrl, error) {
			x, err := f(fr)
			if err != nil {
				return ctrlNone, err
			}
			fr.setBool(i, x)
			return ctrlNone, nil
		}
	}
}

// store resolves an assignment target at compile time for a boxed value.
// Identifier targets become slot or global-cell writes (a typed slot unboxes
// the value, which infer guarantees to be of its kind); index targets become
// map stores.
func (c *compiler) store(lhs ast.Expr, tok token.Token) storeFn {
	switch l := lhs.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return func(*frame, Value) error { return nil }
		}
		if i, ok := c.fn.SlotIndex(l.Name); ok {
			// Slot writes cover both := (define) and = (assign-or-define):
			// the no-shadowing rule makes the two identical on slot names.
			k := c.slotKind[i]
			return func(fr *frame, v Value) error {
				fr.bindKind(i, k, v)
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
		mapFn := c.box(c.expr(l.X))
		keyFn := c.box(c.expr(l.Index))
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
			var val texpr
			if i < len(vs.Values) {
				val = c.expr(vs.Values[i])
			} else {
				val = zeroExpr(vs.Type)
			}
			fns = append(fns, c.assignTo(n, token.DEFINE, val))
		}
	}
	if len(fns) == 1 {
		return fns[0]
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

// zeroExpr compiles the zero value of a declared type. Scalar zeros are
// constants of the type's kind; map zeros must allocate a fresh map per
// execution.
func zeroExpr(t ast.Expr) texpr {
	if _, ok := t.(*ast.MapType); ok {
		return dynX(func(*frame) (Value, error) { return NewMapVal(), nil })
	}
	z, err := zeroValue(t)
	if err != nil {
		return dynX(errExpr(err))
	}
	return constExpr(z.D)
}

func (c *compiler) incDec(st *ast.IncDecStmt) stmtFn {
	id, ok := st.X.(*ast.Ident)
	if !ok {
		return errStmt(fmt.Errorf("interp: ++/-- target must be a variable"))
	}
	delta := int64(1)
	if st.Tok == token.DEC {
		delta = -1
	}
	if i, ok := c.fn.SlotIndex(id.Name); ok && c.slotKind[i] != kDyn {
		undefined := errUndefined(id.Name)
		switch c.slotKind[i] {
		case kInt:
			return func(fr *frame) (ctrl, error) {
				if !fr.defined[i] {
					return ctrlNone, undefined
				}
				fr.typed[i].w += uint64(delta)
				return ctrlNone, nil
			}
		case kFloat:
			return func(fr *frame) (ctrl, error) {
				if !fr.defined[i] {
					return ctrlNone, undefined
				}
				fr.setFloat(i, fr.typed[i].float()+float64(delta))
				return ctrlNone, nil
			}
		default: // a string or a bool: fails, once defined, like a dynamic slot holding one
			read := c.box(c.expr(id))
			return func(fr *frame) (ctrl, error) {
				v, err := read(fr)
				if err != nil {
					return ctrlNone, err
				}
				return ctrlNone, fmt.Errorf("interp: ++/-- on %v", v.D.Kind)
			}
		}
	}
	ref := c.ref(id.Name)
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

// errUndefined is the error of reading a variable before its definition.
type errUndefined string

func (name errUndefined) Error() string {
	return fmt.Sprintf("interp: undefined variable %q", string(name))
}

// ref resolves a mutable reference to a boxed variable at compile time: the
// (dynamic) frame slot if the name has one, else the executor's global cell,
// else the runtime undefined-variable error.
func (c *compiler) ref(name string) func(*frame) (*Value, error) {
	undefined := errUndefined(name)
	if i, ok := c.fn.SlotIndex(name); ok {
		c.noteParamRead(name)
		return func(fr *frame) (*Value, error) {
			if !fr.defined[i] {
				return nil, undefined
			}
			return &fr.slots[i], nil
		}
	}
	if g, ok := c.ex.globals[name]; ok {
		return func(*frame) (*Value, error) { return g, nil }
	}
	return func(*frame) (*Value, error) { return nil, undefined }
}

// noteParamRead records that a stage function's body reads one of its
// parameters as a value, so invocations have to bind it.
func (c *compiler) noteParamRead(name string) {
	if c.ctxName == "" { // a helper, or a malformed stage function
		return
	}
	for i, p := range c.fn.Params {
		if p.Name == name {
			c.cf.reads[i] = true
		}
	}
}

func (c *compiler) ifStmt(st *ast.IfStmt) stmtFn {
	condFn := c.cond(st.Cond)
	bodyFn := c.block(st.Body)
	if st.Else == nil {
		return func(fr *frame) (ctrl, error) {
			cond, err := condFn(fr)
			if err != nil || !cond {
				return ctrlNone, err
			}
			return bodyFn(fr)
		}
	}
	elseFn := c.stmt(st.Else) // a block or another if
	return func(fr *frame) (ctrl, error) {
		cond, err := condFn(fr)
		if err != nil {
			return ctrlNone, err
		}
		if cond {
			return bodyFn(fr)
		}
		return elseFn(fr)
	}
}

func (c *compiler) forStmt(st *ast.ForStmt) stmtFn {
	var initFn, postFn stmtFn
	var condFn fn[bool]
	if st.Init != nil {
		initFn = c.stmt(st.Init)
	}
	if st.Cond != nil {
		condFn = c.cond(st.Cond)
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
			if iter >= fr.ex.maxLoop {
				return ctrlNone, fmt.Errorf("interp: loop exceeded %d iterations", fr.ex.maxLoop)
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
	slotOf := func(e ast.Expr) (int, kind, error) {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return -1, kDyn, nil
		}
		if i, ok := c.fn.SlotIndex(id.Name); ok {
			return i, c.slotKind[i], nil
		}
		return -1, kDyn, errNotLocal(id.Name)
	}
	keySlot, keyKind, err := slotOf(st.Key)
	if err != nil {
		return errStmt(err)
	}
	valSlot, valKind, err := slotOf(st.Value)
	if err != nil {
		return errStmt(err)
	}
	// A list straight from a builtin over typed operands is never boxed; any
	// other list expression is evaluated boxed and unboxed here.
	x := c.expr(st.X)
	listFn := x.l
	if listFn == nil {
		xFn := c.box(x)
		listFn = func(fr *frame) ([]string, error) {
			xv, err := xFn(fr)
			if err != nil {
				return nil, err
			}
			if xv.Kind != ValList {
				return nil, fmt.Errorf("interp: range requires a list, got %v", xv.Kind)
			}
			return xv.list(), nil
		}
	}
	bodyFn := c.block(st.Body)
	return func(fr *frame) (ctrl, error) {
		list, err := listFn(fr)
		if err != nil {
			return ctrlNone, err
		}
		for i, s := range list {
			// The index is an int and the element a string (see infer); a
			// slot other statements define differently takes them boxed.
			if keySlot >= 0 {
				fr.bindKind(keySlot, keyKind, IntVal(int64(i)))
			}
			if valKind == kStr {
				fr.setStr(valSlot, s)
			} else if valSlot >= 0 {
				fr.bind(valSlot, StrVal(s))
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
		}
		return ctrlNone, nil
	}
}
