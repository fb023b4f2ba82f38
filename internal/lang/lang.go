// Package lang is the front end of Manimal's mapper language: a subset of
// Go syntax in which users write map() and reduce() functions. The paper's
// analyzer consumes compiled Java bytecode via ASM; this reproduction
// consumes Go-subset source via go/ast (see DESIGN.md, substitutions). The
// same parsed representation is used by the static analyzer (packages cfg,
// dataflow, analyzer) and by the execution-time interpreter (package
// interp), which guarantees the analyzed program is the executed program.
//
// Program shape:
//
//	var seen int                       // optional package vars = Java member variables
//
//	func Map(k, v *Record, ctx *Ctx) {
//	    if v.Int("rank") > ctx.ConfInt("threshold") {
//	        ctx.Emit(v.Str("url"), v.Int("rank"))
//	    }
//	}
//
//	func Reduce(key Datum, values *Iter, ctx *Ctx) {
//	    sum := 0
//	    for values.Next() {
//	        sum = sum + values.Int()
//	    }
//	    ctx.Emit(key, sum)
//	}
//
// Programs may also define HELPER functions — any other top-level func.
// A helper returns exactly one value, takes only *Record and scalar
// (Datum, int, int64, float64, string, bool) parameters, and cannot call
// the stage functions. Helpers are compiled and run exactly like the stage
// functions (package interp), with call-depth-bounded recursion; the
// analyzer summarizes them (package analyzer) so calling one does not hide
// an optimization.
//
// Package-level variables are scalars (int, int64, float64, string, bool),
// zero-initialized or initialized by an int, float, string or char literal.
package lang

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"sort"
)

// Well-known function names within a program. Combine is an optional
// map-side pre-aggregator with the same signature as Reduce.
const (
	MapFuncName     = "Map"
	ReduceFuncName  = "Reduce"
	CombineFuncName = "Combine"
)

// IsWellKnown reports whether name is one of the stage entry points
// (Map/Reduce/Combine). Every other top-level function is a user-defined
// helper: it must declare exactly one result and may be called from stage
// functions or other helpers.
func IsWellKnown(name string) bool {
	return name == MapFuncName || name == ReduceFuncName || name == CombineFuncName
}

// Record accessor method names (methods on the map value/key parameters).
var recordAccessors = map[string]bool{
	"Int":   true,
	"Float": true,
	"Str":   true,
	"Raw":   true,
	"Flag":  true,
	"Has":   true,
}

// Context method names (methods on the ctx parameter).
var ctxMethods = map[string]bool{
	"Emit":      true, // emits a key/value pair to the next stage
	"ConfInt":   true, // job configuration parameters: fixed per job, pure
	"ConfFloat": true,
	"ConfStr":   true,
	"Log":       true, // side effect: debug logging (detectable, removable)
	"Counter":   true, // side effect: user counter increment
}

// PureCtxMethods are the ctx methods whose results depend only on job
// configuration, which is fixed for the lifetime of a job; uses of these
// satisfy the isFunc test (paper Section 3.2).
var PureCtxMethods = map[string]bool{
	"ConfInt":   true,
	"ConfFloat": true,
	"ConfStr":   true,
}

// SideEffectCtxMethods are ctx methods that have effects invisible to the
// program's reduce-stage output. Manimal may legally skip them when skipping
// a map() invocation ("anything that does not impact the program's final
// output is fair game", paper Section 2.2).
var SideEffectCtxMethods = map[string]bool{
	"Log":     true,
	"Counter": true,
}

// Iterator method names (methods on the reduce values parameter).
// Next advances; Int/Float/Str read the current scalar value; FieldInt/
// FieldFloat/FieldStr/HasField read fields of the current record value.
var iterMethods = map[string]bool{
	"Next":       true,
	"Int":        true,
	"Float":      true,
	"Str":        true,
	"FieldInt":   true,
	"FieldFloat": true,
	"FieldStr":   true,
	"HasField":   true,
}

// PureFuncs is the analyzer's built-in knowledge of standard library
// operations that are functional in their inputs ("the analyzer has
// built-in knowledge of standard language operations and some common class
// library methods", paper Section 3.2). The interpreter implements exactly
// this set; a test asserts the two stay in sync.
var PureFuncs = map[string]bool{
	"strings.Contains":   true,
	"strings.HasPrefix":  true,
	"strings.HasSuffix":  true,
	"strings.ToLower":    true,
	"strings.ToUpper":    true,
	"strings.TrimSpace":  true,
	"strings.Index":      true,
	"strings.Split":      true,
	"strings.Fields":     true,
	"strings.Join":       true,
	"strings.Replace":    true,
	"strconv.Atoi":       true,
	"strconv.Itoa":       true,
	"strconv.ParseFloat": true,
	"math.Abs":           true,
	"math.Max":           true,
	"math.Min":           true,
	"math.Floor":         true,
	"math.Sqrt":          true,
	"len":                true,
	"min":                true,
	"max":                true,
}

// ImpureFuncs are recognized functions that are NOT functional in their
// inputs; "make" creates mutable state the analyzer has no model of, which
// is precisely how Benchmark 4's Hashtable defeats detection in the paper.
var ImpureFuncs = map[string]bool{
	"make": true,
}

// FuncArity maps each whitelisted function to the [min, max] argument
// counts it accepts (max -1 = unbounded). Real Go rejects wrong-arity
// calls at compile time, so the validator enforces the same bound; the
// interpreter's builtin implementations may then index their argument
// slices without re-checking. strconv.ParseFloat admits the optional
// bit-size argument (which the language spec ignores).
var FuncArity = map[string][2]int{
	"strings.Contains":   {2, 2},
	"strings.HasPrefix":  {2, 2},
	"strings.HasSuffix":  {2, 2},
	"strings.ToLower":    {1, 1},
	"strings.ToUpper":    {1, 1},
	"strings.TrimSpace":  {1, 1},
	"strings.Index":      {2, 2},
	"strings.Split":      {2, 2},
	"strings.Fields":     {1, 1},
	"strings.Join":       {2, 2},
	"strings.Replace":    {4, 4},
	"strconv.Atoi":       {1, 1},
	"strconv.Itoa":       {1, 1},
	"strconv.ParseFloat": {1, 2},
	"math.Abs":           {1, 1},
	"math.Max":           {2, 2},
	"math.Min":           {2, 2},
	"math.Floor":         {1, 1},
	"math.Sqrt":          {1, 1},
	"len":                {1, 1},
	"min":                {2, -1},
	"max":                {2, -1},
	"make":               {1, 1},
}

// Param is one function parameter.
type Param struct {
	Name string
	Type string // textual type as written, e.g. "*Record"
}

// Function is a parsed mapper-language function.
type Function struct {
	Name   string
	Params []Param
	Body   *ast.BlockStmt
	Decl   *ast.FuncDecl

	// Slots lists every name the function can bind — parameters first, then
	// locals in first-binding order. Because the language forbids shadowing,
	// each name denotes exactly one storage location for the whole function,
	// so the interpreter can address variables by dense integer slot instead
	// of by per-invocation map lookup. Populated during validation.
	Slots  []string
	slotOf map[string]int
}

// SlotIndex returns the frame slot assigned to a bound name.
func (f *Function) SlotIndex(name string) (int, bool) {
	i, ok := f.slotOf[name]
	return i, ok
}

// NumSlots returns how many variable slots an invocation frame needs.
func (f *Function) NumSlots() int { return len(f.Slots) }

// addSlot assigns name a slot if it does not have one yet.
func (f *Function) addSlot(name string) {
	if name == "_" {
		return
	}
	if f.slotOf == nil {
		f.slotOf = make(map[string]int)
	}
	if _, ok := f.slotOf[name]; ok {
		return
	}
	f.slotOf[name] = len(f.Slots)
	f.Slots = append(f.Slots, name)
}

// Param returns the parameter with the given index, or a zero Param.
func (f *Function) Param(i int) Param {
	if i < 0 || i >= len(f.Params) {
		return Param{}
	}
	return f.Params[i]
}

// ParamNames returns the parameter names in order.
func (f *Function) ParamNames() []string {
	out := make([]string, len(f.Params))
	for i, p := range f.Params {
		out[i] = p.Name
	}
	return out
}

// HasParam reports whether name is one of the function's parameters.
func (f *Function) HasParam(name string) bool {
	for _, p := range f.Params {
		if p.Name == name {
			return true
		}
	}
	return false
}

// Global is a package-level variable: the analogue of a Java member
// variable. Any dependence of emit decisions on a Global defeats isFunc.
type Global struct {
	Name string
	Type string
	Init ast.Expr // may be nil
}

// Program is a parsed and validated mapper-language program.
type Program struct {
	Fset    *token.FileSet
	File    *ast.File
	Funcs   map[string]*Function
	Globals map[string]*Global
	Source  string
}

// Map returns the Map function, or nil.
func (p *Program) Map() *Function { return p.Funcs[MapFuncName] }

// Reduce returns the Reduce function, or nil.
func (p *Program) Reduce() *Function { return p.Funcs[ReduceFuncName] }

// Combine returns the optional Combine function, or nil.
func (p *Program) Combine() *Function { return p.Funcs[CombineFuncName] }

// Helpers returns the user-defined helper functions (everything that is not
// Map/Reduce/Combine) in sorted name order.
func (p *Program) Helpers() []*Function {
	var names []string
	for name := range p.Funcs {
		if !IsWellKnown(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	out := make([]*Function, len(names))
	for i, name := range names {
		out[i] = p.Funcs[name]
	}
	return out
}

// IsGlobal reports whether name is a package-level variable of the program.
func (p *Program) IsGlobal(name string) bool {
	_, ok := p.Globals[name]
	return ok
}

// Pos renders a token position within the program source for errors.
func (p *Program) Pos(pos token.Pos) string { return p.Fset.Position(pos).String() }

// Canonical renders the program in canonical form: the parsed AST printed
// back by go/printer against an EMPTY file set, so the printer's own
// formatting rules decide every space and line break — source positions
// (blank lines, intra-line spacing) cannot leak into the output, and
// comments never reach the AST at all (Parse does not retain them). Two
// sources that differ only in formatting or comments canonicalize
// identically; declaration order, names, and every semantic token are
// preserved. The result cache keys program identity on a hash of this
// text, so the canonicalization may only merge programs with identical
// behavior — formatting is the only thing it erases.
func (p *Program) Canonical() (string, error) {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, token.NewFileSet(), p.File); err != nil {
		return "", fmt.Errorf("lang: canonicalize: %w", err)
	}
	return buf.String(), nil
}

// Parse parses and validates mapper-language source. The source contains
// top-level func and var declarations only (no package clause or imports;
// they are implied).
func Parse(source string) (*Program, error) {
	fset := token.NewFileSet()
	wrapped := "package job\n\n" + source
	file, err := parser.ParseFile(fset, "program.go", wrapped, parser.SkipObjectResolution)
	if err != nil {
		return nil, fmt.Errorf("lang: parse: %w", err)
	}
	p := &Program{
		Fset:    fset,
		File:    file,
		Funcs:   make(map[string]*Function),
		Globals: make(map[string]*Global),
		Source:  source,
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil {
				return nil, fmt.Errorf("lang: %s: methods are not supported", p.Pos(d.Pos()))
			}
			fn, err := p.buildFunction(d)
			if err != nil {
				return nil, err
			}
			if _, dup := p.Funcs[fn.Name]; dup {
				return nil, fmt.Errorf("lang: duplicate function %q", fn.Name)
			}
			p.Funcs[fn.Name] = fn
		case *ast.GenDecl:
			if d.Tok == token.IMPORT {
				return nil, fmt.Errorf("lang: %s: imports are not allowed; the standard whitelist (strings, strconv, math) is implied", p.Pos(d.Pos()))
			}
			if d.Tok != token.VAR && d.Tok != token.CONST {
				return nil, fmt.Errorf("lang: %s: unsupported declaration", p.Pos(d.Pos()))
			}
			for _, spec := range d.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					g := &Global{Name: name.Name, Type: typeText(vs.Type)}
					if i < len(vs.Values) {
						g.Init = vs.Values[i]
					}
					if _, dup := p.Globals[g.Name]; dup {
						return nil, fmt.Errorf("lang: duplicate global %q", g.Name)
					}
					if err := p.validateGlobal(g, name.Pos()); err != nil {
						return nil, err
					}
					p.Globals[g.Name] = g
				}
			}
		default:
			return nil, fmt.Errorf("lang: unsupported top-level declaration at %s", p.Pos(decl.Pos()))
		}
	}
	if p.Map() == nil {
		return nil, fmt.Errorf("lang: program has no %s function", MapFuncName)
	}
	for _, fn := range p.Funcs {
		if err := p.validateFunc(fn); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *Program) buildFunction(d *ast.FuncDecl) (*Function, error) {
	if d.Body == nil {
		return nil, fmt.Errorf("lang: %s: function %q has no body", p.Pos(d.Pos()), d.Name.Name)
	}
	nresults := 0
	if d.Type.Results != nil {
		for _, f := range d.Type.Results.List {
			if n := len(f.Names); n > 0 {
				nresults += n
			} else {
				nresults++
			}
		}
	}
	if IsWellKnown(d.Name.Name) {
		if nresults > 0 {
			return nil, fmt.Errorf("lang: %s: function %q must not return values", p.Pos(d.Pos()), d.Name.Name)
		}
	} else if nresults != 1 {
		return nil, fmt.Errorf("lang: %s: helper function %q must return exactly one value", p.Pos(d.Pos()), d.Name.Name)
	}
	fn := &Function{Name: d.Name.Name, Body: d.Body, Decl: d}
	for _, field := range d.Type.Params.List {
		t := typeText(field.Type)
		for _, n := range field.Names {
			fn.Params = append(fn.Params, Param{Name: n.Name, Type: t})
		}
	}
	if !IsWellKnown(fn.Name) {
		// Helpers take records and scalars only: no *Ctx (helpers cannot
		// emit) and no *Iter (iterator state belongs to the reduce stage).
		for _, prm := range fn.Params {
			switch prm.Type {
			case "*Record", "Datum", "int", "int64", "float64", "string", "bool":
			default:
				return nil, fmt.Errorf("lang: %s: helper %q parameter %q has unsupported type %q (allowed: *Record and scalars)",
					p.Pos(d.Pos()), fn.Name, prm.Name, prm.Type)
			}
		}
	}
	return fn, nil
}

func typeText(t ast.Expr) string {
	switch e := t.(type) {
	case nil:
		return ""
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return "*" + typeText(e.X)
	case *ast.SelectorExpr:
		return typeText(e.X) + "." + e.Sel.Name
	case *ast.ArrayType:
		return "[]" + typeText(e.Elt)
	case *ast.MapType:
		return "map[" + typeText(e.Key) + "]" + typeText(e.Value)
	default:
		return fmt.Sprintf("<%T>", t)
	}
}
