// Package analyzer is Manimal's core contribution (paper Section 3): a
// static analysis that inspects an unmodified mapper-language program and
// emits optimization descriptors for selection, projection,
// delta-compression, and direct operation on compressed data — and, beyond
// the paper, for a Combine the engine can fold natively (an int64 sum) and
// a Map it can run as a column kernel over that fold (an aggregate).
//
// Like the paper's analyzer, it is best-effort but safety-first: it may
// miss optimizations (a determined programmer can elude it) but never
// reports one that would change the program's reduce-stage output.
// Everything operates at the "micro-scale" on the map() function — but
// interprocedurally: map() may call user-defined helper functions, and
// two extensions keep the detectors precise across them and across loops.
//
// # The interprocedural summary contract
//
// Every top-level function that is not a stage (Map/Reduce/Combine) is a
// helper. Summarize computes a FuncSummary per helper, bottom-up over the
// call graph (any recursion collapses the cycle to a fully conservative
// summary). A summary answers, without re-walking the callee at every
// call site:
//
//   - Pure: no global reads or writes, no impure builtins, transitively
//     through callees. Only pure helpers may participate in formulas.
//   - ReadsGlobals/WritesGlobals: transitive member-variable effects.
//     Any write anywhere in Map's helper closure disables loop hoisting.
//   - ParamFields: for each record parameter position, exactly which
//     schema fields the callee (transitively) reads from it, or Opaque
//     when the record escapes analysis. Projection and direct-op consume
//     these instead of treating a record argument as "touches everything".
//   - Inlinable + RetStmt/RetExpr: a straight-line body ending in a single
//     return can be folded into a caller-side predicate expression —
//     selection resolves the helper's return expression with the caller's
//     arguments substituted for its parameters, after re-running isFunc
//     inside the helper. Branching helpers are never folded (safety
//     before completeness); their field use still counts via ParamFields.
//
// # The loop-invariance rule
//
// An emit under a loop is governed by two kinds of guards. A guard whose
// use-def DAG reaches no definition inside a loop (and is not a range
// header) is loop-INVARIANT: it has one value per (record, config) and
// joins the DNF exactly like straight-line guards. A loop-VARYING guard is
// dropped from its conjunct, which makes the formula an OVER-approximation
// of the emit condition (SelectDescriptor.Approximate). Dropping is sound
// because every kept guard is functional in the record and config alone:
// formula false means some kept guard is false on every path, so no
// iteration of any loop can emit. Every formula consumer is a prefilter —
// zone-map block skipping, residual scan filters, B+Tree range selection —
// and map() re-runs its own guards over each surviving record. The rule is
// disabled when map() (or any helper it calls) writes a member variable:
// then skipped invocations could perturb state that dropped, invisible
// guards of later invocations read.
package analyzer

import (
	"fmt"
	"go/ast"
	"sort"

	"manimal/internal/cfg"
	"manimal/internal/dataflow"
	"manimal/internal/lang"
	"manimal/internal/predicate"
	"manimal/internal/serde"
)

// SelectDescriptor describes a detected selection: the DNF emit condition
// and the key expressions a B+Tree index could be built on (paper Fig. 1:
// "(SELECT, V.rank(), V.rank() > 1)").
type SelectDescriptor struct {
	// Formula is true iff map() may emit for a record (given job config).
	Formula predicate.DNF
	// IndexKeys are canonical key expressions bounded in every disjunct;
	// each is a valid index-generation key. Sorted, deterministic.
	IndexKeys []string
	// Approximate marks a formula from which loop-varying guards were
	// hoisted out: the formula OVER-approximates the emit condition
	// (formula false still guarantees no emit, but formula true no longer
	// guarantees one). All formula consumers are prefilters — zone-map
	// skipping, residual scan filters, B+Tree range selection — and the
	// map still runs its own guards over every surviving record, so an
	// over-approximation is safe; an exact formula additionally permits
	// emission-counting uses.
	Approximate bool
}

// ProjectDescriptor describes a detected projection opportunity.
type ProjectDescriptor struct {
	// UsedFields are the input fields the program's output can depend on.
	UsedFields []string
	// DroppedFields are schema fields never needed: safe to remove from
	// the stored file.
	DroppedFields []string
}

// DeltaDescriptor lists numeric input fields eligible for delta-compression.
type DeltaDescriptor struct {
	Fields []string
}

// DirectOpDescriptor lists string fields used only in
// equality-compatible positions (emit keys, same-field equality tests):
// they can be stored and processed as dictionary codes, never decompressed.
type DirectOpDescriptor struct {
	Fields []string
}

// CombineDescriptor names the aggregate a program's Combine computes when
// it is exactly one the engine can run natively. Op "sum" is the only one:
// an int64 sum of the group's values re-emitted under the group's own key,
// which the shuffle folds into one running sum per distinct key as pairs
// are emitted instead of buffering them for an interpreted Combine.
type CombineDescriptor struct {
	Op string
}

// Descriptor is the analyzer's complete output for one program: the
// "optimization descriptor" of paper Figure 1. Nil sub-descriptors mean the
// optimization was not detected.
type Descriptor struct {
	Select    *SelectDescriptor
	Project   *ProjectDescriptor
	Delta     *DeltaDescriptor
	DirectOp  *DirectOpDescriptor
	Combine   *CombineDescriptor
	Aggregate *AggregateDescriptor

	// SideEffects lists detected side-effecting calls (ctx.Log/ctx.Counter)
	// that optimized execution may skip; detected but not optimized,
	// matching paper Section 2.2.
	SideEffects []string

	// Notes explains, for tooling and the `manimal explain` command, why
	// optimizations were rejected.
	Notes []string
}

// analysis bundles the per-program machinery shared by the detectors.
type analysis struct {
	prog   *lang.Program
	schema *serde.Schema
	fn     *lang.Function
	graph  *cfg.Graph
	flow   *dataflow.Analysis

	keyParam   string
	valueParam string
	ctxParam   string

	emits []emitSite

	// summaries holds the bottom-up interprocedural summaries of every
	// user-defined helper (see summary.go).
	summaries map[string]*FuncSummary
	// paramSubst is set only on helper sub-analyses: it maps the helper's
	// scalar parameter names to caller-side resolved predicate expressions.
	paramSubst map[string]predicate.Expr
	// helpers caches per-helper cfg/dataflow sub-analyses across call sites.
	helpers map[string]*analysis
}

type emitSite struct {
	stmt  ast.Stmt
	call  *ast.CallExpr
	block *cfg.Block
}

// Analyze runs all detectors against the program's Map function, given the
// schema of the input file it will consume.
func Analyze(p *lang.Program, inputSchema *serde.Schema) (*Descriptor, error) {
	fn := p.Map()
	if fn == nil {
		return nil, fmt.Errorf("analyzer: program has no Map function")
	}
	if len(fn.Params) != 3 {
		return nil, fmt.Errorf("analyzer: Map must take (k, v, ctx), has %d params", len(fn.Params))
	}
	g, err := cfg.Build(p, fn)
	if err != nil {
		return nil, fmt.Errorf("analyzer: %w", err)
	}
	fl, err := dataflow.Analyze(p, g)
	if err != nil {
		return nil, fmt.Errorf("analyzer: %w", err)
	}
	a := &analysis{
		prog:       p,
		schema:     inputSchema,
		fn:         fn,
		graph:      g,
		flow:       fl,
		keyParam:   fn.Params[0].Name,
		valueParam: fn.Params[1].Name,
		ctxParam:   fn.Params[2].Name,
		summaries:  Summarize(p),
	}
	a.collectEmits()

	d := &Descriptor{}
	d.Select = a.findSelect(d)
	d.Project = a.findProject(d)
	d.Delta = a.findDelta(d)
	d.DirectOp = a.findDirectOp(d)
	d.Combine = findCombine(p, d)
	d.Aggregate = a.findAggregate(d)
	d.SideEffects = a.findSideEffects()
	return d, nil
}

// collectEmits finds every ctx.Emit call site in the Map body (isEmit(s),
// paper Figure 3).
func (a *analysis) collectEmits() {
	for _, blk := range a.graph.Blocks {
		for _, s := range blk.Stmts {
			es, ok := s.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok || !lang.IsEmit(call, a.ctxParam) {
				continue
			}
			a.emits = append(a.emits, emitSite{stmt: s, call: call, block: blk})
		}
	}
}

// findSideEffects lists ctx.Log / ctx.Counter call sites: side effects that
// index-driven execution may skip. Manimal detects (and reports) them but,
// per the paper, considers them fair game because they cannot affect the
// program's reduce-stage output.
func (a *analysis) findSideEffects() []string {
	var out []string
	ast.Inspect(a.fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, method, ok := lang.MethodOn(call); ok && recv == a.ctxParam && lang.SideEffectCtxMethods[method] {
			out = append(out, fmt.Sprintf("ctx.%s at %s", method, a.prog.Pos(call.Pos())))
		}
		return true
	})
	return out
}

func (d *Descriptor) notef(format string, args ...any) {
	d.Notes = append(d.Notes, fmt.Sprintf(format, args...))
}

func sortedStrings(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
