package lint

import (
	"go/ast"
)

// VecBorrow flags retained borrows of batch-owned column-vector storage.
//
// serde.Batch and serde.Vector are reused by their producer across storage
// blocks and B+Tree leaves: the slices returned by the borrow accessors
// (Ints, Floats, Strs, Raws, Bools, Sel, Keys) and the vectors returned by Col alias producer-owned
// storage that the next batch overwrites. Borrowing one inside the batch
// loop — iterating it, passing it to a kernel — is the intended
// zero-allocation fast path; RETAINING it past the iteration is a
// use-after-overwrite bug, the column-vector sibling of recordclone:
//
//	cols = append(cols, b.Col(0).Ints()) // BAD: every element aliases one vector
//	sums[i] = sum(b.Col(0).Ints())       // good: derived value, not the slice
//
// The analyzer is syntactic, mirroring recordclone: a zero-argument method
// call named after a borrow accessor (or a one-argument Col call) whose
// result lands in a retaining position — an append argument, an assignment
// to a field or container element, a composite-literal element, or a
// channel send — is reported. Retainers copy the elements they need first.
var VecBorrow = &Analyzer{
	Name: "vecborrow",
	Doc:  "flags Vector/Batch borrow accessor results (Ints, Strs, Sel, Col, ...) retained past the batch",
	Run:  runVecBorrow,
}

// vecBorrowAccessors are the zero-argument borrow accessors of serde.Vector
// and serde.Batch.
var vecBorrowAccessors = map[string]bool{
	"Ints":   true,
	"Floats": true,
	"Strs":   true,
	"Raws":   true,
	"Bools":  true,
	"Sel":    true,
	"Keys":   true,
}

func runVecBorrow(p *Pass) {
	for _, f := range p.Files {
		parents := parentMap(f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isVectorBorrowCall(call) {
				return true
			}
			if what := retainContext(call, parents); what != "" {
				name := call.Fun.(*ast.SelectorExpr).Sel.Name
				p.Reportf(call.Pos(), "%s() result %s; it aliases batch-owned storage valid only until the next batch — copy the elements instead", name, what)
			}
			return true
		})
	}
}

// isVectorBorrowCall matches `x.Ints()` / `x.Floats()` / ... (zero-arg
// borrow accessors) and `x.Col(i)` (Batch's one-argument vector accessor).
// Name-based, like recordclone: the repo has no colliding methods, and a
// false positive costs one explicit copy or rename.
func isVectorBorrowCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch len(call.Args) {
	case 0:
		return vecBorrowAccessors[sel.Sel.Name]
	case 1:
		return sel.Sel.Name == "Col"
	default:
		return false
	}
}
