package lint

import (
	"go/ast"
)

// RecordClone flags retained results of borrowing Record() calls.
//
// A reusing cursor's Record — the B+Tree row cursor's (btree.Cursor), or
// any row walk that materializes a batch's rows into one record — returns
// a *serde.Record aliasing an internal buffer that the next Next()
// overwrites (see the contract note in internal/mapreduce/job.go). Borrowing it — reading fields, passing it down
// a call — is the intended zero-allocation fast path; RETAINING it past the
// iteration is a use-after-overwrite bug unless the caller clones first:
//
//	out = append(out, sc.Record())         // BAD: every element aliases one buffer
//	out = append(out, sc.Record().Clone()) // good
//
// The analyzer is syntactic: any zero-argument method call named Record()
// whose result lands in a retaining position — an append argument, an
// assignment to a field or container element, a composite-literal element,
// or a channel send — is reported.
var RecordClone = &Analyzer{
	Name: "recordclone",
	Doc:  "flags borrowed Record() results (btree.Cursor and other reusing cursors) retained without Clone()",
	Run:  runRecordClone,
}

func runRecordClone(p *Pass) {
	for _, f := range p.Files {
		parents := parentMap(f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isBorrowingRecordCall(call) {
				return true
			}
			if what := retainContext(call, parents); what != "" {
				p.Reportf(call.Pos(), "Record() result %s without Clone(); it is only valid until the next Next()", what)
			}
			return true
		})
	}
}

// isBorrowingRecordCall matches `x.Record()` — a zero-argument method call
// named Record. (Name-based: the repo has no other Record() methods, and a
// false positive costs one explicit Clone or rename.)
func isBorrowingRecordCall(call *ast.CallExpr) bool {
	if len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Record"
}

// retainContext reports how the call's result escapes the iteration, or ""
// when the use is a harmless borrow (call argument, local read, return of a
// wrapper, immediate .Clone(), ...).
func retainContext(call *ast.CallExpr, parents map[ast.Node]ast.Node) string {
	parent := parents[call]
	for {
		p, ok := parent.(*ast.ParenExpr)
		if !ok {
			break
		}
		parent = parents[p]
	}
	switch p := parent.(type) {
	case *ast.CallExpr:
		if id, ok := p.Fun.(*ast.Ident); ok && id.Name == "append" {
			for _, arg := range p.Args[1:] {
				if arg == call {
					return "appended to a slice"
				}
			}
		}
		return ""
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if rhs != call {
				continue
			}
			if i < len(p.Lhs) && retainingLValue(p.Lhs[i]) {
				return "stored in a field or container element"
			}
		}
		return ""
	case *ast.KeyValueExpr:
		if gp, ok := parents[p].(*ast.CompositeLit); ok && p.Value == call {
			_ = gp
			return "stored in a composite literal"
		}
		return ""
	case *ast.CompositeLit:
		return "stored in a composite literal"
	case *ast.SendStmt:
		if p.Value == call {
			return "sent on a channel"
		}
		return ""
	default:
		return ""
	}
}

// retainingLValue reports whether assigning to lhs stores the value beyond
// the current scope: struct fields (x.f) and container elements (m[k],
// s[i]). Plain local variables are borrows.
func retainingLValue(lhs ast.Expr) bool {
	switch lhs.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr:
		return true
	}
	return false
}
