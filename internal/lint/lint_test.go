package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

func lintFile(t *testing.T, path string, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return LintFiles(fset, []*ast.File{f}, analyzers)
}

func TestRecordCloneSeededViolations(t *testing.T) {
	diags := lintFile(t, filepath.Join("testdata", "src", "recordclone_bad.go"), []*Analyzer{RecordClone})
	wantLines := []int{16, 17, 19, 21, 23}
	if len(diags) != len(wantLines) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(wantLines), diags)
	}
	for i, d := range diags {
		if d.Pos.Line != wantLines[i] {
			t.Errorf("diag %d at line %d, want %d: %s", i, d.Pos.Line, wantLines[i], d)
		}
		if d.Analyzer != "recordclone" {
			t.Errorf("diag %d analyzer = %q", i, d.Analyzer)
		}
	}
}

func TestCtxFirstSeededViolations(t *testing.T) {
	diags := lintFile(t, filepath.Join("testdata", "src", "ctxfirst_bad.go"), []*Analyzer{CtxFirst})
	wantLines := []int{9, 15, 20}
	if len(diags) != len(wantLines) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(wantLines), diags)
	}
	for i, d := range diags {
		if d.Pos.Line != wantLines[i] {
			t.Errorf("diag %d at line %d, want %d: %s", i, d.Pos.Line, wantLines[i], d)
		}
	}
}

func TestVecBorrowSeededViolations(t *testing.T) {
	diags := lintFile(t, filepath.Join("testdata", "src", "vecborrow_bad.go"), []*Analyzer{VecBorrow})
	wantLines := []int{22, 23, 25, 27, 29, 30}
	if len(diags) != len(wantLines) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(wantLines), diags)
	}
	for i, d := range diags {
		if d.Pos.Line != wantLines[i] {
			t.Errorf("diag %d at line %d, want %d: %s", i, d.Pos.Line, wantLines[i], d)
		}
		if d.Analyzer != "vecborrow" {
			t.Errorf("diag %d analyzer = %q", i, d.Analyzer)
		}
	}
}

// TestRepoIsClean runs the full suite over the repository itself: the
// runtime must satisfy its own invariants.
func TestRepoIsClean(t *testing.T) {
	diags, err := LintDir(filepath.Join("..", ".."), All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
