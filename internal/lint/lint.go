// Package lint is a small, dependency-free lint framework for the
// runtime's own Go invariants. It parses (but does not type-check) Go
// source, so analyzers are syntactic: they encode repo conventions
// precisely enough to run clean on compliant code and catch the known
// hazard patterns, at the cost of being name-based rather than type-based.
//
// Three analyzers ship with it:
//
//   - recordclone: the B+Tree row cursor's Record (btree.Cursor) returns a
//     record borrowed from an internal buffer, valid only until the next
//     call to Next. Retaining one — appending it
//     to a slice, storing it in a map, field, or composite literal, or
//     sending it on a channel — without an intervening Clone() aliases
//     memory that the iterator will overwrite.
//
//   - vecborrow: the batch scan path's column-vector accessors
//     (Vector.Ints/Floats/Strs/Raws/Bools, Batch.Sel/Keys, Batch.Col) borrow
//     batch-owned storage valid only until the producer's next batch;
//     retaining one of those slices is the column-vector form of the same
//     use-after-overwrite hazard.
//
//   - ctxfirst: context.Context parameters come first (after any
//     *testing.T/B/F), per standard Go style and the rest of this repo.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding, attributed to the analyzer that produced it.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one lint pass over a set of parsed files.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries the files under analysis and collects diagnostics.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File

	analyzer string
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns every analyzer in the suite.
func All() []*Analyzer {
	return []*Analyzer{RecordClone, VecBorrow, CtxFirst}
}

// LintFiles runs the analyzers over already-parsed files and returns the
// diagnostics sorted by position.
func LintFiles(fset *token.FileSet, files []*ast.File, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Fset: fset, Files: files, analyzer: a.Name, diags: &diags}
		a.Run(pass)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// LintDir parses every .go file under root — skipping testdata, vendor,
// and hidden directories — and runs the analyzers over them.
func LintDir(root string, analyzers []*Analyzer) ([]Diagnostic, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return LintFiles(fset, files, analyzers), nil
}

// parentMap records each node's parent within one file.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
