package interp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"testing"

	"manimal/internal/lang"
	"manimal/internal/serde"
)

// seedFiles are the Go files whose string literals seed FuzzCompileTotal:
// the paper's programs, the example applications, the analyzer fuzzer's
// seed list and the end-to-end helper/loop differential sources. Reading
// the literals out of the files keeps the corpus in step with them.
var seedFiles = []string{
	"../programs/programs.go",
	"../../examples/*/main.go",
	"../analyzer/fuzz_test.go",
	"../../interproc_differential_test.go",
}

// programLiterals returns every string literal of the Go files matching the
// glob patterns that lang.Parse accepts as a program.
func programLiterals(tb testing.TB, patterns []string) []string {
	tb.Helper()
	var out []string
	for _, pattern := range patterns {
		paths, err := filepath.Glob(pattern)
		if err != nil || len(paths) == 0 {
			tb.Fatalf("seed pattern %s: no files (err %v)", pattern, err)
		}
		for _, path := range paths {
			file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				tb.Fatalf("seed file %s: %v", path, err)
			}
			ast.Inspect(file, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				if src, err := strconv.Unquote(lit.Value); err == nil {
					if _, err := lang.Parse(src); err == nil {
						out = append(out, src)
					}
				}
				return true
			})
		}
	}
	return out
}

// fuzzSchema is the record kit's schema: every field the paper programs,
// the examples and the differential cases read, so that most of what the
// fuzzer derives from them still finds its fields (a missing one is an
// error both engines must word identically).
const fuzzSchema = "url:string,rank:int64,content:string,tuple:string,score:float64,ok:bool," +
	"sourceIP:string,destURL:string,visitDate:int64,adRevenue:int64,duration:int64," +
	"pageURL:string,pageRank:int64"

// FuzzCompileTotal asserts the closure compiler is total and faithful:
// every source the language front end accepts can be instantiated, every
// function it defines — stage functions and helpers — is compiled, and
// running it over a fixed kit of records (through both Map doors) and the
// value groups its own Map emits (through Reduce and Combine) produces the
// emissions, counters, logs and error texts the tree-walker produces. There
// is no second engine for a construct to fall back to, so a gap here would
// be a program that validates and then cannot run, or runs differently from
// what the language defines. Sources that fail lang.Parse are skipped:
// rejecting them is the front end's job. Under plain `go test` the seeds
// run as an ordinary test.
func FuzzCompileTotal(f *testing.F) {
	seeds := programLiterals(f, seedFiles)
	if len(seeds) < 15 {
		f.Fatalf("only %d seed programs found in %v", len(seeds), seedFiles)
	}
	for _, tc := range diffCases() {
		seeds = append(seeds, tc.source)
	}
	for _, src := range seeds {
		f.Add(src)
	}
	recs := genRecords(f, fuzzSchema, 12)
	conf := map[string]serde.Datum{
		"threshold": serde.Int(1000), "t": serde.Int(1000),
		"dateLo": serde.Int(300), "dateHi": serde.Int(1500),
	}
	// A generated program runs whatever it says: keep loops and recursion
	// short enough that the slow engine finishes every one of them.
	limits := &diffLimits{maxLoop: 64, maxDepth: 6}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := lang.Parse(src)
		if err != nil {
			return
		}
		runDifferential(t, p, recs, conf, nil, limits)
	})
}
