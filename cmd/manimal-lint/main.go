// Command manimal-lint runs the repo's own lint suite (internal/lint) over
// a directory tree: recordclone (borrowed Record() results of reusing
// cursors must be Clone()d before retention), vecborrow (column-vector
// borrows must not be retained past their batch) and ctxfirst
// (context.Context parameters come first). Exits 1 when any diagnostic is
// reported, so it slots into CI next to vet and staticcheck.
//
// Usage:
//
//	manimal-lint [-list] [dir]
package main

import (
	"flag"
	"fmt"
	"os"

	"manimal/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}
	diags, err := lint.LintDir(root, lint.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "manimal-lint:", err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "manimal-lint: %d issue(s)\n", len(diags))
		os.Exit(1)
	}
}
