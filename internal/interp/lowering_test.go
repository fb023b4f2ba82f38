package interp_test

import (
	"slices"
	"testing"

	"manimal/internal/catalog"
	"manimal/internal/indexgen"
	"manimal/internal/interp"
	"manimal/internal/lang"
	"manimal/internal/programs"
)

// TestPaperProgramsLowerTyped pins, for the nine paper programs and the two
// shapes of the synthesized index-build mapper, exactly which expressions
// still evaluate to a boxed Value (Executor.BoxedSites); everything else in
// them runs on typed closures and column-bound field reads. What is listed
// is what the language makes dynamic — lists and maps and what is read out
// of them, the reduce key, a record handed to Emit — so an entry appearing
// here is a lowering that fell back, and one disappearing is a lowering
// that got better: either way the list is updated on purpose.
func TestPaperProgramsLowerTyped(t *testing.T) {
	sumLoop := map[string][]string{"Reduce": {"key"}, "Combine": {"key"}}
	with := func(base map[string][]string, fn string, sites ...string) map[string][]string {
		out := map[string][]string{fn: sites}
		for k, v := range base {
			out[k] = v
		}
		return out
	}
	for _, tc := range []struct {
		name, source string
		boxed        map[string][]string
	}{
		{"Benchmark1Selection", programs.Benchmark1Selection, map[string][]string{
			// The split tuple is a list; its elements come out of it boxed,
			// and Atoi takes parts[1] over the argument stack.
			"Map": {`strings.Split(v.Str("tuple"), "|")`, "parts", "1", "parts[1]", "parts", "0", "parts[0]"},
		}},
		{"Benchmark2Aggregation", programs.Benchmark2Aggregation, with(sumLoop, "Map")},
		{"Benchmark3JoinUserVisits", programs.Benchmark3JoinUserVisits, map[string][]string{
			"Map": {"v"}, "Reduce": {"key"},
		}},
		{"Benchmark3JoinRankings", programs.Benchmark3JoinRankings, map[string][]string{"Map": {"v"}}},
		{"Benchmark4UDFAggregation", programs.Benchmark4UDFAggregation, map[string][]string{
			// The seen-set, its reads, and the value stored into it. The
			// word list is never built: the loop walks the content's
			// fields in place and jumps to the "http://" ones.
			"Map":    {"make(map[string]bool)", "seen", "w", "seen[w]", "dup", "seen", "w", "true"},
			"Reduce": {"key"},
		}},
		{"SelectionQuery", programs.SelectionQuery, with(sumLoop, "Map")},
		{"ProjectionQuery", programs.ProjectionQuery, map[string][]string{"Map": nil}},
		{"DeltaQuery", programs.DeltaQuery, with(sumLoop, "Map")},
		{"CompressionQuery", programs.CompressionQuery, map[string][]string{"Map": nil, "Reduce": nil, "Combine": {"key"}}},
		{"index-btree", indexgen.Spec{Kind: catalog.KindBTree, KeyExpr: `v.Int("rank")`}.Source(), map[string][]string{"Map": {"v"}}},
		{"index-recordfile", indexgen.Spec{Kind: catalog.KindRecordFile}.Source(), map[string][]string{"Map": {"k", "v"}}},
	} {
		p, err := lang.Parse(tc.source)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ex, err := interp.New(p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(p.Funcs) != len(tc.boxed) {
			t.Errorf("%s defines %d functions, the inventory covers %d", tc.name, len(p.Funcs), len(tc.boxed))
		}
		for fn, want := range tc.boxed {
			if got := ex.BoxedSites(fn); !slices.Equal(got, want) {
				t.Errorf("%s.%s: boxed sites\n got %q\nwant %q", tc.name, fn, got, want)
			}
		}
	}
}
