package manimal_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"manimal"
	"manimal/internal/analyzer"
	"manimal/internal/catalog"
	"manimal/internal/lang"
	"manimal/internal/mapreduce"
	"manimal/internal/programs"
	"manimal/internal/storage"
	"manimal/internal/workload"
)

// aggregateCounters are the counters the aggregate kernel must leave
// exactly as the interpreted Map makes them.
var aggregateCounters = []string{
	mapreduce.CtrInputBytesRead, mapreduce.CtrMapInputRecords,
	mapreduce.CtrMapOutputRecords, mapreduce.CtrMapOutputBytes, mapreduce.CtrSpills,
	mapreduce.CtrReduceInputGroups, mapreduce.CtrReduceInputRecords, mapreduce.CtrOutputRecords,
}

// mapEmit is a corpus Map's one statement.
var mapEmit = regexp.MustCompile(`(?m)^\tctx\.Emit\((.*), (v\.Int\("\w+"\)|-?\d+)\)$`)

// interpretedMap spells a kernel-shaped Map's emit in two statements, which
// the analyzer does not recognize: the same program, run by the
// interpreter on the same plan.
func interpretedMap(t *testing.T, src string) string {
	t.Helper()
	loc := mapEmit.FindStringSubmatchIndex(src)
	if loc == nil {
		t.Fatal("no one-line emit in the program")
	}
	m := mapEmit.FindStringSubmatch(src)
	return src[:loc[0]] + "\tx := " + m[2] + "\n\tctx.Emit(" + m[1] + ", x)" + src[loc[1]:]
}

// TestAggregateKernelDifferential: every corpus program whose Map the
// analyzer runs as a column kernel, on every plan variant — the original
// file, the projected+delta index, and the dictionary index under direct
// operation — writes output byte-identical to the interpreted Map on the
// same plan, with equal counters, and equal to its -noopt run: byte for
// byte, or, where direct operation recodes the keys and so reorders the
// groups, pair for pair once sorted.
func TestAggregateKernelDifferential(t *testing.T) {
	const kernelNote = "aggregate: column kernel ("
	dictSpec := manimal.IndexSpec{
		Kind:      catalog.KindRecordFile,
		Fields:    workload.UserVisitsSchema.FieldNames(),
		Encodings: map[string]storage.FieldEncoding{"destURL": storage.EncodeDict},
	}
	var kernels []string
	for _, tc := range []struct{ name, source string }{
		{"benchmark1-selection", programs.Benchmark1Selection},
		{"benchmark2-aggregation", programs.Benchmark2Aggregation},
		{"benchmark3-join-uservisits", programs.Benchmark3JoinUserVisits},
		{"benchmark4-udf-aggregation", programs.Benchmark4UDFAggregation},
		{"selection-query", programs.SelectionQuery},
		{"projection-query", programs.ProjectionQuery},
		{"delta-query", programs.DeltaQuery},
		{"compression-query", programs.CompressionQuery},
	} {
		p, err := lang.Parse(tc.source)
		if err != nil {
			t.Fatal(err)
		}
		d, err := analyzer.Analyze(p, workload.UserVisitsSchema)
		if err != nil {
			t.Fatal(err)
		}
		if d.Aggregate == nil {
			continue
		}
		kernels = append(kernels, tc.name)
		for _, variant := range []string{"original", "projected+delta", "dict"} {
			t.Run(tc.name+"/"+variant, func(t *testing.T) {
				dir := t.TempDir()
				data := filepath.Join(dir, "uservisits.rec")
				if err := workload.NewGen(31).WriteUserVisits(data, 6000, 400); err != nil {
					t.Fatal(err)
				}
				sys, err := manimal.NewSystemWith(filepath.Join(dir, "sys"), manimal.Options{DisableResultCache: true})
				if err != nil {
					t.Fatal(err)
				}
				kernelProg := mustProgram(t, tc.name, tc.source)
				interpProg := mustProgram(t, tc.name+"-interpreted", interpretedMap(t, tc.source))
				switch variant {
				case "projected+delta":
					if _, err := sys.BuildBestIndexes(kernelProg, data); err != nil {
						t.Fatal(err)
					}
				case "dict":
					if _, err := sys.BuildIndex(dictSpec, data, data+".dict"); err != nil {
						t.Fatal(err)
					}
				}
				run := func(name string, prog *manimal.Program, noopt bool) ([]byte, *manimal.JobReport) {
					t.Helper()
					spec := manimal.JobSpec{
						Name:                name,
						Inputs:              []manimal.InputSpec{{Path: data, Program: prog}},
						OutputPath:          filepath.Join(dir, name+".kv"),
						NumReducers:         3,
						MaxParallelTasks:    4,
						DisableOptimization: noopt,
					}
					report, err := sys.Submit(spec)
					if err != nil {
						t.Fatalf("submit %s: %v", name, err)
					}
					raw, err := os.ReadFile(spec.OutputPath)
					if err != nil {
						t.Fatal(err)
					}
					return raw, report
				}
				kernel, kr := run("kernel", kernelProg, false)
				interp, ir := run("interpreted", interpProg, false)
				base, br := run("noopt", kernelProg, true)
				kp, ip := kr.Inputs[0].Plan, ir.Inputs[0].Plan
				if !slices.ContainsFunc(kp.Notes, func(n string) bool { return strings.HasPrefix(n, kernelNote) }) {
					t.Fatalf("kernel plan has no kernel note: %q", kp.Notes)
				}
				for _, r := range []*manimal.JobReport{ir, br} {
					if slices.ContainsFunc(r.Inputs[0].Plan.Notes, func(n string) bool { return strings.HasPrefix(n, kernelNote) }) {
						t.Fatalf("plan without the kernel has its note: %q", r.Inputs[0].Plan.Notes)
					}
				}
				// The kernel reads codes only where the interpreted Map reads
				// code strings: both operate directly on codes, or neither.
				kDirect, iDirect := kp.Codes != storage.DecodeTerms, ip.Codes != storage.DecodeTerms
				if kp.Kind != ip.Kind || kp.IndexPath != ip.IndexPath || kDirect != iDirect {
					t.Fatalf("plans differ: kernel %v %s codes=%v, interpreted %v %s codes=%v",
						kp.Kind, kp.IndexPath, kp.Codes, ip.Kind, ip.IndexPath, ip.Codes)
				}
				if variant == "dict" && tc.name == "compression-query" && kp.Codes != storage.CodesOnly {
					t.Fatalf("dict variant of %s does not run on codes: %q", tc.name, kp.Notes)
				}
				if br.Result.Counters.Get(mapreduce.CtrOutputRecords) == 0 {
					t.Fatal("baseline produced no output")
				}
				if !bytes.Equal(kernel, interp) {
					t.Fatalf("kernel output (%d bytes) differs from the interpreted Map's (%d bytes) on plan %v", len(kernel), len(interp), kp.Kind)
				}
				for _, name := range aggregateCounters {
					if k, i := kr.Result.Counters.Get(name), ir.Result.Counters.Get(name); k != i {
						t.Errorf("%s: kernel %d, interpreted %d", name, k, i)
					}
				}
				if !kDirect {
					if !bytes.Equal(kernel, base) {
						t.Fatalf("kernel output (%d bytes) differs from -noopt (%d bytes)", len(kernel), len(base))
					}
				} else if k, b := sortedPairs(t, filepath.Join(dir, "kernel.kv")), sortedPairs(t, filepath.Join(dir, "noopt.kv")); k != b {
					t.Fatalf("kernel pairs differ from -noopt's:\n%s\n%s", k, b)
				}
				for _, name := range []string{mapreduce.CtrMapOutputRecords, mapreduce.CtrReduceInputGroups, mapreduce.CtrOutputRecords} {
					if k, b := kr.Result.Counters.Get(name), br.Result.Counters.Get(name); k != b {
						t.Errorf("%s: kernel %d, -noopt %d", name, k, b)
					}
				}
			})
		}
	}
	if want := []string{"benchmark2-aggregation", "delta-query", "compression-query"}; !slices.Equal(kernels, want) {
		t.Fatalf("kernel-shaped corpus programs %v, want %v", kernels, want)
	}
}

// sortedPairs renders a KV output's pairs, sorted, one per line.
func sortedPairs(t *testing.T, path string) string {
	t.Helper()
	pairs, err := manimal.ReadOutput(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(pairs))
	for i, p := range pairs {
		lines[i] = fmt.Sprintf("%v\t%v", p.Key, p.Value)
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}
