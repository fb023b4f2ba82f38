package manimal

import (
	"testing"

	"manimal/internal/analyzer"
	"manimal/internal/optimizer"
	"manimal/internal/programs"
	"manimal/internal/workload"
)

// TestNoOptNeverRunsKernel: a job built for -noopt hands its map tasks no
// Aggregate, even when its input's descriptor has one, and asks its scan
// for no codes, so every record goes through the interpreted Map; the same
// job optimized runs the kernel. Two-input and map-only jobs never do.
func TestNoOptNeverRunsKernel(t *testing.T) {
	prog, err := ParseProgram("b2", programs.Benchmark2Aggregation)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := analyzer.Analyze(prog.parsed, workload.UserVisitsSchema)
	if err != nil || desc.Aggregate == nil || desc.Combine == nil {
		t.Fatalf("no aggregate (%v): %q", err, desc.Notes)
	}
	plan := &optimizer.Plan{Kind: optimizer.PlanRecordFile, DirectCodes: true}
	in := InputReport{Descriptor: desc, Plan: plan}
	for _, tc := range []struct {
		name   string
		spec   JobSpec
		inputs int
		kernel bool
	}{
		{"optimized", JobSpec{}, 1, true},
		{"noopt", JobSpec{DisableOptimization: true}, 1, false},
		{"map-only", JobSpec{MapOnly: true}, 1, false},
		{"two inputs", JobSpec{}, 2, false},
	} {
		spec, report := tc.spec, &JobReport{}
		for i := 0; i < tc.inputs; i++ {
			spec.Inputs = append(spec.Inputs, InputSpec{Path: "uv.rec", Program: prog})
			report.Inputs = append(report.Inputs, in)
		}
		spec.OutputPath = t.TempDir() + "/out.kv"
		job := buildJob(spec, report, t.TempDir(), nil)
		for i, mi := range job.Inputs {
			if got := mi.Aggregate != nil; got != (tc.kernel && i == 0) {
				t.Errorf("%s: input %d runs the kernel: %v", tc.name, i, got)
			}
			if codes := mi.Input.(*lazyInput).codesOnly; codes != (tc.kernel && i == 0) {
				t.Errorf("%s: input %d asks for codes only: %v", tc.name, i, codes)
			}
		}
	}
}
