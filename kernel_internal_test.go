package manimal

import (
	"testing"

	"manimal/internal/analyzer"
	"manimal/internal/optimizer"
	"manimal/internal/programs"
	"manimal/internal/storage"
	"manimal/internal/workload"
)

// TestNoOptNeverRunsKernel: a job planned for -noopt hands its map tasks
// no Aggregate, even when its input's descriptor has one, and asks its scan
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
			plan := &optimizer.Plan{Kind: optimizer.PlanRecordFile, Codes: storage.CodeStrings}
			report.Inputs = append(report.Inputs, InputReport{Descriptor: desc, Plan: plan})
		}
		spec.OutputPath = t.TempDir() + "/out.kv"
		sub := &submission{spec: spec, h: &JobHandle{report: report}, counts: make([]int64, tc.inputs), work: t.TempDir()}
		sub.decideAggregation()
		job := buildJob(sub)
		for i, mi := range job.Inputs {
			if got := mi.Aggregate != nil; got != (tc.kernel && i == 0) {
				t.Errorf("%s: input %d runs the kernel: %v", tc.name, i, got)
			}
			if codes := report.Inputs[i].Plan.Codes == storage.CodesOnly; codes != (tc.kernel && i == 0) {
				t.Errorf("%s: input %d asks for codes only: %v", tc.name, i, codes)
			}
		}
	}
}
