package manimal_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"manimal"
	"manimal/internal/catalog"
	"manimal/internal/faultinject"
	"manimal/internal/mapreduce"
	"manimal/internal/programs"
	"manimal/internal/storage"
	"manimal/internal/workload"
)

// TestCorruptIndexQuarantineAndReplan is the system-level corruption
// drill: a job planned over a re-encoded record-file index hits a CRC32C
// checksum failure in the index, the variant is quarantined in the
// catalog, and the job transparently replans — falling back to the
// original input — and still produces exactly the baseline output.
func TestCorruptIndexQuarantineAndReplan(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "visits.rec")
	if err := workload.NewGen(12).WriteUserVisits(data, 3000, 200); err != nil {
		t.Fatal(err)
	}
	sys, err := manimal.NewSystemWith(filepath.Join(dir, "sys"), manimal.Options{DisableResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	prog := mustProgram(t, "agg", programs.Benchmark2Aggregation)

	baseSpec := manimal.JobSpec{
		Name:                "agg-base",
		Inputs:              []manimal.InputSpec{{Path: data, Program: prog}},
		OutputPath:          filepath.Join(dir, "base.kv"),
		DisableOptimization: true,
	}
	base, _ := submit(t, sys, baseSpec)
	if len(base) == 0 {
		t.Fatal("baseline produced no output")
	}

	if _, err := sys.BuildBestIndexes(prog, data); err != nil {
		t.Fatalf("build indexes: %v", err)
	}

	// Sanity: with healthy indexes the optimizer actually picks a
	// record-file variant — otherwise the corruption below tests nothing.
	cleanSpec := baseSpec
	cleanSpec.Name = "agg-clean"
	cleanSpec.OutputPath = filepath.Join(dir, "clean.kv")
	cleanSpec.DisableOptimization = false
	_, cleanReport := submit(t, sys, cleanSpec)
	if k := cleanReport.Inputs[0].Plan.Kind; k != manimal.PlanRecordFile {
		t.Fatalf("healthy plan = %s, want recordfile; notes: %v", k, cleanReport.Inputs[0].Plan.Notes)
	}

	// Corrupt every block read from any derived variant (the ".idxN"
	// files); reads of the original input are untouched.
	faultinject.Set(faultinject.MustParse("corrupt=1@.idx;seed=3"))
	defer faultinject.Reset()

	optSpec := baseSpec
	optSpec.Name = "agg-corrupt"
	optSpec.OutputPath = filepath.Join(dir, "opt.kv")
	optSpec.DisableOptimization = false
	opt, report := submit(t, sys, optSpec)

	if !reflect.DeepEqual(base, opt) {
		t.Fatalf("replanned output differs from baseline: %d vs %d pairs", len(opt), len(base))
	}
	plan := report.Inputs[0].Plan
	if plan.Kind != manimal.PlanOriginal {
		t.Errorf("final plan = %s, want original after quarantine; notes: %v", plan.Kind, plan.Notes)
	}
	replanNoted := false
	for _, n := range plan.Notes {
		if strings.Contains(n, "replanned") {
			replanNoted = true
		}
	}
	if !replanNoted {
		t.Errorf("plan notes do not mention the replan: %v", plan.Notes)
	}
	if n := report.Result.Counters.Get(mapreduce.CtrCorruptBlocks); n == 0 {
		t.Error("corrupt-block counter did not survive the replan")
	}

	quarantined := 0
	for _, e := range sys.Catalog().All() {
		if e.State == catalog.StateCorrupt {
			quarantined++
			if e.StateReason == "" {
				t.Errorf("quarantined entry %s has no reason", e.IndexPath)
			}
			if e.Usable() {
				t.Errorf("quarantined entry %s still reports Usable", e.IndexPath)
			}
		}
	}
	if quarantined == 0 {
		t.Error("no catalog entry was quarantined")
	}

	// The quarantine is durable: a fresh System over the same catalog
	// directory must keep avoiding the corrupt variant.
	sys2, err := manimal.NewSystemWith(filepath.Join(dir, "sys"), manimal.Options{DisableResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	againSpec := baseSpec
	againSpec.Name = "agg-again"
	againSpec.OutputPath = filepath.Join(dir, "again.kv")
	againSpec.DisableOptimization = false
	again, againReport := submit(t, sys2, againSpec)
	if !reflect.DeepEqual(base, again) {
		t.Fatalf("post-quarantine output differs from baseline")
	}
	if k := againReport.Inputs[0].Plan.Kind; k != manimal.PlanOriginal {
		t.Errorf("post-quarantine plan = %s, want original (corrupt variants must stay skipped)", k)
	}

	// A job whose aggregate kernel runs on the dictionary variant reads
	// codes only. Quarantining the variant replans it onto the original
	// file, where the plan decodes terms again and the output is -noopt's,
	// byte for byte.
	t.Run("compression-query", func(t *testing.T) {
		dir := t.TempDir()
		data := filepath.Join(dir, "visits.rec")
		if err := workload.NewGen(12).WriteUserVisits(data, 3000, 200); err != nil {
			t.Fatal(err)
		}
		sys, err := manimal.NewSystemWith(filepath.Join(dir, "sys"), manimal.Options{DisableResultCache: true})
		if err != nil {
			t.Fatal(err)
		}
		spec := manimal.JobSpec{
			Name:                "dict-base",
			Inputs:              []manimal.InputSpec{{Path: data, Program: mustProgram(t, "compression", programs.CompressionQuery)}},
			OutputPath:          filepath.Join(dir, "base.kv"),
			DisableOptimization: true,
		}
		run := func(name string) ([]byte, *manimal.Plan, *manimal.JobReport) {
			t.Helper()
			spec.Name, spec.OutputPath = name, filepath.Join(dir, name+".kv")
			report, err := sys.Submit(spec)
			if err != nil {
				t.Fatalf("submit %s: %v", name, err)
			}
			raw, err := os.ReadFile(spec.OutputPath)
			if err != nil {
				t.Fatal(err)
			}
			return raw, report.Inputs[0].Plan, report
		}
		base, _, _ := run("dict-base")
		buildIndex(t, sys, manimal.IndexSpec{
			Kind:      catalog.KindRecordFile,
			Fields:    workload.UserVisitsSchema.FieldNames(),
			Encodings: map[string]storage.FieldEncoding{"destURL": storage.EncodeDict},
		}, data, "visits.dict")
		spec.DisableOptimization = false
		if _, plan, _ := run("dict-clean"); plan.Kind != manimal.PlanRecordFile || plan.Codes != storage.CodesOnly {
			t.Fatalf("healthy plan = %s with codes %v, want recordfile with codes only; notes: %v", plan.Kind, plan.Codes, plan.Notes)
		}

		faultinject.Set(faultinject.MustParse("corrupt=1@.dict;seed=3"))
		defer faultinject.Reset()
		opt, plan, report := run("dict-corrupt")
		if plan.Kind != manimal.PlanOriginal || plan.Codes != storage.DecodeTerms {
			t.Errorf("replanned plan = %s with codes %v, want original decoding terms; notes: %v", plan.Kind, plan.Codes, plan.Notes)
		}
		if !bytes.Equal(opt, base) {
			t.Errorf("replanned output (%d bytes) differs from -noopt's (%d bytes)", len(opt), len(base))
		}
		if n := report.Result.Counters.Get(mapreduce.CtrCorruptBlocks); n == 0 {
			t.Error("corrupt-block counter did not survive the replan")
		}
	})
}
