package manimal_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"manimal"
	"manimal/internal/mapreduce"
	"manimal/internal/programs"
	"manimal/internal/workload"
)

// differentialCase pits one optimized plan shape against the unoptimized
// baseline and requires identical output.
type differentialCase struct {
	name     string
	source   string
	genData  func(path string) error
	conf     manimal.Conf
	build    manimal.BuildConfig
	wantPlan string
}

// TestDifferentialOptimizedPlans runs the programs corpus through every
// physical plan shape — single-file B+Tree, sharded B+Tree, and record
// file — asserting each optimized run's output equals the original scan's.
func TestDifferentialOptimizedPlans(t *testing.T) {
	rankings := func(path string) error { return workload.NewGen(11).WriteRankingsOpaque(path, 6000) }
	visits := func(path string) error { return workload.NewGen(12).WriteUserVisits(path, 4000, 300) }
	cases := []differentialCase{
		{
			name:     "btree-single-shard",
			source:   programs.Benchmark1Selection,
			genData:  rankings,
			conf:     manimal.Conf{"threshold": manimal.Int(5000)},
			build:    manimal.BuildConfig{NumShards: 1},
			wantPlan: "btree",
		},
		{
			name:     "btree-sharded",
			source:   programs.Benchmark1Selection,
			genData:  rankings,
			conf:     manimal.Conf{"threshold": manimal.Int(5000)},
			build:    manimal.BuildConfig{NumShards: 4},
			wantPlan: "btree",
		},
		{
			name:     "recordfile",
			source:   programs.Benchmark2Aggregation,
			genData:  visits,
			build:    manimal.BuildConfig{MaxParallelTasks: 8},
			wantPlan: "recordfile",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			data := filepath.Join(dir, "input.rec")
			if err := tc.genData(data); err != nil {
				t.Fatal(err)
			}
			sys, err := manimal.NewSystemWith(filepath.Join(dir, "sys"), manimal.Options{DisableResultCache: true})
			if err != nil {
				t.Fatal(err)
			}
			prog := mustProgram(t, tc.name, tc.source)

			baseSpec := manimal.JobSpec{
				Name:                tc.name + "-base",
				Inputs:              []manimal.InputSpec{{Path: data, Program: prog}},
				OutputPath:          filepath.Join(dir, "base.kv"),
				Conf:                tc.conf,
				DisableOptimization: true,
			}
			base, _ := submit(t, sys, baseSpec)
			if len(base) == 0 {
				t.Fatal("baseline produced no output")
			}

			if _, err := sys.BuildBestIndexesWith(prog, data, tc.build); err != nil {
				t.Fatalf("build indexes: %v", err)
			}

			optSpec := baseSpec
			optSpec.Name = tc.name + "-opt"
			optSpec.OutputPath = filepath.Join(dir, "opt.kv")
			optSpec.DisableOptimization = false
			optSpec.MaxParallelTasks = 4
			opt, report := submit(t, sys, optSpec)
			plan := report.Inputs[0].Plan
			if plan.Kind.String() != tc.wantPlan {
				t.Fatalf("plan = %s, want %s; notes: %v", plan.Kind, tc.wantPlan, plan.Notes)
			}
			if !reflect.DeepEqual(base, opt) {
				t.Fatalf("optimized output differs from baseline: %d vs %d pairs", len(base), len(opt))
			}
			if tc.name == "btree-sharded" {
				// A single-range selection must fan out across map tasks
				// when the engine asks for more than one split.
				if tasks := report.Result.Counters.Get(mapreduce.CtrMapTasks); tasks < 2 {
					t.Errorf("sharded selection ran as %d map task(s); want > 1", tasks)
				}
			}
		})
	}
}

// TestStaleIndexNotChosenEndToEnd: rebuild-free staleness detection at the
// system surface — an index built before its input is rewritten must never
// be chosen afterwards.
func TestStaleIndexNotChosenEndToEnd(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "rankings.rec")
	if err := workload.NewGen(13).WriteRankingsOpaque(data, 3000); err != nil {
		t.Fatal(err)
	}
	sys, err := manimal.NewSystemWith(filepath.Join(dir, "sys"), manimal.Options{DisableResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	prog := mustProgram(t, "bench1", programs.Benchmark1Selection)
	conf := manimal.Conf{"threshold": manimal.Int(9000)}
	if _, err := sys.BuildBestIndexes(prog, data); err != nil {
		t.Fatal(err)
	}

	spec := manimal.JobSpec{
		Name:       "fresh",
		Inputs:     []manimal.InputSpec{{Path: data, Program: prog}},
		OutputPath: filepath.Join(dir, "fresh.kv"),
		Conf:       conf,
	}
	_, freshReport := submit(t, sys, spec)
	if got := freshReport.Inputs[0].Plan.Kind.String(); got != "btree" {
		t.Fatalf("fresh plan = %s; notes: %v", got, freshReport.Inputs[0].Plan.Notes)
	}

	// Rewrite the input with different contents; the catalog still lists
	// the old index.
	if err := workload.NewGen(99).WriteRankingsOpaque(data, 4000); err != nil {
		t.Fatal(err)
	}
	spec.Name = "stale"
	spec.OutputPath = filepath.Join(dir, "stale.kv")
	stalePairs, staleReport := submit(t, sys, spec)
	if got := staleReport.Inputs[0].Plan.Kind.String(); got != "original" {
		t.Fatalf("stale plan = %s, want original (index must be refused); notes: %v",
			got, staleReport.Inputs[0].Plan.Notes)
	}
	if len(stalePairs) == 0 {
		t.Fatal("stale run produced no output")
	}

	// Rebuilding over the rewritten input restores index use.
	if _, err := sys.BuildBestIndexes(prog, data); err != nil {
		t.Fatal(err)
	}
	spec.Name = "rebuilt"
	spec.OutputPath = filepath.Join(dir, "rebuilt.kv")
	rebuiltPairs, rebuiltReport := submit(t, sys, spec)
	if got := rebuiltReport.Inputs[0].Plan.Kind.String(); got != "btree" {
		t.Fatalf("rebuilt plan = %s; notes: %v", got, rebuiltReport.Inputs[0].Plan.Notes)
	}
	if !reflect.DeepEqual(stalePairs, rebuiltPairs) {
		t.Fatal("rebuilt index output differs from original scan")
	}
}

// TestDifferentialZoneMapPruning: the zone-map pushdown path — with NO
// index built at all — must produce output identical to the disabled-
// optimization baseline while actually skipping blocks, for a selective
// range over UserVisits' monotone visitDate.
func TestDifferentialZoneMapPruning(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "uservisits.rec")
	if err := workload.NewGen(17).WriteUserVisits(data, 8000, 300); err != nil {
		t.Fatal(err)
	}
	sys, err := manimal.NewSystemWith(filepath.Join(dir, "sys"), manimal.Options{DisableResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	prog := mustProgram(t, "daterange", `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("visitDate") >= ctx.ConfInt("lo") && v.Int("visitDate") < ctx.ConfInt("hi") {
		ctx.Emit(v.Str("destURL"), v.Int("adRevenue"))
	}
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	sum := 0
	for values.Next() {
		sum = sum + values.Int()
	}
	ctx.Emit(key, sum)
}
`)
	// A narrow slice in the middle of the (non-decreasing) date range.
	conf := manimal.Conf{"lo": manimal.Int(1_200_030_000), "hi": manimal.Int(1_200_032_000)}

	baseSpec := manimal.JobSpec{
		Name:                "daterange-base",
		Inputs:              []manimal.InputSpec{{Path: data, Program: prog}},
		OutputPath:          filepath.Join(dir, "base.kv"),
		Conf:                conf,
		DisableOptimization: true,
	}
	base, baseReport := submit(t, sys, baseSpec)

	optSpec := baseSpec
	optSpec.Name = "daterange-opt"
	optSpec.OutputPath = filepath.Join(dir, "opt.kv")
	optSpec.DisableOptimization = false
	opt, report := submit(t, sys, optSpec)

	plan := report.Inputs[0].Plan
	if plan.Kind.String() != "original" || plan.Pushdown == nil {
		t.Fatalf("plan = %+v", plan)
	}
	if !reflect.DeepEqual(base, opt) {
		t.Fatalf("pruned output differs from baseline: %d vs %d pairs", len(base), len(opt))
	}
	ctr := report.Result.Counters
	skipped := ctr.Get(mapreduce.CtrBlocksSkipped)
	read := ctr.Get(mapreduce.CtrBlocksRead)
	if skipped == 0 {
		t.Fatalf("no blocks skipped (read %d); plan notes: %v", read, plan.Notes)
	}
	if skipped+read != baseReport.Result.Counters.Get(mapreduce.CtrBlocksRead) {
		t.Fatalf("read %d + skipped %d != baseline blocks %d",
			read, skipped, baseReport.Result.Counters.Get(mapreduce.CtrBlocksRead))
	}
	// Rows surviving to the interpreter + residually filtered rows must
	// cover every record of every block that was read.
	if got := ctr.Get("map.input.records") + ctr.Get(mapreduce.CtrRowsFiltered); got <= 0 ||
		got > baseReport.Result.Counters.Get("map.input.records") {
		t.Fatalf("pruned input accounting off: %d", got)
	}
}
