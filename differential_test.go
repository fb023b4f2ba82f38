package manimal_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"manimal"
	"manimal/internal/btree"
	"manimal/internal/mapreduce"
	"manimal/internal/programs"
	"manimal/internal/serde"
	"manimal/internal/storage"
	"manimal/internal/workload"
)

// differentialCase pits one optimized plan shape against the unoptimized
// baseline and requires identical output: the same pairs, and with
// sameBytes the same output file byte for byte. confFor, when set,
// derives the job's conf from the indexes the case built.
type differentialCase struct {
	name      string
	source    string
	genData   func(path string) error
	conf      manimal.Conf
	confFor   func(t *testing.T, entries []manimal.CatalogEntry) manimal.Conf
	build     manimal.BuildConfig
	wantPlan  string
	sameBytes bool
	wantEmpty bool // the selection keeps no record
}

// idsSchema is the input of the B+Tree range cases: id is the record's
// position in the file, name a unique string in another order.
var idsSchema = serde.MustSchema(
	serde.Field{Name: "id", Kind: serde.KindInt64},
	serde.Field{Name: "name", Kind: serde.KindString},
	serde.Field{Name: "pad", Kind: serde.KindString},
)

const idsRows = 20000

func writeIDs(path string) error {
	w, err := storage.NewWriter(path, idsSchema, storage.WriterOptions{})
	if err != nil {
		return err
	}
	for i := 0; i < idsRows; i++ {
		r := serde.NewRecord(idsSchema)
		r.MustSet("id", serde.Int(int64(i)))
		r.MustSet("name", serde.String(fmt.Sprintf("k%05d", (i*7919)%idsRows)))
		r.MustSet("pad", serde.String("padding-that-spreads-entries-over-many-leaves"))
		if err := w.Append(r); err != nil {
			w.Abort()
			return err
		}
	}
	return w.Close()
}

// The B+Tree range programs. Each has a Reduce, so an optimized run's
// output file must equal the baseline's byte for byte.
const (
	idRangeCount = `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("id") > ctx.ConfInt("lo") && v.Int("id") <= ctx.ConfInt("hi") {
		ctx.Emit(v.Int("id") % 97, 1)
	}
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	count := 0
	for values.Next() {
		count = count + values.Int()
	}
	ctx.Emit(key, count)
}
`
	// Both bounds fall exactly on an entry: the first one kept and the
	// first one dropped.
	idHalfOpenCount = `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("id") >= ctx.ConfInt("lo") && v.Int("id") < ctx.ConfInt("hi") {
		ctx.Emit(v.Int("id") % 97, 1)
	}
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	count := 0
	for values.Next() {
		count = count + values.Int()
	}
	ctx.Emit(key, count)
}
`
	// Map's key is the entry's index key under a B+Tree plan and the
	// record's position without one; on this input the two agree, and a
	// key taken from anything else (a row number within a split) shows.
	emitMapKey = `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("id") > ctx.ConfInt("lo") {
		ctx.Emit(k, v.Str("name"))
	}
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	for values.Next() {
		ctx.Emit(key, values.Str())
	}
}
`
	nameRangeSum = `
func Map(k, v *Record, ctx *Ctx) {
	if v.Str("name") >= ctx.ConfStr("lo") && v.Str("name") < ctx.ConfStr("hi") {
		ctx.Emit(v.Str("name"), v.Int("id"))
	}
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	sum := 0
	for values.Next() {
		sum = sum + values.Int()
	}
	ctx.Emit(key, sum)
}
`
)

// leafEndConf puts both bounds of idHalfOpenCount's range on the last key
// of a leaf — the entry just before a first-of-leaf cut key — so the scan
// keeps exactly one entry of its first leaf and stops exactly before the
// last entry of another.
func leafEndConf(t *testing.T, entries []manimal.CatalogEntry) manimal.Conf {
	t.Helper()
	idx, err := btree.OpenIndex(entries[0].IndexPath)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	cuts, _, err := idx.RangeCuts(nil, nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) < 4 {
		t.Fatalf("%d leaf cuts; the input must span more leaves", len(cuts))
	}
	first := func(cut []byte) int64 {
		d, _, err := serde.DecodeSortKey(cut)
		if err != nil {
			t.Fatal(err)
		}
		return d.Int()
	}
	// id is unique, so the key before a leaf's first key ends the leaf
	// before it.
	return manimal.Conf{"lo": manimal.Int(first(cuts[1]) - 1), "hi": manimal.Int(first(cuts[len(cuts)-2]) - 1)}
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
	for _, shards := range []int{1, 4} {
		build := manimal.BuildConfig{NumShards: shards}
		suffix := fmt.Sprintf("-%dshard", shards)
		cases = append(cases,
			differentialCase{name: "btree-int-range" + suffix, source: idRangeCount, genData: writeIDs,
				conf: manimal.Conf{"lo": manimal.Int(3000), "hi": manimal.Int(9000)}, build: build, wantPlan: "btree", sameBytes: true},
			differentialCase{name: "btree-emits-map-key" + suffix, source: emitMapKey, genData: writeIDs,
				conf: manimal.Conf{"lo": manimal.Int(12345)}, build: build, wantPlan: "btree", sameBytes: true},
			differentialCase{name: "btree-string-key" + suffix, source: nameRangeSum, genData: writeIDs,
				conf: manimal.Conf{"lo": manimal.String("k05000"), "hi": manimal.String("k11000")}, build: build, wantPlan: "btree", sameBytes: true},
			differentialCase{name: "btree-leaf-end-bounds" + suffix, source: idHalfOpenCount, genData: writeIDs,
				confFor: leafEndConf, build: build, wantPlan: "btree", sameBytes: true},
			differentialCase{name: "btree-empty-range" + suffix, source: idRangeCount, genData: writeIDs,
				conf: manimal.Conf{"lo": manimal.Int(5000), "hi": manimal.Int(5000)}, build: build, wantPlan: "btree", sameBytes: true, wantEmpty: true},
		)
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
			// Noopt runs ignore indexes, so building first changes nothing
			// for the baseline and lets a case derive its conf from them.
			entries, err := sys.BuildBestIndexesWith(prog, data, tc.build)
			if err != nil {
				t.Fatalf("build indexes: %v", err)
			}
			if tc.confFor != nil {
				tc.conf = tc.confFor(t, entries)
			}

			baseSpec := manimal.JobSpec{
				Name:                tc.name + "-base",
				Inputs:              []manimal.InputSpec{{Path: data, Program: prog}},
				OutputPath:          filepath.Join(dir, "base.kv"),
				Conf:                tc.conf,
				DisableOptimization: true,
			}
			base, _ := submit(t, sys, baseSpec)
			if len(base) == 0 && !tc.wantEmpty {
				t.Fatal("baseline produced no output")
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
			if tc.sameBytes {
				b, err := os.ReadFile(baseSpec.OutputPath)
				if err != nil {
					t.Fatal(err)
				}
				o, err := os.ReadFile(optSpec.OutputPath)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(b, o) {
					t.Fatalf("optimized output file differs from the baseline's (%d vs %d bytes)", len(o), len(b))
				}
				// Map re-checks the selection, so a scan that strays past a
				// bound shows only in what it fed Map: these programs emit
				// once per selected record.
				c := report.Result.Counters
				if in, out := c.Get(mapreduce.CtrMapInputRecords), c.Get(mapreduce.CtrMapOutputRecords); in != out {
					t.Fatalf("the B+Tree scan fed Map %d records, %d of them selected", in, out)
				}
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

// weblogProgram is examples/weblog's program: a recent-visit selection
// with a logged side effect, counted per country with a sum Combine.
const weblogProgram = `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("visitDate") > ctx.ConfInt("since") {
		ctx.Log("recent visit: " + v.Str("sourceIP"))
		ctx.Emit(v.Str("countryCode"), 1)
	}
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	visits := 0
	for values.Next() {
		visits = visits + values.Int()
	}
	ctx.Emit(key, visits)
}

func Combine(key Datum, values *Iter, ctx *Ctx) {
	visits := 0
	for values.Next() {
		visits = visits + values.Int()
	}
	ctx.Emit(key, visits)
}
`

// logHelperProgram is weblogProgram with its log message built by a helper
// that writes a member variable, which the Emit after it reads.
const logHelperProgram = `
var marked int

func mark(s string) string {
	marked = 1
	return s
}

func Map(k, v *Record, ctx *Ctx) {
	if v.Int("visitDate") > ctx.ConfInt("since") {
		ctx.Log("recent visit: " + mark(v.Str("sourceIP")))
		ctx.Emit(v.Str("countryCode"), 1+marked)
	}
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	visits := 0
	for values.Next() {
		visits = visits + values.Int()
	}
	ctx.Emit(key, visits)
}

func Combine(key Datum, values *Iter, ctx *Ctx) {
	visits := 0
	for values.Next() {
		visits = visits + values.Int()
	}
	ctx.Emit(key, visits)
}
`

// TestCombineFoldDifferential: every corpus program with a Combine — each
// an int64 sum the optimized plan folds at emit — writes output
// byte-identical to its -noopt run, which combines through the
// interpreter, with equal pair counters. Output lists reduce partitions in
// partition order, so the raw bytes compare. Indexes are built where the
// optimized plan keeps the map output keys and can run: direct operation
// recodes the keys, which reorders the output, so the compression query
// runs over its original file. The weblog programs' ctx.Log message reads
// sourceIP, which nothing else reads, so their indexes drop it: no engine
// installs a log sink, so no plan evaluates the message — not even a
// helper it calls whose member-variable write a later Emit reads.
func TestCombineFoldDifferential(t *testing.T) {
	visits := func(path string) error { return workload.NewGen(21).WriteUserVisits(path, 5000, 300) }
	pages := func(path string) error { return workload.NewGen(22).WriteWebPages(path, 3000, 64) }
	const foldNote = "combine: int64 sum folded at emit"
	since := manimal.Conf{"since": manimal.Int(1_200_030_000)}
	for _, tc := range []struct {
		name    string
		source  string
		genData func(path string) error
		conf    manimal.Conf
		index   bool
		logOnly string // a field only ctx.Log reads, which no built index may keep
	}{
		{"benchmark2-aggregation", programs.Benchmark2Aggregation, visits, nil, true, ""},
		{"selection-query", programs.SelectionQuery, pages, manimal.Conf{"threshold": manimal.Int(5000)}, true, ""},
		{"delta-query", programs.DeltaQuery, visits, nil, true, ""},
		{"compression-query", programs.CompressionQuery, visits, nil, false, ""},
		{"example-weblog", weblogProgram, visits, since, true, "sourceIP"},
		{"log-helper-writes-member", logHelperProgram, visits, since, true, "sourceIP"},
	} {
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
			run := func(name string, noopt bool) ([]byte, *manimal.JobReport) {
				t.Helper()
				spec := manimal.JobSpec{
					Name:                name,
					Inputs:              []manimal.InputSpec{{Path: data, Program: prog}},
					OutputPath:          filepath.Join(dir, name+".kv"),
					Conf:                tc.conf,
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
			base, baseReport := run("base", true)
			if tc.index {
				entries, err := sys.BuildBestIndexes(prog, data)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					if tc.logOnly != "" && slices.Contains(e.Fields, tc.logOnly) {
						t.Fatalf("index %s keeps %s, which only ctx.Log reads", e.IndexPath, tc.logOnly)
					}
				}
			}
			opt, optReport := run("opt", false)
			if notes := optReport.Inputs[0].Plan.Notes; !slices.Contains(notes, foldNote) {
				t.Fatalf("optimized plan does not fold; notes %v", notes)
			}
			if notes := baseReport.Inputs[0].Plan.Notes; slices.Contains(notes, foldNote) {
				t.Fatalf("-noopt plan folds; notes %v", notes)
			}
			if baseReport.Result.Counters.Get(mapreduce.CtrOutputRecords) == 0 {
				t.Fatal("baseline produced no output")
			}
			if !bytes.Equal(base, opt) {
				t.Fatalf("optimized output (%d bytes, plan %s) differs from -noopt (%d bytes)",
					len(opt), optReport.Inputs[0].Plan.Kind, len(base))
			}
			for _, name := range []string{mapreduce.CtrMapOutputRecords, mapreduce.CtrMapOutputBytes,
				mapreduce.CtrReduceInputGroups, mapreduce.CtrOutputRecords} {
				if b, o := baseReport.Result.Counters.Get(name), optReport.Result.Counters.Get(name); b != o {
					t.Errorf("%s: -noopt %d, optimized %d", name, b, o)
				}
			}
		})
	}
}
