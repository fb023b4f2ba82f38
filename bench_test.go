package manimal_test

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"manimal"
	"manimal/internal/bench"
	"manimal/internal/catalog"
	"manimal/internal/indexgen"
	"manimal/internal/interp"
	"manimal/internal/mapreduce"
	"manimal/internal/predicate"
	"manimal/internal/serde"
	"manimal/internal/storage"
	"manimal/internal/workload"
)

// Macro-benchmarks: one per paper table. Each iteration regenerates the
// full table (data generation + index builds + both runs), so per-op time
// is the cost of reproducing that table end to end. Run with:
//
//	go test -bench=Table -benchmem
func BenchmarkTable1AnalyzerRecall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("bad row count")
		}
	}
}

func BenchmarkTable2EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunTable2(b.TempDir(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3SelectionSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunTable3(b.TempDir(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4Projection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunTable4(b.TempDir(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5DeltaCompression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunTable5(b.TempDir(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6DirectOperation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunTable6(b.TempDir(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks of the substrates, for profiling the fabric itself.

func BenchmarkRecordFileScan(b *testing.B) {
	dir := b.TempDir()
	path := filepath.Join(dir, "webpages.rec")
	const n = 20000
	if err := workload.NewGen(1).WriteWebPages(path, n, 256); err != nil {
		b.Fatal(err)
	}
	r, err := storage.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.SetBytes(r.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, err := r.ScanAll()
		if err != nil {
			b.Fatal(err)
		}
		count := 0
		for sc.Next() {
			count++
		}
		if sc.Err() != nil || count != n {
			b.Fatalf("scan: %v (%d records)", sc.Err(), count)
		}
	}
}

// The selection mapper of the interpreter benchmarks, with its guard
// written inline and moved into a helper. Both run through the one closure
// compiler; the pair quantifies what a helper call costs on the per-record
// hot path (a frame switch and two argument moves, no allocation).
const (
	inlineGuardMapper = `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("rank") > ctx.ConfInt("threshold") {
		ctx.Emit(v.Str("url"), v.Int("rank"))
	}
}
`
	helperGuardMapper = `
func hot(r *Record, t int64) bool {
	return r.Int("rank") > t
}

func Map(k, v *Record, ctx *Ctx) {
	if hot(v, ctx.ConfInt("threshold")) {
		ctx.Emit(v.Str("url"), v.Int("rank"))
	}
}
`
)

// mapInvocation returns a closure running one Map invocation of src over a
// fixed WebPages record that passes the guard, and the emission counter.
func mapInvocation(tb testing.TB, src string) (invoke func(), emitted *int) {
	prog, err := manimal.ParseProgram("bench", src)
	if err != nil {
		tb.Fatal(err)
	}
	ex, err := interp.New(prog.Parsed())
	if err != nil {
		tb.Fatal(err)
	}
	rec := serde.NewRecord(workload.WebPagesSchema)
	rec.MustSet("url", serde.String("http://example.com/x"))
	rec.MustSet("rank", serde.Int(7000))
	rec.MustSet("content", serde.String("body"))
	emitted = new(int)
	ctx := &interp.Context{
		Conf: manimal.Conf{"threshold": serde.Int(5000)},
		Emit: func(serde.Datum, interp.EmitValue) error { *emitted++; return nil },
	}
	key := serde.Int(0)
	return func() {
		if err := ex.InvokeMap(key, rec, ctx); err != nil {
			tb.Fatal(err)
		}
	}, emitted
}

func benchMapInvocation(b *testing.B, src string) {
	invoke, emitted := mapInvocation(b, src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		invoke()
	}
	if *emitted != b.N {
		b.Fatalf("emitted %d of %d", *emitted, b.N)
	}
}

func BenchmarkInterpreterMapInvocation(b *testing.B) {
	benchMapInvocation(b, inlineGuardMapper)
}

func BenchmarkInterpreterMapInvocationHelper(b *testing.B) {
	benchMapInvocation(b, helperGuardMapper)
}

// TestHelperCallAllocs gates the helper-guarded mapper at zero allocations
// per record once the executor's frame and argument stacks are warm.
func TestHelperCallAllocs(t *testing.T) {
	invoke, emitted := mapInvocation(t, helperGuardMapper)
	invoke()
	if allocs := testing.AllocsPerRun(2000, invoke); allocs != 0 {
		t.Fatalf("helper-guarded mapper allocates %.2f objects per record; want 0", allocs)
	}
	if *emitted == 0 {
		t.Fatal("mapper never emitted")
	}
}

func BenchmarkShuffleSortSpillMerge(b *testing.B) {
	// A full word-count-shaped job: measures the engine's sort/spill/merge
	// path under combiner pre-aggregation.
	dir := b.TempDir()
	data := filepath.Join(dir, "uservisits.rec")
	if err := workload.NewGen(2).WriteUserVisits(data, 20000, 500); err != nil {
		b.Fatal(err)
	}
	prog, err := manimal.ParseProgram("bench", `
func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(v.Str("countryCode"), 1)
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	n := 0
	for values.Next() {
		n = n + values.Int()
	}
	ctx.Emit(key, n)
}
`)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := manimal.NewSystem(filepath.Join(dir, "sys"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := manimal.JobSpec{
			Name:                "wc",
			Inputs:              []manimal.InputSpec{{Path: data, Program: prog}},
			OutputPath:          filepath.Join(dir, fmt.Sprintf("out-%d.kv", i)),
			DisableOptimization: true,
		}
		if _, err := sys.Submit(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBTreeBuild measures one full B+Tree index build per op at the given
// shard count. Comparing the Serial and Sharded variants quantifies what
// range-partitioned parallel bulk loading buys on multi-core hosts.
func benchBTreeBuild(b *testing.B, shards int) {
	dir := b.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(6).WriteWebPages(data, 30000, 128); err != nil {
		b.Fatal(err)
	}
	spec := indexgen.Spec{Kind: catalog.KindBTree, KeyExpr: `v.Int("rank")`, Fields: []string{"url", "rank"}}
	cfg := indexgen.BuildConfig{NumShards: shards}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := filepath.Join(b.TempDir(), "w.idx")
		if _, err := indexgen.BuildWith(context.Background(), mapreduce.DefaultScheduler(), spec, data, out, dir, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBTreeBuildSerial(b *testing.B)  { benchBTreeBuild(b, 1) }
func BenchmarkBTreeBuildSharded(b *testing.B) { benchBTreeBuild(b, 4) }

// BenchmarkConcurrentJobs measures the scheduler as a job service: many
// small jobs through one System, submitted one-at-a-time (serialized) vs
// all at once onto the shared 4-slot pool. The delay variants model
// cluster job-launch latency (Config.StartupDelay, paper Appendix D):
// admission waits hold no slot, so the shared pool overlaps them across
// jobs while serialized submission pays them end to end.
func BenchmarkConcurrentJobs(b *testing.B) {
	for _, delay := range []time.Duration{0, 25 * time.Millisecond} {
		for _, mode := range []string{"serialized", "shared-pool"} {
			b.Run(fmt.Sprintf("delay=%s/%s", delay, mode), func(b *testing.B) {
				benchConcurrentJobs(b, mode == "shared-pool", delay)
			})
		}
	}
}

func benchConcurrentJobs(b *testing.B, concurrent bool, delay time.Duration) {
	dir := b.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(9).WriteWebPages(data, 8000, 64); err != nil {
		b.Fatal(err)
	}
	// The subject is scheduler admission and slot overlap, so every job
	// must truly execute: with the result cache on, all submissions after
	// the first six are identical resubmissions served without tasks.
	sys, err := manimal.NewSystemWith(filepath.Join(dir, "sys"), manimal.Options{
		SchedulerSlots:     4,
		DisableResultCache: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := manimal.ParseProgram("count", countProgram)
	if err != nil {
		b.Fatal(err)
	}
	const jobs = 6
	spec := func(j int) manimal.JobSpec {
		return manimal.JobSpec{
			Name:             fmt.Sprintf("job%d", j),
			Inputs:           []manimal.InputSpec{{Path: data, Program: prog}},
			OutputPath:       filepath.Join(dir, fmt.Sprintf("out-%d.kv", j)),
			Conf:             manimal.Conf{"threshold": manimal.Int(5000)},
			NumReducers:      2,
			MaxParallelTasks: 2,
			StartupDelay:     delay,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if concurrent {
			handles := make([]*manimal.JobHandle, jobs)
			for j := 0; j < jobs; j++ {
				h, err := sys.SubmitAsync(context.Background(), spec(j))
				if err != nil {
					b.Fatal(err)
				}
				handles[j] = h
			}
			for _, h := range handles {
				if _, err := h.Wait(); err != nil {
					b.Fatal(err)
				}
			}
		} else {
			for j := 0; j < jobs; j++ {
				if _, err := sys.Submit(spec(j)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkBTreeRangeScan(b *testing.B) {
	dir := b.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(3).WriteWebPages(data, 20000, 128); err != nil {
		b.Fatal(err)
	}
	sys, err := manimal.NewSystem(filepath.Join(dir, "sys"))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := manimal.ParseProgram("bench", `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("rank") > ctx.ConfInt("threshold") {
		ctx.Emit(v.Int("rank"), 1)
	}
}
`)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.BuildBestIndexes(prog, data); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := manimal.JobSpec{
			Name:       "scan",
			Inputs:     []manimal.InputSpec{{Path: data, Program: prog}},
			OutputPath: filepath.Join(dir, fmt.Sprintf("out-%d.kv", i)),
			Conf:       manimal.Conf{"threshold": manimal.Int(9000)},
			MapOnly:    true,
		}
		r, err := sys.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		if r.Inputs[0].Plan.Kind.String() != "btree" {
			b.Fatal("expected btree plan")
		}
	}
}

// BenchmarkVectorScan measures the scan pipeline at the storage layer under
// a pruning-RESISTANT ~30% residual filter on adRevenue (random per row, so
// zone maps skip nothing and every block pays decode + filter) plus a
// field mask: bulk column decode, residual kernels, and late
// materialization of every survivor through a reused record, exactly as
// the engine consumes them. BenchmarkRecordFileScan is the same pipeline
// through the row cursor.
func BenchmarkVectorScan(b *testing.B) {
	dir := b.TempDir()
	data := filepath.Join(dir, "uservisits.rec")
	const rows = 50000
	if err := workload.NewGen(41).WriteUserVisits(data, rows, 500); err != nil {
		b.Fatal(err)
	}
	// Residual-heavy, pruning-resistant conjunction: adRevenue and duration
	// are random per row, so zone maps skip nothing and every block pays
	// decode + filter. Thresholds come from the data's percentiles —
	// adRevenue >= p55 AND duration >= p45 keeps ~30% of rows (the two are
	// independent) spread evenly across blocks.
	recs, _, err := storage.ReadAll(data)
	if err != nil {
		b.Fatal(err)
	}
	pctile := func(field string, pct int) int64 {
		vals := make([]int64, len(recs))
		for i, r := range recs {
			vals[i] = r.Get(field).Int()
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		return vals[len(vals)*pct/100]
	}
	revLo := pctile("adRevenue", 55)
	durLo := pctile("duration", 45)
	pd := &storage.Pushdown{
		Filter: predicate.ZoneFilter{{
			predicate.FieldInterval{Field: "adRevenue",
				Iv: predicate.Interval{Lo: serde.Int(revLo), LoInc: true}},
			predicate.FieldInterval{Field: "duration",
				Iv: predicate.Interval{Lo: serde.Int(durLo), LoInc: true}},
		}},
		Residual: true,
		Fields:   []string{"destURL", "adRevenue"},
	}
	want := 0
	for _, r := range recs {
		if r.Get("adRevenue").Int() >= revLo && r.Get("duration").Int() >= durLo {
			want++
		}
	}

	b.Run("batch", func(b *testing.B) {
		r, err := storage.Open(data)
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		rec := serde.NewRecord(r.Schema())
		rev := r.Schema().IndexOf("adRevenue")
		b.SetBytes(r.Size())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc, err := r.ScanBatch(0, r.NumBlocks(), pd)
			if err != nil {
				b.Fatal(err)
			}
			count, sum := 0, int64(0)
			for sc.Next() {
				bt := sc.Batch()
				bt.ZeroUndecoded(rec)
				for _, row := range bt.Sel() {
					bt.MaterializeDecodedInto(rec, int(row))
					sum += rec.At(rev).Int()
					count++
				}
			}
			if sc.Err() != nil || count != want || sum == 0 {
				b.Fatalf("batch scan: %v (%d of %d survivors)", sc.Err(), count, want)
			}
		}
	})
}

// BenchmarkSelectiveScan measures the zone-map pushdown on its target
// workload: a ~1%-selectivity date-range job over UserVisits (visitDate is
// non-decreasing, so blocks are prunable) with NO index built. "pruned"
// runs the analyzed plan — block skipping + residual filter + field-pruned
// decode on the original file; "full" is the same job with optimization
// disabled (every block read, every field decoded, every row through the
// interpreter). The pruned/full ratio is the benefit.
func BenchmarkSelectiveScan(b *testing.B) {
	dir := b.TempDir()
	data := filepath.Join(dir, "uservisits.rec")
	const rows = 50000
	if err := workload.NewGen(31).WriteUserVisits(data, rows, 500); err != nil {
		b.Fatal(err)
	}
	// Derive a ~1% visitDate slice from the generated span.
	recs, _, err := storage.ReadAll(data)
	if err != nil {
		b.Fatal(err)
	}
	minD := recs[0].Get("visitDate").Int()
	maxD := recs[len(recs)-1].Get("visitDate").Int()
	lo := minD + (maxD-minD)*495/1000
	hi := lo + (maxD-minD)/100
	prog, err := manimal.ParseProgram("selscan", `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("visitDate") >= ctx.ConfInt("lo") && v.Int("visitDate") < ctx.ConfInt("hi") {
		ctx.Emit(v.Int("visitDate"), v.Int("adRevenue"))
	}
}
`)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"pruned", "full"} {
		b.Run(mode, func(b *testing.B) {
			sys, err := manimal.NewSystem(filepath.Join(b.TempDir(), "sys"))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spec := manimal.JobSpec{
					Name:                mode,
					Inputs:              []manimal.InputSpec{{Path: data, Program: prog}},
					OutputPath:          filepath.Join(dir, fmt.Sprintf("out-%s-%d.kv", mode, i)),
					Conf:                manimal.Conf{"lo": manimal.Int(lo), "hi": manimal.Int(hi)},
					MapOnly:             true,
					DisableOptimization: mode == "full",
				}
				r, err := sys.Submit(spec)
				if err != nil {
					b.Fatal(err)
				}
				if mode == "pruned" {
					if r.Inputs[0].Plan.Pushdown == nil {
						b.Fatal("pruned run planned no pushdown")
					}
					if r.Result.Counters.Get("manimal.blocks.skipped") == 0 {
						b.Fatal("pruned run skipped no blocks")
					}
				}
			}
		})
	}
}

// BenchmarkResultCacheHit measures serving an identical re-submission
// from the fingerprint-keyed result cache: one populating run commits
// its output and registers the artifact, then every benchmark op
// re-submits the same logical job (fresh output path) and is served by
// re-validating input fingerprints, copying the committed artifact, and
// synthesizing the report — no planning, no tasks. The hit-serving
// System is constructed after the populating run, so the closing
// high-water check pins the acceptance criterion that cache hits occupy
// zero scheduler task slots.
func BenchmarkResultCacheHit(b *testing.B) {
	dir := b.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(23).WriteWebPages(data, 20000, 64); err != nil {
		b.Fatal(err)
	}
	prog, err := manimal.ParseProgram("cachehit", `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("rank") >= ctx.ConfInt("threshold") {
		ctx.Emit(v.Int("rank"), len(v.Str("content")))
	}
}
`)
	if err != nil {
		b.Fatal(err)
	}
	spec := func(out string) manimal.JobSpec {
		return manimal.JobSpec{
			Name:             "cachehit",
			Inputs:           []manimal.InputSpec{{Path: data, Program: prog}},
			OutputPath:       out,
			Conf:             manimal.Conf{"threshold": manimal.Int(9900)},
			MapOnly:          true,
			MaxParallelTasks: 1,
		}
	}
	sysDir := filepath.Join(dir, "sys")
	populate, err := manimal.NewSystem(sysDir)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := populate.Submit(spec(filepath.Join(dir, "seed.kv"))); err != nil {
		b.Fatal(err)
	}
	// A private slot pool (fresh high-water mark) makes the closing
	// no-slot assertion meaningful; the shared default pool would carry
	// the populating run's mark.
	sys, err := manimal.NewSystemWith(sysDir, manimal.Options{SchedulerSlots: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sys.Submit(spec(filepath.Join(dir, fmt.Sprintf("hit-%d.kv", i))))
		if err != nil {
			b.Fatal(err)
		}
		if r.Inputs[0].Plan.Kind != manimal.PlanCached {
			b.Fatalf("resubmission plan = %s, want cached", r.Inputs[0].Plan.Kind)
		}
	}
	b.StopTimer()
	if hw := sys.PoolStats().HighWater; hw != 0 {
		b.Fatalf("cache hits drove pool high-water to %d, want 0 (no task slots)", hw)
	}
}
