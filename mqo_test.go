package manimal_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"manimal"
	"manimal/internal/mapreduce"
	"manimal/internal/workload"
)

// mqoSpec builds the job shape every multi-query test uses: one reducer
// and one task slot per job, so each job's output bytes are deterministic
// and concurrency lives across jobs (the same determinism recipe as the
// concurrent-scheduler tests).
func mqoSpec(data *manimal.Program, input, name, out string, threshold int64) manimal.JobSpec {
	return manimal.JobSpec{
		Name:             name,
		Inputs:           []manimal.InputSpec{{Path: input, Program: data}},
		OutputPath:       out,
		Conf:             manimal.Conf{"threshold": manimal.Int(threshold)},
		NumReducers:      1,
		MaxParallelTasks: 1,
		// Hold every job in admission until all are submitted, so their map
		// tasks genuinely overlap on the slot pool.
		StartupDelay: 50 * time.Millisecond,
	}
}

// TestSharedScanDifferential is the scan-sharing acceptance gate: several
// identical jobs submitted concurrently — whose map scans ride one shared
// physical scan — must produce output byte-identical to a serial
// unoptimized run, and at least one scan must actually have shared.
func TestSharedScanDifferential(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	// Big enough that a split's scan far outlasts task-dispatch skew:
	// sharing needs the first subscriber's producer to still be running
	// when the later jobs' map tasks open their scans.
	if err := workload.NewGen(41).WriteWebPages(data, 100000, 192); err != nil {
		t.Fatal(err)
	}
	prog := mustProgram(t, "count", countProgram)

	// Conventional baseline: -noopt, serial, its own system dir.
	serialSys, err := manimal.NewSystem(filepath.Join(dir, "sys-serial"))
	if err != nil {
		t.Fatal(err)
	}
	baseOut := filepath.Join(dir, "base.kv")
	baseSpec := mqoSpec(prog, data, "base", baseOut, 3000)
	baseSpec.DisableOptimization = true
	baseSpec.StartupDelay = 0
	if _, err := serialSys.Submit(baseSpec); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(baseOut)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent: identical jobs through one pool. The result cache is
	// disabled so every submission truly executes (a cache hit would trivialize
	// the differential); scan sharing stays on.
	sys, err := manimal.NewSystemWith(filepath.Join(dir, "sys-conc"),
		manimal.Options{SchedulerSlots: 4, DisableResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 4
	handles := make([]*manimal.JobHandle, jobs)
	outs := make([]string, jobs)
	for i := 0; i < jobs; i++ {
		outs[i] = filepath.Join(dir, fmt.Sprintf("conc-%d.kv", i))
		h, err := sys.SubmitAsync(context.Background(),
			mqoSpec(prog, data, fmt.Sprintf("conc-%d", i), outs[i], 3000))
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	var shared int64
	for i, h := range handles {
		report, err := h.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		shared += report.Result.Counters.Get(mapreduce.CtrScansShared)
		got, err := os.ReadFile(outs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("job %d: shared-scan output differs from serial -noopt run (%d vs %d bytes)",
				i, len(got), len(want))
		}
	}
	if shared == 0 {
		t.Error("manimal.scans.shared = 0: no map scan ever shared across the concurrent jobs")
	}
}

// TestSharedScanUnionDifferential runs concurrent jobs with DIFFERENT
// filters over one input: the shared producer scans under the union of
// their pushdowns and each job re-applies its own residual, so every
// job's output must still match its solo unoptimized run.
func TestSharedScanUnionDifferential(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(42).WriteWebPages(data, 12000, 64); err != nil {
		t.Fatal(err)
	}
	prog := mustProgram(t, "count", countProgram)
	thresholds := []int64{2000, 9000}

	serialSys, err := manimal.NewSystem(filepath.Join(dir, "sys-serial"))
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(thresholds))
	for i, th := range thresholds {
		out := filepath.Join(dir, fmt.Sprintf("base-%d.kv", i))
		spec := mqoSpec(prog, data, fmt.Sprintf("base-%d", i), out, th)
		spec.DisableOptimization = true
		spec.StartupDelay = 0
		if _, err := serialSys.Submit(spec); err != nil {
			t.Fatal(err)
		}
		if want[i], err = os.ReadFile(out); err != nil {
			t.Fatal(err)
		}
	}

	sys, err := manimal.NewSystemWith(filepath.Join(dir, "sys-conc"),
		manimal.Options{SchedulerSlots: 2, DisableResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*manimal.JobHandle, len(thresholds))
	outs := make([]string, len(thresholds))
	for i, th := range thresholds {
		outs[i] = filepath.Join(dir, fmt.Sprintf("conc-%d.kv", i))
		h, err := sys.SubmitAsync(context.Background(),
			mqoSpec(prog, data, fmt.Sprintf("conc-%d", i), outs[i], th))
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		if _, err := h.Wait(); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		got, err := os.ReadFile(outs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Errorf("threshold %d: union-shared output differs from solo -noopt run (%d vs %d bytes)",
				thresholds[i], len(got), len(want[i]))
		}
	}
}

// countProgramVariant is countProgram with different formatting and added
// comments — everything AST canonicalization must erase, and nothing it
// must keep. A submission of this source must hit the cache entry the
// original populated.
const countProgramVariant = `
// counts ranks above a threshold, bucketed mod 50
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("rank") > ctx.ConfInt("threshold")   {
		ctx.Emit(v.Int("rank")%50, 1) // bucket
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

// TestResultCacheHitResubmission: a re-submitted identical job is served
// from the result cache — byte-identical output, a cached plan, a
// manimal.cache.hits counter — and consumes no scheduler task slot.
func TestResultCacheHitResubmission(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(43).WriteWebPages(data, 5000, 64); err != nil {
		t.Fatal(err)
	}
	prog := mustProgram(t, "count", countProgram)
	sysDir := filepath.Join(dir, "sys")
	sys, err := manimal.NewSystem(sysDir)
	if err != nil {
		t.Fatal(err)
	}

	out1 := filepath.Join(dir, "first.kv")
	spec1 := mqoSpec(prog, data, "first", out1, 3000)
	spec1.StartupDelay = 0
	report1, err := sys.Submit(spec1)
	if err != nil {
		t.Fatal(err)
	}
	if kind := report1.Inputs[0].Plan.Kind; kind == manimal.PlanCached {
		t.Fatalf("first submission served from an empty cache (plan %s)", kind)
	}
	if misses := report1.Result.Counters.Get(mapreduce.CtrCacheMisses); misses != 1 {
		t.Errorf("first submission: cache.misses = %d, want 1", misses)
	}
	want, err := os.ReadFile(out1)
	if err != nil {
		t.Fatal(err)
	}

	// Resubmit with reformatted source (comments, spacing) and a different
	// output path and job name — none of which are part of the cache key.
	variant := mustProgram(t, "count-variant", countProgramVariant)
	out2 := filepath.Join(dir, "second.kv")
	spec2 := mqoSpec(variant, data, "second", out2, 3000)
	spec2.StartupDelay = 0
	report2, err := sys.Submit(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if kind := report2.Inputs[0].Plan.Kind; kind != manimal.PlanCached {
		t.Fatalf("resubmission plan = %s, want cached; notes: %v", kind, report2.Inputs[0].Plan.Notes)
	}
	if hits := report2.Result.Counters.Get(mapreduce.CtrCacheHits); hits != 1 {
		t.Errorf("resubmission: cache.hits = %d, want 1", hits)
	}
	got, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("cached output differs from the executed run (%d vs %d bytes)", len(got), len(want))
	}

	// A fresh System over the same directory (shared catalog and artifacts)
	// with a private slot pool proves the slot claim: serving the hit must
	// leave the pool untouched.
	sys2, err := manimal.NewSystemWith(sysDir, manimal.Options{SchedulerSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	out3 := filepath.Join(dir, "third.kv")
	spec3 := mqoSpec(prog, data, "third", out3, 3000)
	spec3.StartupDelay = 0
	h, err := sys2.SubmitAsync(context.Background(), spec3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	st := h.Status()
	if st.Phase != mapreduce.PhaseDone {
		t.Errorf("cache-hit handle phase = %s, want done", st.Phase)
	}
	if hw := sys2.PoolStats().HighWater; hw != 0 {
		t.Errorf("cache hit consumed scheduler slots: pool high-water = %d, want 0", hw)
	}
	got3, err := os.ReadFile(out3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got3, want) {
		t.Errorf("cross-System cached output differs (%d vs %d bytes)", len(got3), len(want))
	}

	// The catalog lists the entry with its accumulated hit count.
	entries := sys.Catalog().CacheEntries()
	if len(entries) != 1 {
		t.Fatalf("result-cache entries = %d, want 1", len(entries))
	}
	if entries[0].Hits != 1 {
		t.Errorf("cache entry hits = %d, want 1", entries[0].Hits)
	}
	// Hit counts live in memory and reach the index on Close (sys2 was
	// never closed, so its hit is not in it).
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys3, err := manimal.NewSystem(sysDir)
	if err != nil {
		t.Fatal(err)
	}
	if entries := sys3.Catalog().CacheEntries(); len(entries) != 1 || entries[0].Hits != 1 {
		t.Errorf("cache entries after restart = %+v, want one with the flushed hit count", entries)
	}
}

// TestResultCacheInvalidationOnRewrite: rewriting an input changes its
// fingerprint, so the old entry can never serve again — the resubmission
// executes (a miss) and produces the NEW input's output.
func TestResultCacheInvalidationOnRewrite(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(44).WriteWebPages(data, 4000, 64); err != nil {
		t.Fatal(err)
	}
	prog := mustProgram(t, "count", countProgram)
	sys, err := manimal.NewSystem(filepath.Join(dir, "sys"))
	if err != nil {
		t.Fatal(err)
	}
	spec := func(name, out string) manimal.JobSpec {
		s := mqoSpec(prog, data, name, out, 1500)
		s.StartupDelay = 0
		return s
	}
	if _, err := sys.Submit(spec("seed", filepath.Join(dir, "seed.kv"))); err != nil {
		t.Fatal(err)
	}

	// Rewrite the input with different contents (different generator seed
	// and row count — both size and mtime change).
	if err := workload.NewGen(99).WriteWebPages(data, 4500, 64); err != nil {
		t.Fatal(err)
	}
	out2 := filepath.Join(dir, "after.kv")
	report, err := sys.Submit(spec("after", out2))
	if err != nil {
		t.Fatal(err)
	}
	if kind := report.Inputs[0].Plan.Kind; kind == manimal.PlanCached {
		t.Fatalf("stale cache entry served after input rewrite (plan %s)", kind)
	}
	if misses := report.Result.Counters.Get(mapreduce.CtrCacheMisses); misses != 1 {
		t.Errorf("post-rewrite submission: cache.misses = %d, want 1", misses)
	}

	// Differential: the executed result matches a conventional run over the
	// rewritten input.
	baseSys, err := manimal.NewSystem(filepath.Join(dir, "sys-base"))
	if err != nil {
		t.Fatal(err)
	}
	baseOut := filepath.Join(dir, "base.kv")
	baseSpec := spec("base", baseOut)
	baseSpec.DisableOptimization = true
	if _, err := baseSys.Submit(baseSpec); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(baseOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("post-rewrite output differs from conventional run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestResultCacheEviction: fresh entries survive a stale-only eviction;
// rewriting the input makes them evictable; a full eviction clears
// everything and removes the artifact files.
func TestResultCacheEviction(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(45).WriteWebPages(data, 3000, 64); err != nil {
		t.Fatal(err)
	}
	prog := mustProgram(t, "count", countProgram)
	sys, err := manimal.NewSystem(filepath.Join(dir, "sys"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string) {
		s := mqoSpec(prog, data, name, filepath.Join(dir, name+".kv"), 500)
		s.StartupDelay = 0
		if _, err := sys.Submit(s); err != nil {
			t.Fatal(err)
		}
	}
	cacheEntries := sys.Catalog().CacheEntries

	run("seed")
	entries := cacheEntries()
	if len(entries) != 1 {
		t.Fatalf("cache entries after first run = %d, want 1", len(entries))
	}
	artifact := entries[0].Path
	if _, err := os.Stat(artifact); err != nil {
		t.Fatalf("cache artifact missing: %v", err)
	}

	// Fresh entries survive stale-only eviction.
	if evicted, err := sys.EvictResultCache(true); err != nil || len(evicted) != 0 {
		t.Fatalf("stale-only eviction of a fresh entry: evicted %d, err %v", len(evicted), err)
	}

	// A rewritten input makes the entry stale and evictable.
	if err := workload.NewGen(46).WriteWebPages(data, 3100, 64); err != nil {
		t.Fatal(err)
	}
	evicted, err := sys.EvictResultCache(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 {
		t.Fatalf("stale eviction after rewrite: evicted %d, want 1", len(evicted))
	}
	if _, err := os.Stat(artifact); !os.IsNotExist(err) {
		t.Errorf("evicted artifact still on disk: %v", err)
	}
	if n := len(cacheEntries()); n != 0 {
		t.Errorf("cache entries after eviction = %d, want 0", n)
	}

	// Full eviction clears fresh entries too.
	run("again")
	if n := len(cacheEntries()); n != 1 {
		t.Fatalf("cache entries after re-run = %d, want 1", n)
	}
	evicted, err = sys.EvictResultCache(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 {
		t.Fatalf("full eviction: evicted %d, want 1", len(evicted))
	}
	if n := len(cacheEntries()); n != 0 {
		t.Errorf("cache entries after full eviction = %d, want 0", n)
	}
}
