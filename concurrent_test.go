package manimal_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"manimal"
	"manimal/internal/mapreduce"
	"manimal/internal/workload"
)

// countProgram aggregates ranks above a threshold — a reduce job with a
// deterministic, key-sorted output when run with one reducer.
const countProgram = `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("rank") > ctx.ConfInt("threshold") {
		ctx.Emit(v.Int("rank") % 50, 1)
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

// TestConcurrentSubmissionsByteIdentical is the acceptance gate for the
// shared-pool scheduler: several jobs submitted concurrently through one
// System (while an index build races on the same scheduler) must produce
// outputs byte-identical to serial runs, without the pool ever exceeding
// its slot budget. Deterministic layout comes from one reducer and one
// task slot per job — concurrency lives across jobs, not within them.
func TestConcurrentSubmissionsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(11).WriteWebPages(data, 6000, 64); err != nil {
		t.Fatal(err)
	}
	// A second copy for the racing index build: indexes land next to their
	// input, so a private copy keeps the jobs' plan choice deterministic.
	idxData := filepath.Join(dir, "webpages-idx.rec")
	raw, err := os.ReadFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(idxData, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	prog := mustProgram(t, "count", countProgram)
	spec := func(name, out string, threshold int64) manimal.JobSpec {
		return manimal.JobSpec{
			Name:             name,
			Inputs:           []manimal.InputSpec{{Path: data, Program: prog}},
			OutputPath:       out,
			Conf:             manimal.Conf{"threshold": manimal.Int(threshold)},
			NumReducers:      1,
			MaxParallelTasks: 1,
			// All jobs admitted before any runs: the pool is provably
			// contended, not accidentally serialized by submission order.
			StartupDelay: 50 * time.Millisecond,
		}
	}
	const jobs = 4
	thresholds := []int64{1000, 4000, 7000, 9500}

	// Serial baseline on its own system dir.
	serialSys, err := manimal.NewSystem(filepath.Join(dir, "sys-serial"))
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, jobs)
	for i := 0; i < jobs; i++ {
		out := filepath.Join(dir, fmt.Sprintf("serial-%d.kv", i))
		if _, err := serialSys.Submit(spec(fmt.Sprintf("serial-%d", i), out, thresholds[i])); err != nil {
			t.Fatal(err)
		}
		if want[i], err = os.ReadFile(out); err != nil {
			t.Fatal(err)
		}
	}

	// Concurrent: same jobs through one 3-slot System, an index build
	// racing on the same pool.
	sys, err := manimal.NewSystemWith(filepath.Join(dir, "sys-conc"), manimal.Options{SchedulerSlots: 3})
	if err != nil {
		t.Fatal(err)
	}
	buildDone := make(chan error, 1)
	go func() {
		_, err := sys.BuildBestIndexes(prog, idxData)
		buildDone <- err
	}()
	handles := make([]*manimal.JobHandle, jobs)
	outs := make([]string, jobs)
	for i := 0; i < jobs; i++ {
		outs[i] = filepath.Join(dir, fmt.Sprintf("conc-%d.kv", i))
		h, err := sys.SubmitAsync(context.Background(), spec(fmt.Sprintf("conc-%d", i), outs[i], thresholds[i]))
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		if _, err := h.Wait(); err != nil {
			t.Fatalf("concurrent job %d: %v", i, err)
		}
	}
	if err := <-buildDone; err != nil {
		t.Fatalf("racing index build: %v", err)
	}

	for i := range handles {
		got, err := os.ReadFile(outs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Errorf("job %d: concurrent output differs from serial run (%d vs %d bytes)", i, len(got), len(want[i]))
		}
	}

	stats := sys.PoolStats()
	if stats.HighWater > 3 {
		t.Fatalf("pool high-water %d exceeds the 3-slot budget", stats.HighWater)
	}
	if stats.HighWater < 2 {
		t.Fatalf("pool high-water %d: jobs never actually ran concurrently", stats.HighWater)
	}
	if stats.ActiveJobs != 0 {
		t.Fatalf("%d jobs still active after completion", stats.ActiveJobs)
	}

	// The racing build registered usable indexes for its copy.
	if entries := sys.Catalog().ForInput(idxData); len(entries) == 0 {
		t.Fatal("racing index build registered nothing")
	}
}

// TestOutputPathExclusive: two live jobs must not share one output file
// (each would truncate and overwrite it); the second submission is
// refused while the first is in flight and accepted once it is done.
func TestOutputPathExclusive(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(13).WriteWebPages(data, 200, 32); err != nil {
		t.Fatal(err)
	}
	sys, err := manimal.NewSystem(filepath.Join(dir, "sys"))
	if err != nil {
		t.Fatal(err)
	}
	prog := mustProgram(t, "count", countProgram)
	out := filepath.Join(dir, "out.kv")
	spec := manimal.JobSpec{
		Name:       "holder",
		Inputs:     []manimal.InputSpec{{Path: data, Program: prog}},
		OutputPath: out,
		Conf:       manimal.Conf{"threshold": manimal.Int(0)},
		// Held in admission so the path stays claimed.
		StartupDelay: time.Minute,
	}
	h, err := sys.SubmitAsync(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	dup := spec
	dup.Name = "intruder"
	dup.StartupDelay = 0
	if _, err := sys.SubmitAsync(context.Background(), dup); err == nil {
		t.Fatal("second live job claimed the same output path")
	}
	h.Cancel()
	if _, err := h.Wait(); err == nil {
		t.Fatal("canceled holder reported success")
	}
	// A spec with no program is refused like one with no inputs — with an
	// error, not a nil dereference, and without keeping the path.
	noProgram := dup
	noProgram.Inputs = []manimal.InputSpec{{Path: data}}
	if _, err := sys.SubmitAsync(context.Background(), noProgram); err == nil {
		t.Fatal("submission without a program accepted")
	}
	if _, err := sys.BuildBestIndexes(nil, data); err == nil {
		t.Fatal("index build without a program accepted")
	}
	// Released on completion: the path is reusable now.
	if _, err := sys.Submit(dup); err != nil {
		t.Fatalf("resubmission after release failed: %v", err)
	}
}

// TestConcurrentSubmissionsFullParallelism reruns the stress shape with
// full per-job parallelism, comparing sorted pair content (parallel task
// completion order makes raw bytes legitimately nondeterministic).
func TestConcurrentSubmissionsFullParallelism(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(12).WriteWebPages(data, 6000, 64); err != nil {
		t.Fatal(err)
	}
	prog := mustProgram(t, "count", countProgram)
	spec := func(name, out string, threshold int64) manimal.JobSpec {
		return manimal.JobSpec{
			Name:       name,
			Inputs:     []manimal.InputSpec{{Path: data, Program: prog}},
			OutputPath: out,
			Conf:       manimal.Conf{"threshold": manimal.Int(threshold)},
		}
	}
	serialSys, err := manimal.NewSystem(filepath.Join(dir, "sys-serial"))
	if err != nil {
		t.Fatal(err)
	}
	base, _ := submit(t, serialSys, spec("serial", filepath.Join(dir, "serial.kv"), 5000))

	sys, err := manimal.NewSystemWith(filepath.Join(dir, "sys-conc"), manimal.Options{SchedulerSlots: 4})
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 3
	handles := make([]*manimal.JobHandle, jobs)
	outs := make([]string, jobs)
	for i := 0; i < jobs; i++ {
		outs[i] = filepath.Join(dir, fmt.Sprintf("conc-%d.kv", i))
		h, err := sys.SubmitAsync(context.Background(), spec(fmt.Sprintf("conc-%d", i), outs[i], 5000))
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		if _, err := h.Wait(); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		pairs, err := manimal.ReadOutput(outs[i])
		if err != nil {
			t.Fatal(err)
		}
		mapreduce.SortKVPairs(pairs)
		if !reflect.DeepEqual(pairs, base) {
			t.Errorf("job %d: content differs from serial run (%d vs %d pairs)", i, len(pairs), len(base))
		}
	}
}
