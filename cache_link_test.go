package manimal_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"manimal"
	"manimal/internal/durable"
	"manimal/internal/workload"
)

// TestSubmissionSyncBudget is the deterministic cost gate of the
// per-submission metadata path, journal and result cache on: an executed
// submission pays at most 4 syncs (journal begin, output file, output
// directory, journal end), a cache hit at most 2 (journal begin and end),
// and neither writes the catalog snapshot.
func TestSubmissionSyncBudget(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(47).WriteWebPages(data, 3000, 64); err != nil {
		t.Fatal(err)
	}
	prog := mustProgram(t, "count", countProgram)
	sysDir := filepath.Join(dir, "sys")
	sys, err := manimal.NewSystemWith(sysDir, manimal.Options{Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.BuildBestIndexes(prog, data); err != nil {
		t.Fatal(err)
	}
	snapshot, err := os.Stat(filepath.Join(sysDir, "manimal-catalog.json"))
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu     sync.Mutex
		synced []string
	)
	defer durable.OnSync(func(path string) {
		mu.Lock()
		synced = append(synced, path)
		mu.Unlock()
	})()
	submit := func(name string, wantCached bool, budget int) {
		t.Helper()
		mu.Lock()
		synced = nil
		mu.Unlock()
		spec := mqoSpec(prog, data, name, filepath.Join(dir, name+".kv"), 2000)
		spec.StartupDelay = 0
		report, err := sys.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if cached := report.Inputs[0].Plan.Kind == manimal.PlanCached; cached != wantCached {
			t.Fatalf("%s: plan %s, want cached = %v", name, report.Inputs[0].Plan.Kind, wantCached)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(synced) > budget {
			t.Errorf("%s paid %d syncs, budget %d: %v", name, len(synced), budget, synced)
		}
	}
	submit("executed", false, 4)
	submit("hit", true, 2)

	now, err := os.Stat(filepath.Join(sysDir, "manimal-catalog.json"))
	if err != nil {
		t.Fatal(err)
	}
	if now.Size() != snapshot.Size() || !now.ModTime().Equal(snapshot.ModTime()) {
		t.Errorf("submissions rewrote the catalog snapshot (%d bytes @ %v, was %d @ %v)",
			now.Size(), now.ModTime(), snapshot.Size(), snapshot.ModTime())
	}
}

// TestResultCacheDetectsEditThroughSharedInode: cache artifacts are
// hardlinks of job outputs, so an output path a user can write shares its
// inode with the artifact. A change of mtime or size made through that
// path must be caught at the next hit: the entry is quarantined, the job
// executes, the output is right, and the cache is re-populated.
func TestResultCacheDetectsEditThroughSharedInode(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(48).WriteWebPages(data, 3000, 64); err != nil {
		t.Fatal(err)
	}
	prog := mustProgram(t, "count", countProgram)
	sys, err := manimal.NewSystem(filepath.Join(dir, "sys"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string) (string, bool) {
		t.Helper()
		out := filepath.Join(dir, name+".kv")
		spec := mqoSpec(prog, data, name, out, 1000)
		spec.StartupDelay = 0
		report, err := sys.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return out, report.Inputs[0].Plan.Kind == manimal.PlanCached
	}
	sharesInode := func(out string) bool {
		entries := sys.Catalog().CacheEntries()
		if len(entries) != 1 {
			t.Fatalf("cache entries = %d, want 1", len(entries))
		}
		a, err1 := os.Stat(entries[0].Path)
		b, err2 := os.Stat(out)
		if err1 != nil || err2 != nil {
			t.Fatalf("stat artifact/output: %v, %v", err1, err2)
		}
		return os.SameFile(a, b)
	}

	first, cached := run("first")
	if cached {
		t.Fatal("first submission served from an empty cache")
	}
	want, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if !sharesInode(first) {
		t.Fatal("the stored artifact is not a hardlink of the job output")
	}
	served, cached := run("served")
	if !cached || !sharesInode(served) {
		t.Fatalf("resubmission: cached = %v, output shares the artifact's inode = %v", cached, sharesInode(served))
	}

	// mtime changed through the served path.
	later := time.Now().Add(time.Hour)
	if err := os.Chtimes(served, later, later); err != nil {
		t.Fatal(err)
	}
	touched, cached := run("after-chtimes")
	if cached {
		t.Fatal("hit served from an artifact whose mtime changed")
	}
	if got, _ := os.ReadFile(touched); !bytes.Equal(got, want) {
		t.Errorf("re-executed output differs (%d vs %d bytes)", len(got), len(want))
	}
	if _, cached := run("repopulated"); !cached {
		t.Fatal("re-execution did not re-populate the cache")
	}

	// Contents appended in place through the re-populated artifact's link.
	f, err := os.OpenFile(touched, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("scribble")
	f.Close()
	appended, cached := run("after-append")
	if cached {
		t.Fatal("hit served from an artifact that was appended to")
	}
	if got, _ := os.ReadFile(appended); !bytes.Equal(got, want) {
		t.Errorf("output after the append differs (%d vs %d bytes)", len(got), len(want))
	}
	if _, cached := run("repopulated-again"); !cached {
		t.Fatal("re-execution did not re-populate the cache")
	}
}

// TestConcurrentIdenticalJobsLeaveOneServableEntry: identical jobs that all
// miss and finish together each try to store the same key. The entry that
// results must describe the artifact actually in place — its recorded mtime
// is checked on every hit — so the next submission is served, not
// quarantined.
func TestConcurrentIdenticalJobsLeaveOneServableEntry(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(50).WriteWebPages(data, 3000, 64); err != nil {
		t.Fatal(err)
	}
	prog := mustProgram(t, "count", countProgram)
	sys, err := manimal.NewSystemWith(filepath.Join(dir, "sys"), manimal.Options{SchedulerSlots: 4})
	if err != nil {
		t.Fatal(err)
	}
	var handles []*manimal.JobHandle
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("conc-%d", i)
		h, err := sys.SubmitAsync(context.Background(), mqoSpec(prog, data, name, filepath.Join(dir, name+".kv"), 1500))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	spec := mqoSpec(prog, data, "after", filepath.Join(dir, "after.kv"), 1500)
	spec.StartupDelay = 0
	report, err := sys.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if kind := report.Inputs[0].Plan.Kind; kind != manimal.PlanCached {
		t.Fatalf("submission after 4 concurrent identical jobs ran with plan %s, want cached; entries: %+v",
			kind, sys.Catalog().CacheEntries())
	}
}
