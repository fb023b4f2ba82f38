package mapreduce

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"manimal/internal/faultinject"
	"manimal/internal/serde"
	"manimal/internal/storage"
)

// writeWordFile builds a small multi-block record file of word lines and
// returns the expected word counts.
func writeWordFile(t *testing.T, path string, n int) map[string]int64 {
	t.Helper()
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	expected := map[string]int64{}
	w, err := storage.NewWriter(path, wordSchema, storage.WriterOptions{BlockSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		line := ""
		for k := 0; k <= i%3; k++ {
			word := words[(i+k*5)%len(words)]
			expected[word]++
			if line != "" {
				line += " "
			}
			line += word
		}
		r := serde.NewRecord(wordSchema)
		r.MustSet("text", serde.String(line))
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return expected
}

// runFileWordCount runs word count over the record file at path and
// returns the raw output bytes and the finished execution (for counters
// and attempt history). The job fans out over several map tasks and
// spills many times per task, so every fault-tolerance code path has
// something to chew on.
func runFileWordCount(t *testing.T, path string, numReducers, maxRetries int) ([]byte, *Execution, error) {
	t.Helper()
	in, err := OpenFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "out.kv")
	kv, err := NewKVFileOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	job := &Job{
		Name:    "fault-wordcount",
		Inputs:  []MapInput{{Input: in, Mapper: func() (Mapper, error) { return wordCountMapper{}, nil }}},
		Reducer: func() (Reducer, error) { return sumReducer{}, nil },
		Output:  kv,
		Config: Config{
			WorkDir:          t.TempDir(),
			NumReducers:      numReducers,
			MaxParallelTasks: 4,
			SpillBufferBytes: 4 << 10, // a few spills per task
			MaxTaskRetries:   maxRetries,
			RetryBackoff:     time.Millisecond, // keep the test fast
		},
	}
	e, err := NewScheduler(4).Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Wait(); err != nil {
		return nil, e, err
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return raw, e, nil
}

// sortedCounts reads a KV word-count output into a map.
func sortedCounts(t *testing.T, raw []byte, dir string) map[string]int64 {
	t.Helper()
	tmp := filepath.Join(dir, "reread.kv")
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	pairs, err := ReadKVFile(tmp)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, p := range pairs {
		got[p.Key.Str()] = p.Value.D.Int()
	}
	return got
}

// TestFaultDifferential is the headline fault-tolerance check: a run with
// 5% transient faults on task starts, storage block reads, and spill I/O,
// plus one forced straggler that triggers a speculative duplicate, must
// produce byte-identical output to a clean run — while actually having
// retried and speculated.
func TestFaultDifferential(t *testing.T) {
	path := filepath.Join(t.TempDir(), "words.rec")
	writeWordFile(t, path, 3000)

	faultinject.Reset()
	clean, _, err := runFileWordCount(t, path, 1, 12)
	if err != nil {
		t.Fatal(err)
	}

	// The straggle rule pins task 1's FIRST attempt only: its speculative
	// duplicate ("map:1:1") must not match, so the race has a fast winner.
	faultinject.Set(faultinject.MustParse(
		"task=0.05,read=0.05,spill=0.05,straggle=1:400ms@map:1:0;seed=11"))
	defer faultinject.Reset()
	faulty, e, err := runFileWordCount(t, path, 1, 12)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(clean, faulty) {
		t.Fatalf("faulty run output (%d bytes) differs from clean run (%d bytes)", len(faulty), len(clean))
	}
	ctr := e.Counters()
	if n := ctr.Get(CtrTasksRetried); n == 0 {
		t.Error("no task was retried; the fault rates should have forced at least one")
	}
	if n := ctr.Get(CtrTasksSpeculative); n == 0 {
		t.Error("no speculative attempt launched for the forced straggler")
	}
	outcomes := map[string]int{}
	for _, a := range e.Status().Attempts {
		outcomes[a.Outcome]++
	}
	if outcomes[AttemptRetried] == 0 {
		t.Errorf("attempt history records no retried attempt: %v", outcomes)
	}
	if outcomes[AttemptSucceeded] == 0 {
		t.Errorf("attempt history records no successful attempt: %v", outcomes)
	}
}

// TestFaultDifferentialMultiReducer repeats the differential with several
// reduce partitions; the output file's pair order is then scheduler-
// dependent, so the comparison is over decoded (word, count) maps.
func TestFaultDifferentialMultiReducer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "words.rec")
	expected := writeWordFile(t, path, 2000)

	faultinject.Set(faultinject.MustParse("task=0.05,read=0.05,spill=0.05;seed=7"))
	defer faultinject.Reset()
	raw, e, err := runFileWordCount(t, path, 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.Counters().Get(CtrTasksRetried); n == 0 {
		t.Error("no task was retried under 5% fault rates")
	}
	got := sortedCounts(t, raw, t.TempDir())
	if len(got) != len(expected) {
		t.Fatalf("got %d distinct words, want %d", len(got), len(expected))
	}
	for w, n := range expected {
		if got[w] != n {
			t.Errorf("count[%s] = %d, want %d", w, got[w], n)
		}
	}
}

// TestCorruptBlockPermanent: flipped bits in a block are caught by the
// CRC32C checksum, surface as storage.ErrCorruptBlock, are never retried
// (re-reading flipped bits cannot help), and fail the job with the
// corrupt-block counter set.
func TestCorruptBlockPermanent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "words.rec")
	writeWordFile(t, path, 1000)

	faultinject.Set(faultinject.MustParse("corrupt=1;seed=5"))
	defer faultinject.Reset()
	_, e, err := runFileWordCount(t, path, 1, 12)
	if err == nil {
		t.Fatal("job over corrupted blocks reported success")
	}
	if !errors.Is(err, storage.ErrCorruptBlock) {
		t.Fatalf("err = %v; want errors.Is(err, storage.ErrCorruptBlock)", err)
	}
	var cbe *storage.CorruptBlockError
	if !errors.As(err, &cbe) {
		t.Fatalf("err = %v; want a *storage.CorruptBlockError in the chain", err)
	}
	if cbe.Path == "" {
		t.Error("CorruptBlockError carries no file path")
	}
	ctr := e.Counters()
	if n := ctr.Get(CtrCorruptBlocks); n == 0 {
		t.Error("corrupt-block counter not incremented")
	}
	if n := ctr.Get(CtrTasksRetried); n != 0 {
		t.Errorf("corruption was retried %d times; corruption is permanent", n)
	}
}

// TestRetryBudgetExhausted: a task that fails on every attempt consumes
// its full retry budget and then fails the job with an error that says so.
func TestRetryBudgetExhausted(t *testing.T) {
	// Fail every attempt of map task 0.
	faultinject.Set(faultinject.MustParse("task=1@map:0;seed=1"))
	defer faultinject.Reset()
	path := filepath.Join(t.TempDir(), "words.rec")
	writeWordFile(t, path, 200)
	_, e, err := runFileWordCount(t, path, 1, 3)
	if err == nil {
		t.Fatal("always-failing task reported success")
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v; want the injected fault in the chain", err)
	}
	want := int64(3)
	if n := e.Counters().Get(CtrTasksRetried); n != want {
		t.Errorf("tasks.retried = %d, want the full budget %d", n, want)
	}
}

// TestFaultMatrixFromEnv is the CI hook: it runs only when MANIMAL_FAULTS
// is set (the process-wide injector is then already installed by the
// faultinject init) and checks that word count still produces exactly the
// right answer under whatever fault regime the environment dialed in.
func TestFaultMatrixFromEnv(t *testing.T) {
	spec := os.Getenv("MANIMAL_FAULTS")
	if spec == "" {
		t.Skip("set MANIMAL_FAULTS (e.g. \"task=0.05;seed=3\") to run the fault matrix")
	}
	path := filepath.Join(t.TempDir(), "words.rec")
	expected := writeWordFile(t, path, 2000)
	raw, e, err := runFileWordCount(t, path, 2, 12)
	if err != nil {
		t.Fatalf("word count under MANIMAL_FAULTS=%q failed: %v", spec, err)
	}
	got := sortedCounts(t, raw, t.TempDir())
	if len(got) != len(expected) {
		t.Errorf("got %d distinct words, want %d", len(got), len(expected))
	}
	for w, n := range expected {
		if got[w] != n {
			t.Errorf("count[%s] = %d, want %d", w, got[w], n)
		}
	}
	t.Logf("faults=%q: retried=%d speculative=%d attempts=%d",
		spec, e.Counters().Get(CtrTasksRetried), e.Counters().Get(CtrTasksSpeculative),
		len(e.Status().Attempts))
}
