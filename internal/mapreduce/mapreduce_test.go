package mapreduce

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"manimal/internal/faultinject"
	"manimal/internal/interp"
	"manimal/internal/serde"
)

var wordSchema = serde.MustSchema(serde.Field{Name: "text", Kind: serde.KindString})

func textRecords(lines ...string) []*serde.Record {
	out := make([]*serde.Record, len(lines))
	for i, l := range lines {
		r := serde.NewRecord(wordSchema)
		r.MustSet("text", serde.String(l))
		out[i] = r
	}
	return out
}

// wordCountMapper is a native Go mapper (the engine is language-agnostic;
// interpreted programs are just one Mapper implementation).
type wordCountMapper struct{}

func (wordCountMapper) Map(_ serde.Datum, rec *serde.Record, ctx *interp.Context) error {
	word := ""
	text := rec.Str("text")
	for i := 0; i <= len(text); i++ {
		if i == len(text) || text[i] == ' ' {
			if word != "" {
				if err := ctx.Emit(serde.String(word), interp.EmitValue{D: serde.Int(1)}); err != nil {
					return err
				}
			}
			word = ""
		} else {
			word += string(text[i])
		}
	}
	return nil
}

type sumReducer struct{}

func (sumReducer) Reduce(key serde.Datum, values interp.ValueIter, ctx *interp.Context) error {
	var sum int64
	for values.Next() {
		sum += values.Value().D.Int()
	}
	return ctx.Emit(key, interp.EmitValue{D: serde.Int(sum)})
}

func wordCountJob(t *testing.T, lines []string, cfg Config, combiner bool) map[string]int64 {
	t.Helper()
	in, err := NewMemInput(wordSchema, textRecords(lines...))
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "out.kv")
	kv, err := NewKVFileOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WorkDir = t.TempDir()
	job := &Job{
		Name:    "wordcount",
		Inputs:  []MapInput{{Input: in, Mapper: func() (Mapper, error) { return wordCountMapper{}, nil }}},
		Reducer: func() (Reducer, error) { return sumReducer{}, nil },
		Output:  kv,
		Config:  cfg,
	}
	if combiner {
		job.Combiner = func() (Reducer, error) { return sumReducer{}, nil }
	}
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Get(CtrMapTasks) == 0 {
		t.Error("no map tasks counted")
	}
	pairs, err := ReadKVFile(out)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int64)
	for _, p := range pairs {
		got[p.Key.Str()] = p.Value.D.Int()
	}
	return got
}

func TestWordCount(t *testing.T) {
	got := wordCountJob(t, []string{
		"the quick brown fox",
		"the lazy dog",
		"the quick dog",
	}, Config{NumReducers: 3, MaxParallelTasks: 2}, false)
	want := map[string]int64{"the": 3, "quick": 2, "brown": 1, "fox": 1, "lazy": 1, "dog": 2}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for w, n := range want {
		if got[w] != n {
			t.Errorf("%s = %d, want %d", w, got[w], n)
		}
	}
}

// Combiner, spill pressure, and parallelism must not change results.
func TestDeterminismUnderConfig(t *testing.T) {
	rnd := rand.New(rand.NewSource(8))
	words := []string{"a", "b", "c", "d", "e", "f"}
	var lines []string
	for i := 0; i < 500; i++ {
		line := ""
		for j := 0; j < 10; j++ {
			line += words[rnd.Intn(len(words))] + " "
		}
		lines = append(lines, line)
	}
	base := wordCountJob(t, lines, Config{NumReducers: 1, MaxParallelTasks: 1}, false)
	variants := []struct {
		cfg      Config
		combiner bool
	}{
		{Config{NumReducers: 7, MaxParallelTasks: 8}, false},
		{Config{NumReducers: 3, MaxParallelTasks: 4}, true},
		{Config{NumReducers: 2, MaxParallelTasks: 2, SpillBufferBytes: 64}, true}, // force many spills
		{Config{NumReducers: 2, MaxParallelTasks: 2, SpillBufferBytes: 64}, false},
	}
	for i, v := range variants {
		got := wordCountJob(t, lines, v.cfg, v.combiner)
		if len(got) != len(base) {
			t.Fatalf("variant %d: %d words vs %d", i, len(got), len(base))
		}
		for w, n := range base {
			if got[w] != n {
				t.Errorf("variant %d: %s = %d, want %d", i, w, got[w], n)
			}
		}
	}
}

func TestMapOnlyJob(t *testing.T) {
	in, err := NewMemInput(wordSchema, textRecords("x", "y", "z"))
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "out.kv")
	kv, err := NewKVFileOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	job := &Job{
		Name:   "identity",
		Inputs: []MapInput{{Input: in, Mapper: func() (Mapper, error) { return passMapper{}, nil }}},
		Output: kv,
	}
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Get(CtrOutputRecords) != 3 {
		t.Fatalf("output records = %d", res.Counters.Get(CtrOutputRecords))
	}
	pairs, err := ReadKVFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 || !pairs[0].Value.IsRecord() {
		t.Fatalf("pairs = %+v", pairs)
	}
}

type passMapper struct{}

func (passMapper) Map(k serde.Datum, rec *serde.Record, ctx *interp.Context) error {
	return ctx.Emit(k, interp.EmitValue{Rec: rec})
}

type failMapper struct{}

func (failMapper) Map(serde.Datum, *serde.Record, *interp.Context) error {
	return fmt.Errorf("synthetic map failure")
}

func TestMapFailurePropagates(t *testing.T) {
	in, err := NewMemInput(wordSchema, textRecords("x"))
	if err != nil {
		t.Fatal(err)
	}
	job := &Job{
		Name:   "failing",
		Inputs: []MapInput{{Input: in, Mapper: func() (Mapper, error) { return failMapper{}, nil }}},
		Output: &DiscardOutput{},
	}
	if _, err := Run(job); err == nil {
		t.Fatal("map failure swallowed")
	}
}

func TestJobValidation(t *testing.T) {
	if err := (&Job{Name: "empty"}).Validate(); err == nil {
		t.Error("empty job validated")
	}
	in, _ := NewMemInput(wordSchema, nil)
	job := &Job{
		Name:    "no-workdir",
		Inputs:  []MapInput{{Input: in, Mapper: func() (Mapper, error) { return passMapper{}, nil }}},
		Reducer: func() (Reducer, error) { return sumReducer{}, nil },
		Output:  &DiscardOutput{},
	}
	if err := job.Validate(); err == nil {
		t.Error("reduce job without workdir validated")
	}
}

func TestKVFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.out")
	o, err := NewKVFileOutput(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := textRecords("hello")[0]
	if err := o.Write(serde.Int(1), interp.EmitValue{D: serde.String("v1")}); err != nil {
		t.Fatal(err)
	}
	if err := o.Write(serde.String("k2"), interp.EmitValue{Rec: rec}); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	pairs, err := ReadKVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	if pairs[0].Key.Int() != 1 || pairs[0].Value.D.Str() != "v1" {
		t.Errorf("pair 0 = %+v", pairs[0])
	}
	if !pairs[1].Value.IsRecord() || pairs[1].Value.Rec.Str("text") != "hello" {
		t.Errorf("pair 1 = %+v", pairs[1])
	}
}

func TestPartitionStability(t *testing.T) {
	// The same key must always land in the same partition, and partitions
	// must spread across the range.
	used := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		k := serde.String(fmt.Sprintf("key-%d", i)).SortKey()
		p1 := HashPartitioner{}.Partition(k, 8)
		p2 := HashPartitioner{}.Partition(k, 8)
		if p1 != p2 {
			t.Fatal("partition not deterministic")
		}
		if p1 < 0 || p1 >= 8 {
			t.Fatalf("partition %d out of range", p1)
		}
		used[p1] = true
	}
	if len(used) < 8 {
		t.Errorf("only %d of 8 partitions used", len(used))
	}
}

// TestHashPartitionerMatchesFNV: the inlined FNV-1a must agree with
// hash/fnv bit for bit, so catalogs and spill layouts stay stable.
func TestHashPartitionerMatchesFNV(t *testing.T) {
	for i := 0; i < 500; i++ {
		k := serde.String(fmt.Sprintf("key-%d", i)).SortKey()
		h := fnv.New32a()
		h.Write(k)
		want := int(h.Sum32() % 8)
		if got := (HashPartitioner{}).Partition(k, 8); got != want {
			t.Fatalf("key %d: inlined FNV gives %d, hash/fnv gives %d", i, got, want)
		}
	}
}

func TestRangePartitioner(t *testing.T) {
	rp := &RangePartitioner{Bounds: [][]byte{
		serde.Int(10).SortKey(),
		serde.Int(20).SortKey(),
	}}
	for _, tc := range []struct {
		k    int64
		want int
	}{
		{-5, 0}, {9, 0}, {10, 1}, {15, 1}, {19, 1}, {20, 2}, {1000, 2},
	} {
		if got := rp.Partition(serde.Int(tc.k).SortKey(), 3); got != tc.want {
			t.Errorf("Partition(%d) = %d, want %d", tc.k, got, tc.want)
		}
	}
}

// TestShuffleMultiSpillWithCombiner forces many per-task spills through a
// tiny buffer and checks the combiner path still yields exact counts.
func TestShuffleMultiSpillWithCombiner(t *testing.T) {
	var lines []string
	for i := 0; i < 200; i++ {
		lines = append(lines, "alpha beta gamma delta epsilon")
	}
	in, err := NewMemInput(wordSchema, textRecords(lines...))
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "out.kv")
	kv, err := NewKVFileOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	job := &Job{
		Name:     "multispill",
		Inputs:   []MapInput{{Input: in, Mapper: func() (Mapper, error) { return wordCountMapper{}, nil }}},
		Reducer:  func() (Reducer, error) { return sumReducer{}, nil },
		Combiner: func() (Reducer, error) { return sumReducer{}, nil },
		Output:   kv,
		Config:   Config{WorkDir: t.TempDir(), NumReducers: 3, MaxParallelTasks: 2, SpillBufferBytes: 256},
	}
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	tasks := res.Counters.Get(CtrMapTasks)
	if spills := res.Counters.Get(CtrSpills); spills < 2*tasks {
		t.Fatalf("spills = %d for %d tasks; buffer did not force multiple spills per task", spills, tasks)
	}
	pairs, err := ReadKVFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 5 {
		t.Fatalf("got %d words, want 5", len(pairs))
	}
	for _, p := range pairs {
		if p.Value.D.Int() != 200 {
			t.Errorf("%s = %d, want 200", p.Key.Str(), p.Value.D.Int())
		}
	}
}

// TestCombinerBuiltOncePerEmitter: a map task builds its combiner once,
// at its first combine, and reuses it for every partition of every spill.
// With an interpreted combiner the factory is a whole program compile,
// which used to run once per non-empty partition per spill.
func TestCombinerBuiltOncePerEmitter(t *testing.T) {
	built := 0
	combiner := func() (Reducer, error) {
		built++
		return sumReducer{}, nil
	}
	se := newShuffleEmitter(0, 0, 3, t.TempDir(), 1<<30, combiner, false, NewCounters(), nil, HashPartitioner{})
	defer se.discard()
	emit := se.emit
	for spill := 0; spill < 3; spill++ {
		for i := 0; i < 64; i++ {
			if err := emit(serde.Int(int64(i)), interp.EmitValue{D: serde.Int(1)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := se.spill(); err != nil {
			t.Fatal(err)
		}
	}
	if len(se.files) != 3 {
		t.Fatalf("%d spill files, want 3", len(se.files))
	}
	for i, sf := range se.files {
		filled := 0
		for _, sp := range sf.parts {
			if sp.n > 0 {
				filled++
			}
		}
		if filled < 2 {
			t.Fatalf("spill %d filled %d partitions; the keys did not spread over at least 2", i, filled)
		}
	}
	if built != 1 {
		t.Fatalf("combiner factory called %d times over 3 spills of several partitions, want 1", built)
	}
}

// TestFoldingTaskBuildsCombinerOnUnfold: a task that folds never builds its
// combiner while it folds, spills included; the first non-int value
// unfolds it, and its next spill builds the combiner once.
func TestFoldingTaskBuildsCombinerOnUnfold(t *testing.T) {
	built := 0
	combiner := func() (Reducer, error) {
		built++
		return &digestCombiner{}, nil
	}
	se := newShuffleEmitter(0, 0, 3, t.TempDir(), 1<<30, combiner, true, NewCounters(), nil, HashPartitioner{})
	defer se.discard()
	for _, v := range []serde.Datum{serde.Int(1), serde.Int(2), serde.Float(0.5)} {
		for i := 0; i < 64; i++ {
			if err := se.emit(serde.Int(int64(i)), interp.EmitValue{D: v}); err != nil {
				t.Fatal(err)
			}
		}
		if err := se.spill(); err != nil {
			t.Fatal(err)
		}
		if want := map[bool]int{true: 0, false: 1}[se.folding]; built != want {
			t.Fatalf("after emitting %v: combiner built %d times (folding %v), want %d", v, built, se.folding, want)
		}
	}
}

// paddedWordMapper emits every word of the line with a pad-byte string
// value: a pad of memSpillMax makes every spill a file.
type paddedWordMapper struct{ pad int }

func (m paddedWordMapper) Map(_ serde.Datum, rec *serde.Record, ctx *interp.Context) error {
	val := interp.EmitValue{D: serde.String(strings.Repeat("x", m.pad))}
	for _, w := range strings.Fields(rec.Str("text")) {
		if err := ctx.Emit(serde.String(w), val); err != nil {
			return err
		}
	}
	return nil
}

// TestWorkDirCleanedAfterRun: spill files must be deleted once the reduce
// phase consumed them, so a long-lived WorkDir does not grow; and a job
// whose spills all stay in memory never creates its WorkDir at all.
func TestWorkDirCleanedAfterRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		pad  int
		disk bool
	}{
		{"in-memory spills", 8, false},
		{"disk spills", memSpillMax, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in, err := NewMemInput(wordSchema, textRecords("a b c", "a b", "c c c"))
			if err != nil {
				t.Fatal(err)
			}
			work := filepath.Join(t.TempDir(), "work")
			kv, err := NewKVFileOutput(filepath.Join(t.TempDir(), "out.kv"))
			if err != nil {
				t.Fatal(err)
			}
			job := &Job{
				Name:    "cleanup",
				Inputs:  []MapInput{{Input: in, Mapper: func() (Mapper, error) { return paddedWordMapper{tc.pad}, nil }}},
				Reducer: func() (Reducer, error) { return firstOnlyReducer{}, nil },
				Output:  kv,
				Config:  Config{WorkDir: work, NumReducers: 3, SpillBufferBytes: 16},
			}
			res, err := Run(job)
			if err != nil {
				t.Fatal(err)
			}
			if n := res.Counters.Get(CtrSpills); n < 2 {
				t.Fatalf("spills = %d; the tiny buffer did not force several", n)
			}
			left, err := os.ReadDir(work)
			switch {
			case !tc.disk && !os.IsNotExist(err):
				t.Fatalf("a job whose spills fit in memory created its WorkDir (%d entries, err %v)", len(left), err)
			case tc.disk && (err != nil || len(left) != 0):
				t.Fatalf("WorkDir holds %d files after a successful run (err %v)", len(left), err)
			}
		})
	}
}

// TestInMemorySpillFaultsAndRelease: an image that stays in memory still
// passes the spill fault point under its spill name, and both ways an
// image stops being needed — a failed or losing attempt's discard, the
// last partition's consumption — drop it.
func TestInMemorySpillFaultsAndRelease(t *testing.T) {
	in, err := NewMemInput(wordSchema, textRecords("a b", "b c"))
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set(faultinject.MustParse("spill=1.0;seed=2"))
	_, err = Run(&Job{
		Name:    "spill-faults",
		Inputs:  []MapInput{{Input: in, Mapper: func() (Mapper, error) { return wordCountMapper{}, nil }}},
		Reducer: func() (Reducer, error) { return sumReducer{}, nil },
		Output:  &DiscardOutput{},
		Config:  Config{WorkDir: t.TempDir(), RetryBackoff: time.Millisecond},
	})
	faultinject.Reset()
	var ie *faultinject.InjectedError
	if !errors.As(err, &ie) || !strings.HasSuffix(ie.Key, ".spill") {
		t.Fatalf("word count under spill=1.0: err = %v; want the injected spill fault", err)
	}

	se := newShuffleEmitter(0, 0, 2, t.TempDir(), 1<<30, nil, false, NewCounters(), nil, HashPartitioner{})
	for i := 0; i < 100; i++ {
		if err := se.emit(serde.Int(int64(i)), interp.EmitValue{D: serde.Int(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := se.spill(); err != nil {
		t.Fatal(err)
	}
	if err := se.emit(serde.Int(7), interp.EmitValue{D: serde.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := se.spill(); err != nil {
		t.Fatal(err)
	}
	kept, lost := se.files[0], se.files[1]
	if kept.mem.Load() == nil || kept.f != nil || lost.mem.Load() == nil {
		t.Fatal("small spills were not kept in memory")
	}
	// A failing or losing attempt discards its spills...
	se.files = se.files[1:]
	se.discard()
	if lost.mem.Load() != nil {
		t.Fatal("discard kept the attempt's in-memory image")
	}
	// ...a committed one is dropped once every partition merged it.
	for p := range kept.parts {
		m, err := newMergeIter([]*spillFile{kept}, p)
		if err != nil {
			t.Fatal(err)
		}
		for m.nextGroup() {
			m.drainGroup()
		}
		m.closeAll()
		if m.err != nil {
			t.Fatal(m.err)
		}
		kept.consumed(p)
	}
	if kept.mem.Load() != nil {
		t.Fatal("a fully consumed in-memory image was not released")
	}
}

// emitThenFailMapper spills some shuffle data — one spill large enough for
// a file, then small ones — and fails, exercising the error-path cleanup.
type emitThenFailMapper struct{}

func (emitThenFailMapper) Map(_ serde.Datum, _ *serde.Record, ctx *interp.Context) error {
	if err := ctx.Emit(serde.String("big"), interp.EmitValue{D: serde.String(strings.Repeat("x", memSpillMax))}); err != nil {
		return err
	}
	for i := 0; i < 64; i++ {
		if err := ctx.Emit(serde.String(fmt.Sprintf("w%03d", i)), interp.EmitValue{D: serde.Int(1)}); err != nil {
			return err
		}
	}
	return fmt.Errorf("synthetic failure after emitting")
}

// TestFailedJobCleansUp: a failing map phase must remove the partial
// output file and every spill segment.
func TestFailedJobCleansUp(t *testing.T) {
	in, err := NewMemInput(wordSchema, textRecords("x", "y", "z"))
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	out := filepath.Join(t.TempDir(), "out.kv")
	kv, err := NewKVFileOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	job := &Job{
		Name:    "failing",
		Inputs:  []MapInput{{Input: in, Mapper: func() (Mapper, error) { return emitThenFailMapper{}, nil }}},
		Reducer: func() (Reducer, error) { return sumReducer{}, nil },
		Output:  kv,
		Config:  Config{WorkDir: work, NumReducers: 2, SpillBufferBytes: 16},
	}
	if _, err := Run(job); err == nil {
		t.Fatal("failing job reported success")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("partial output file survived the failure (stat err = %v)", err)
	}
	left, err := os.ReadDir(work)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("WorkDir still holds %d spill files after failure", len(left))
	}
}

// slowCountingMapper sleeps per record and counts invocations across tasks.
type slowCountingMapper struct{ n *atomic.Int64 }

func (m slowCountingMapper) Map(serde.Datum, *serde.Record, *interp.Context) error {
	m.n.Add(1)
	time.Sleep(50 * time.Microsecond)
	return nil
}

// TestCancellationStopsSiblings: a failed task must stop sibling tasks
// promptly instead of letting them run to completion.
func TestCancellationStopsSiblings(t *testing.T) {
	failIn, err := NewMemInput(wordSchema, textRecords("boom"))
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, 10000)
	for i := range lines {
		lines[i] = "x"
	}
	slowIn, err := NewMemInput(wordSchema, textRecords(lines...))
	if err != nil {
		t.Fatal(err)
	}
	var invoked atomic.Int64
	job := &Job{
		Name: "cancel",
		Inputs: []MapInput{
			{Input: failIn, Mapper: func() (Mapper, error) { return failMapper{}, nil }},
			{Input: slowIn, Mapper: func() (Mapper, error) { return slowCountingMapper{n: &invoked}, nil }},
		},
		Output: &DiscardOutput{},
		// Retries disabled: this test is about how fast a PERMANENT failure
		// cancels siblings, not about the retry budget delaying the verdict.
		Config: Config{MaxParallelTasks: 2, MaxTaskRetries: -1},
	}
	if _, err := Run(job); err == nil {
		t.Fatal("failing job reported success")
	}
	// Without cancellation every slow record runs (10000); with it, the
	// in-flight task stops within a cancel-check window and queued splits
	// never start.
	if n := invoked.Load(); n > 5000 {
		t.Fatalf("siblings processed %d records after the failure; cancellation not effective", n)
	}
}

func TestEncodeDecodeValue(t *testing.T) {
	rec := textRecords("payload")[0]
	for _, v := range []interp.EmitValue{
		{D: serde.Int(-5)},
		{D: serde.String("x")},
		{Rec: rec},
	} {
		buf := encodeValue(v, nil)
		got, n, err := decodeValue(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("decode: %v (n=%d)", err, n)
		}
		if v.IsRecord() != got.IsRecord() {
			t.Fatal("record-ness lost")
		}
		if v.IsRecord() && !v.Rec.Equal(got.Rec) {
			t.Fatal("record mismatch")
		}
		if !v.IsRecord() && !v.D.Equal(got.D) {
			t.Fatal("datum mismatch")
		}
	}
}

// Reducers that do not drain their value iterator must not corrupt the
// group stream (drainGroup covers the remainder).
type firstOnlyReducer struct{}

func (firstOnlyReducer) Reduce(key serde.Datum, values interp.ValueIter, ctx *interp.Context) error {
	if values.Next() {
		return ctx.Emit(key, values.Value())
	}
	return nil
}

func TestPartialIterationReducer(t *testing.T) {
	in, err := NewMemInput(wordSchema, textRecords("a a a b b c"))
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "out.kv")
	kv, err := NewKVFileOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	job := &Job{
		Name:    "partial",
		Inputs:  []MapInput{{Input: in, Mapper: func() (Mapper, error) { return wordCountMapper{}, nil }}},
		Reducer: func() (Reducer, error) { return firstOnlyReducer{}, nil },
		Output:  kv,
		Config:  Config{WorkDir: t.TempDir(), NumReducers: 2},
	}
	if _, err := Run(job); err != nil {
		t.Fatal(err)
	}
	pairs, err := ReadKVFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 {
		t.Fatalf("got %d groups, want 3 (a, b, c)", len(pairs))
	}
}
