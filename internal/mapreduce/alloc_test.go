package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"manimal/internal/interp"
	"manimal/internal/serde"
)

// TestShuffleEmitAllocs gates the zero-allocation emit paths: once the
// partition slabs, tables, key scratch, and encoder scratches are warm,
// emitting a pair — scalar or record-valued, with or without a Combine,
// under a new key or a seen one — must not allocate.
func TestShuffleEmitAllocs(t *testing.T) {
	rec := serde.NewRecord(wordSchema)
	rec.MustSet("text", serde.String("the quick brown fox"))
	for name, val := range map[string]interp.EmitValue{
		"datum":  {D: serde.Int(1)},
		"record": {Rec: rec},
	} {
		t.Run(name, func(t *testing.T) {
			se := newShuffleEmitter(0, 0, 4, t.TempDir(), 1<<30, nil, false, NewCounters(), nil, HashPartitioner{})
			defer se.release()
			key := serde.String("alpha")
			// Warm the slab and scratch buffers well past what the measured
			// emits will append, so steady-state growth never reallocates.
			for i := 0; i < 8192; i++ {
				if err := se.emit(key, val); err != nil {
					t.Fatal(err)
				}
			}
			for p := range se.parts {
				se.parts[p].reset()
			}
			se.bytes = 0
			allocs := testing.AllocsPerRun(2000, func() {
				if err := se.emit(key, val); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0.01 {
				t.Fatalf("emit allocates %.3f objects per %s pair; want 0", allocs, name)
			}
		})
		t.Run("chained-"+name, func(t *testing.T) {
			comb := func() (Reducer, error) { return sumReducer{}, nil }
			se := newShuffleEmitter(0, 0, 4, t.TempDir(), 1<<30, comb, false, NewCounters(), nil, HashPartitioner{})
			defer se.discard()
			emit := se.emit
			keys := make([]serde.Datum, 4096)
			for i := range keys {
				keys[i] = serde.String(fmt.Sprintf("http://host-%04d/", i))
			}
			// Warm the tables and slabs to every key, twice over, then empty
			// them as a spill does, keeping their capacity.
			for i := 0; i < 2*len(keys); i++ {
				if err := emit(keys[i%len(keys)], val); err != nil {
					t.Fatal(err)
				}
			}
			for p := range se.parts {
				se.tables[p].reset()
				se.parts[p].reset()
			}
			se.bytes = 0
			next := 0
			misses := testing.AllocsPerRun(len(keys)-1, func() {
				if err := emit(keys[next], val); err != nil {
					t.Fatal(err)
				}
				next++
			})
			hits := testing.AllocsPerRun(len(keys), func() {
				if err := emit(keys[next%64], val); err != nil {
					t.Fatal(err)
				}
				next++
			})
			if misses > 0.01 || hits > 0.01 {
				t.Fatalf("a chained %s emit allocates %.3f objects on a new key, %.3f on a seen one; want 0", name, misses, hits)
			}
		})
	}
}

// TestTaskSinkEmitAllocs gates the shared-output task sink: once the chunk
// pool and the sink's frame scratch are warm, framing a pair into its
// chunks — scalar or record-valued, within a chunk or across a chunk
// boundary — must not allocate.
func TestTaskSinkEmitAllocs(t *testing.T) {
	rec := serde.NewRecord(wordSchema)
	rec.MustSet("text", serde.String("the quick brown fox"))
	for name, val := range map[string]interp.EmitValue{
		"datum":  {D: serde.Int(1)},
		"record": {Rec: rec},
	} {
		t.Run(name, func(t *testing.T) {
			s := &taskSink{shared: &sharedOutput{out: &DiscardOutput{}, held: map[int]*taskSink{}}}
			defer s.release()
			key := serde.String("alpha")
			// Fill several chunks and hand them back, so the measured emits
			// find pooled chunks and room in the sink's chunk list.
			for i := 0; i < 8192; i++ {
				if err := s.emit(key, val); err != nil {
					t.Fatal(err)
				}
			}
			if len(s.chunks) < 2 {
				t.Fatalf("warm-up filled %d chunk(s); want a chunk boundary", len(s.chunks))
			}
			s.release()
			allocs := testing.AllocsPerRun(8000, func() {
				if err := s.emit(key, val); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0.01 {
				t.Fatalf("emit allocates %.3f objects per %s pair; want 0", allocs, name)
			}
		})
	}
}

// TestGroupedSpillAllocs gates the grouped spill of a combiner job: once
// its table and scratches are warm, a spill allocates per spill and per
// distinct key, never per pair — spilling 16× the pairs over the same keys
// allocates no more.
func TestGroupedSpillAllocs(t *testing.T) {
	comb := func() (Reducer, error) { return sumReducer{}, nil }
	se := newShuffleEmitter(0, 0, 4, t.TempDir(), 1<<30, comb, false, NewCounters(), nil, HashPartitioner{})
	defer se.discard()
	emit := se.emit
	keys := make([]serde.Datum, 64)
	for i := range keys {
		keys[i] = serde.String(fmt.Sprintf("http://host-%02d/", i))
	}
	spillPairs := func(pairs int) {
		for i := 0; i < pairs; i++ {
			if err := emit(keys[(i*7)%len(keys)], interp.EmitValue{D: serde.Int(1)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := se.spill(); err != nil {
			t.Fatal(err)
		}
		for _, sf := range se.files {
			sf.release()
		}
		se.files = se.files[:0]
	}
	spillPairs(16384) // warm every scratch to the larger size
	few := testing.AllocsPerRun(20, func() { spillPairs(1024) })
	many := testing.AllocsPerRun(20, func() { spillPairs(16384) })
	// AllocsPerRun counts the whole process's allocations, so a goroutine a
	// previous test left behind may add a stray one; per-pair growth would
	// add thousands.
	if many > few+2 {
		t.Fatalf("a grouped spill of 16384 pairs allocates %.1f objects, of 1024 pairs %.1f; want no growth with the pair count", many, few)
	}
}

// TestMergeValueAllocsScalar gates the reduce-side merge: iterating a
// spilled partition's scalar values must not allocate per value (the
// cursor k/v buffers and the group key are reused).
func TestMergeValueAllocsScalar(t *testing.T) {
	se := newShuffleEmitter(0, 0, 1, t.TempDir(), 1<<30, nil, false, NewCounters(), nil, HashPartitioner{})
	defer se.release()
	for i := 0; i < 3000; i++ {
		if err := se.emit(serde.Int(int64(i%7)), interp.EmitValue{D: serde.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := se.spill(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, sf := range se.files {
			sf.release()
		}
	}()
	m, err := newMergeIter(se.files, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.closeAll()
	if !m.nextGroup() {
		t.Fatal("no groups")
	}
	n := 0
	allocs := testing.AllocsPerRun(2000, func() {
		if !m.nextValue() && !m.nextGroup() {
			t.Fatal("merge exhausted early")
		}
		n++
	})
	if allocs > 0.05 {
		t.Fatalf("merge allocates %.3f objects per scalar value; want ~0", allocs)
	}
}

// TestSpillFdBudgetAndReopen forces a task past its open-handle budget and
// checks that budget-closed spill files are transparently reopened by the
// merge, and that per-partition consumption deletes every file. Every value
// is larger than memSpillMax, so every spill goes to disk.
func TestSpillFdBudgetAndReopen(t *testing.T) {
	se := newShuffleEmitter(0, 0, 2, t.TempDir(), 1, nil, false, NewCounters(), nil, HashPartitioner{})
	defer se.release()
	big := interp.EmitValue{D: serde.String(strings.Repeat("x", memSpillMax))}
	total := spillKeepOpenPerTask + 8 // threshold 1 → one spill file per emit
	for i := 0; i < total; i++ {
		if err := se.emit(serde.Int(int64(i)), big); err != nil {
			t.Fatal(err)
		}
	}
	if len(se.files) != total {
		t.Fatalf("got %d spill files, want %d", len(se.files), total)
	}
	closed := 0
	for _, sf := range se.files {
		if sf.f == nil {
			closed++
		}
	}
	if closed != total-spillKeepOpenPerTask {
		t.Fatalf("%d handles closed under the budget, want %d", closed, total-spillKeepOpenPerTask)
	}
	seen := 0
	for p := 0; p < 2; p++ {
		m, err := newMergeIter(se.files, p)
		if err != nil {
			t.Fatal(err)
		}
		for m.nextGroup() {
			for m.nextValue() {
				seen++
			}
		}
		if m.err != nil {
			t.Fatal(m.err)
		}
		m.closeAll()
		for _, sf := range se.files {
			sf.consumed(p)
		}
	}
	if seen != total {
		t.Fatalf("merged %d values across partitions, want %d", seen, total)
	}
	for _, sf := range se.files {
		if _, err := os.Stat(sf.path); !os.IsNotExist(err) {
			t.Fatalf("spill file %s not removed after all partitions consumed it (stat err = %v)", sf.path, err)
		}
	}
}

// TestSlabShuffleDifferential pins the slab shuffle's output to an
// independently computed reference on the multi-spill + combiner workload,
// and asserts the output bytes are identical no matter how the buffered
// pairs were cut into spills (many tiny spills vs one big one).
func TestSlabShuffleDifferential(t *testing.T) {
	var lines []string
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	expected := map[string]int64{}
	for i := 0; i < 240; i++ {
		l := ""
		for w := 0; w <= i%4; w++ {
			word := words[(i+w*3)%len(words)]
			expected[word]++
			if l != "" {
				l += " "
			}
			l += word
		}
		lines = append(lines, l)
	}

	runOnce := func(spillBytes int) (string, []byte) {
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
			Name:     "differential",
			Inputs:   []MapInput{{Input: in, Mapper: func() (Mapper, error) { return wordCountMapper{}, nil }}},
			Reducer:  func() (Reducer, error) { return sumReducer{}, nil },
			Combiner: func() (Reducer, error) { return sumReducer{}, nil },
			Output:   kv,
			// One reducer and one worker: output order is then fully
			// determined by key order, making byte comparison meaningful.
			Config: Config{WorkDir: t.TempDir(), NumReducers: 1, MaxParallelTasks: 1, SpillBufferBytes: spillBytes},
		}
		res, err := Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if spillBytes < 1024 {
			if spills := res.Counters.Get(CtrSpills); spills < 2 {
				t.Fatalf("spills = %d; tiny buffer did not force a multi-spill run", spills)
			}
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return out, raw
	}

	multiPath, multiRaw := runOnce(128) // many spills per task
	_, singleRaw := runOnce(1 << 30)    // one spill at task end
	if !bytes.Equal(multiRaw, singleRaw) {
		t.Fatalf("multi-spill output (%d bytes) differs from single-spill output (%d bytes)", len(multiRaw), len(singleRaw))
	}

	pairs, err := ReadKVFile(multiPath)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, p := range pairs {
		got[p.Key.Str()] = p.Value.D.Int()
	}
	if len(got) != len(expected) {
		t.Fatalf("got %d distinct words, want %d", len(got), len(expected))
	}
	for w, n := range expected {
		if got[w] != n {
			t.Errorf("count[%s] = %d, want %d", w, got[w], n)
		}
	}
}

// TestSlabShuffleRecordValues runs record-valued pairs through the full
// sort/spill/merge cycle (exercising the schema cache and the slab value
// encoder) and checks every record survives byte-exactly.
func TestSlabShuffleRecordValues(t *testing.T) {
	in, err := NewMemInput(wordSchema, textRecords("a b", "b c", "c a", "a c"))
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "out.kv")
	kv, err := NewKVFileOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	job := &Job{
		Name:    "recvals",
		Inputs:  []MapInput{{Input: in, Mapper: func() (Mapper, error) { return recordEchoMapper{}, nil }}},
		Reducer: func() (Reducer, error) { return recordConcatReducer{}, nil },
		Output:  kv,
		Config:  Config{WorkDir: t.TempDir(), NumReducers: 2, SpillBufferBytes: 64},
	}
	if _, err := Run(job); err != nil {
		t.Fatal(err)
	}
	pairs, err := ReadKVFile(out)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, p := range pairs {
		got[p.Key.Str()] = p.Value.D.Str()
	}
	want := map[string]string{
		// Each word keys the sorted multiset of the lines that contain it.
		"a": "a b|a c|c a",
		"b": "a b|b c",
		"c": "a c|b c|c a",
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("group %q = %q, want %q", k, got[k], v)
		}
	}
}

// recordEchoMapper emits (word, whole input record) for every word.
type recordEchoMapper struct{}

func (recordEchoMapper) Map(_ serde.Datum, rec *serde.Record, ctx *interp.Context) error {
	word := ""
	text := rec.Str("text")
	for i := 0; i <= len(text); i++ {
		if i == len(text) || text[i] == ' ' {
			if word != "" {
				if err := ctx.Emit(serde.String(word), interp.EmitValue{Rec: rec}); err != nil {
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

// recordConcatReducer emits the sorted concatenation of each group's
// record text fields, so any corruption or loss in the record value path
// shows up in the output.
type recordConcatReducer struct{}

func (recordConcatReducer) Reduce(key serde.Datum, values interp.ValueIter, ctx *interp.Context) error {
	var texts []string
	for values.Next() {
		v := values.Value()
		if v.Rec == nil {
			return fmt.Errorf("expected record value")
		}
		texts = append(texts, v.Rec.Str("text"))
	}
	for i := range texts {
		for j := i + 1; j < len(texts); j++ {
			if texts[j] < texts[i] {
				texts[i], texts[j] = texts[j], texts[i]
			}
		}
	}
	joined := ""
	for i, s := range texts {
		if i > 0 {
			joined += "|"
		}
		joined += s
	}
	return ctx.Emit(key, interp.EmitValue{D: serde.String(joined)})
}

// readMapper is a Go Mapper with no MapBatch that reads each row's string.
type readMapper struct{ bytes *int }

func (m readMapper) Map(_ serde.Datum, rec *serde.Record, _ *interp.Context) error {
	*m.bytes += len(rec.At(0).Str())
	return nil
}

// TestRowMapperAllocs gates the engine's row adapter for Go Mappers (the
// serde.Rows walk, its cancel polls and the row keys): mapping a warm
// batch must not allocate.
func TestRowMapperAllocs(t *testing.T) {
	lines := make([]string, memBatchRows)
	for i := range lines {
		lines[i] = fmt.Sprintf("line %d", i)
	}
	in, err := NewMemInput(wordSchema, textRecords(lines...))
	if err != nil {
		t.Fatal(err)
	}
	splits, _, err := in.Splits(1)
	if err != nil {
		t.Fatal(err)
	}
	it, err := splits[0].OpenBatch()
	if err != nil {
		t.Fatal(err)
	}
	if !it.Next() {
		t.Fatal("empty split")
	}
	b := it.Batch()
	var n int
	rm := &rowMapper{m: readMapper{bytes: &n}, ctx: context.Background()}
	if err := rm.MapBatch(b, nil); err != nil { // first batch sizes the record
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := rm.MapBatch(b, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.05 {
		t.Fatalf("rowMapper allocates %.3f objects per %d-row batch; want 0", allocs, b.Len())
	}
}
