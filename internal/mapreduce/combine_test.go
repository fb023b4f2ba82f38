package mapreduce

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"manimal/internal/interp"
	"manimal/internal/serde"
)

// TestGroupedCombineMatchesNoCombine: a combiner job whose tiny spill
// buffer makes every task spill many small grouped runs over 3 reducers
// writes output byte-identical to the same job without a Combine.
func TestGroupedCombineMatchesNoCombine(t *testing.T) {
	var lines []string
	for i := 0; i < 400; i++ {
		var ws []string
		for w := 0; w < 1+i%6; w++ {
			ws = append(ws, fmt.Sprintf("w%02d", (i*7+w*13)%41))
		}
		lines = append(lines, strings.Join(ws, " "))
	}
	run := func(combine bool) []byte {
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
			Name:    "grouped",
			Inputs:  []MapInput{{Input: in, Mapper: func() (Mapper, error) { return wordCountMapper{}, nil }}},
			Reducer: func() (Reducer, error) { return sumReducer{}, nil },
			Output:  kv,
			// One task at a time: reduce partitions then reach the output in
			// partition order, so the bytes are comparable.
			Config: Config{WorkDir: t.TempDir(), NumReducers: 3, MaxParallelTasks: 1, SpillBufferBytes: 96},
		}
		if combine {
			job.Combiner = func() (Reducer, error) { return sumReducer{}, nil }
		}
		res, err := Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if spills, tasks := res.Counters.Get(CtrSpills), res.Counters.Get(CtrMapTasks); spills < 4*tasks {
			t.Fatalf("%d spills over %d tasks: the buffer did not force many spills", spills, tasks)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	with, without := run(true), run(false)
	if !bytes.Equal(with, without) {
		t.Fatalf("output with a Combine (%d bytes) differs from without (%d bytes)", len(with), len(without))
	}
}

// rekeyCombiner counts each group and emits the count under key(k), or
// nothing when key reports false.
type rekeyCombiner struct {
	key func(k int64) (int64, bool)
}

func (c rekeyCombiner) Reduce(key serde.Datum, values interp.ValueIter, ctx *interp.Context) error {
	var n int64
	for values.Next() {
		n += values.Value().D.Int()
	}
	if k, ok := c.key(key.Int()); ok {
		return ctx.Emit(serde.Int(k), interp.EmitValue{D: serde.Int(n)})
	}
	return nil
}

// mergedCounts merges partition 0 of se's spills, failing t unless the
// keys arrive in strictly ascending order, and returns each key's value.
func mergedCounts(t *testing.T, se *shuffleEmitter) map[int64]int64 {
	t.Helper()
	m, err := newMergeIter(se.files, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.closeAll()
	got := map[int64]int64{}
	var last []byte
	for m.nextGroup() {
		if last != nil && bytes.Compare(last, m.groupKey) >= 0 {
			t.Fatalf("merged keys out of order: %x after %x", m.groupKey, last)
		}
		last = append(last[:0], m.groupKey...)
		key, _, err := serde.DecodeSortKey(m.groupKey)
		if err != nil {
			t.Fatal(err)
		}
		for m.nextValue() {
			got[key.Int()] += m.curVal.D.Int()
		}
	}
	if m.err != nil {
		t.Fatal(m.err)
	}
	return got
}

// TestGroupedCombineResortsOutput: a combiner that re-keys its groups into
// descending order leaves its output unsorted, so the spill re-sorts it; one
// that drops groups keeps the rest in order. Either way the run is sorted.
func TestGroupedCombineResortsOutput(t *testing.T) {
	for _, tc := range []struct {
		name string
		key  func(k int64) (int64, bool)
	}{
		{"rekey", func(k int64) (int64, bool) { return 100 - k, true }},
		{"drop", func(k int64) (int64, bool) { return k, k%3 != 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			comb := func() (Reducer, error) { return rekeyCombiner{key: tc.key}, nil }
			se := newShuffleEmitter(0, 0, 1, t.TempDir(), 1<<30, comb, NewCounters(), nil, HashPartitioner{})
			defer se.discard()
			emit, err := se.emitter()
			if err != nil {
				t.Fatal(err)
			}
			want := map[int64]int64{}
			for i := int64(0); i < 600; i++ {
				k := (i * 37) % 50
				if err := emit(serde.Int(k), interp.EmitValue{D: serde.Int(1)}); err != nil {
					t.Fatal(err)
				}
				if ck, ok := tc.key(k); ok {
					want[ck]++
				}
			}
			if err := se.spill(); err != nil {
				t.Fatal(err)
			}
			got := mergedCounts(t, se)
			if len(got) != len(want) {
				t.Fatalf("%d combined keys, want %d", len(got), len(want))
			}
			for k, n := range want {
				if got[k] != n {
					t.Errorf("key %d = %d, want %d", k, got[k], n)
				}
			}
		})
	}
}

// recordingCombiner keeps, across all its calls, every group it was
// given: the key and the values in the order the iterator yielded them.
type recordingCombiner struct {
	keys []int64
	vals [][]int64
}

func (c *recordingCombiner) Reduce(key serde.Datum, values interp.ValueIter, ctx *interp.Context) error {
	c.keys = append(c.keys, key.Int())
	var vs []int64
	for values.Next() {
		vs = append(vs, values.Value().D.Int())
	}
	c.vals = append(c.vals, vs)
	return ctx.Emit(key, interp.EmitValue{D: serde.Int(int64(len(vs)))})
}

// TestGroupedCombineGroupOrder: the task's one combiner instance, member
// state and all, sees each spill's groups in ascending key order, every
// key emitted since the last spill exactly once, and each group's values
// in emission order.
func TestGroupedCombineGroupOrder(t *testing.T) {
	rc := &recordingCombiner{}
	se := newShuffleEmitter(0, 0, 1, t.TempDir(), 1<<30, func() (Reducer, error) { return rc, nil }, NewCounters(), nil, HashPartitioner{})
	defer se.discard()
	emit, err := se.emitter()
	if err != nil {
		t.Fatal(err)
	}
	seq := int64(0)
	for spill := 0; spill < 3; spill++ {
		emitted := map[int64]bool{}
		for i := 0; i < 200+100*spill; i++ {
			k := (seq * 29) % (17 + int64(spill)*11)
			emitted[k] = true
			if err := emit(serde.Int(k), interp.EmitValue{D: serde.Int(seq)}); err != nil {
				t.Fatal(err)
			}
			seq++
		}
		rc.keys, rc.vals = rc.keys[:0], rc.vals[:0]
		if err := se.spill(); err != nil {
			t.Fatal(err)
		}
		if len(rc.keys) != len(emitted) {
			t.Fatalf("spill %d: combiner saw %d groups, %d keys were emitted", spill, len(rc.keys), len(emitted))
		}
		for g, k := range rc.keys {
			if g > 0 && rc.keys[g-1] >= k {
				t.Fatalf("spill %d: group %d after group %d", spill, k, rc.keys[g-1])
			}
			if !emitted[k] {
				t.Fatalf("spill %d: group %d was never emitted", spill, k)
			}
			for j := 1; j < len(rc.vals[g]); j++ {
				if rc.vals[g][j-1] >= rc.vals[g][j] {
					t.Fatalf("spill %d, group %d: values %v not in emission order", spill, k, rc.vals[g])
				}
			}
		}
	}
}
