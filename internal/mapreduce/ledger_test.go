package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"manimal/internal/faultinject"
	"manimal/internal/interp"
	"manimal/internal/serde"
	"manimal/internal/storage"
)

// dataCounters are the counters a job's data determines: whatever retries
// and speculation happen, a job must report exactly these values.
var dataCounters = []string{
	CtrMapInputRecords, CtrMapOutputRecords, CtrBlocksRead, CtrBlocksSkipped,
	CtrRowsFiltered, CtrInputBytesRead, CtrOutputRecords,
}

// requireDataCounters fails the test unless got reports every data
// counter exactly as want does.
func requireDataCounters(t *testing.T, got, want *Counters) {
	t.Helper()
	for _, name := range dataCounters {
		if g, w := got.Get(name), want.Get(name); g != w {
			t.Errorf("%s = %d, fault-free run %d", name, g, w)
		}
	}
}

// strikeVictim is the id at which strikeMapper strikes: inside the pruned
// range of TestScanCountersExactUnderRetry, so part-way through a split.
const strikeVictim = 2100

// strikeMapper emits (id % 97, 1) for every row, after calling strike at
// the row whose id is strikeVictim. It maps rows only; strikeBatchMapper
// adds the batch door.
type strikeMapper struct{ strike func() error }

func (m strikeMapper) Map(_ serde.Datum, rec *serde.Record, ctx *interp.Context) error {
	return m.row(rec.Int("id"), ctx)
}

func (m strikeMapper) row(id int64, ctx *interp.Context) error {
	if id == strikeVictim {
		if err := m.strike(); err != nil {
			return err
		}
	}
	return ctx.Emit(serde.Int(id%97), interp.EmitValue{D: serde.Int(1)})
}

type strikeBatchMapper struct{ strikeMapper }

func (m strikeBatchMapper) MapBatch(b *serde.Batch, ctx *interp.Context) error {
	ids := b.Col(0).Ints()
	for _, row := range b.Sel() {
		if err := m.row(ids[row], ctx); err != nil {
			return err
		}
	}
	return nil
}

// TestScanCountersExactUnderRetry: a map attempt that fails after reading
// part of its split, and a speculative race whose loser has read part of
// its split, leave no trace in the job's counters. Through the row and the
// batch door alike, every data counter — the scan's blocks read and
// skipped, rows filtered and bytes read among them — equals the fault-free
// run's, because a scan's counts commit with the attempt that ran it.
func TestScanCountersExactUnderRetry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.rec")
	writePruneFile(t, path, 4000)
	r, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	blocks := r.NumBlocks()
	r.Close()
	run := func(t *testing.T, batches bool, slowdown float64, strike func(*Execution) error) *Execution {
		t.Helper()
		in, err := OpenFile(path, storage.DecodeTerms, &storage.Pushdown{Filter: idRange(300, 3700), Residual: true})
		if err != nil {
			t.Fatal(err)
		}
		var exe atomic.Pointer[Execution]
		var m Mapper = strikeMapper{strike: func() error {
			for exe.Load() == nil {
				time.Sleep(time.Millisecond)
			}
			return strike(exe.Load())
		}}
		if batches {
			m = strikeBatchMapper{m.(strikeMapper)}
		}
		e, err := NewScheduler(4).Submit(context.Background(), &Job{
			Name:    "strike",
			Inputs:  []MapInput{{Input: in, Mapper: func() (Mapper, error) { return m, nil }}},
			Reducer: func() (Reducer, error) { return sumReducer{}, nil },
			Output:  &DiscardOutput{},
			Config: Config{WorkDir: t.TempDir(), NumReducers: 2, MaxParallelTasks: 4,
				RetryBackoff: time.Millisecond, SpeculativeSlowdown: slowdown},
		})
		if err != nil {
			t.Fatal(err)
		}
		exe.Store(e)
		if _, err := e.Wait(); err != nil {
			t.Fatal(err)
		}
		return e
	}
	outcomes := func(e *Execution) map[string]int {
		n := map[string]int{}
		for _, a := range e.Status().Attempts {
			if a.Phase == PhaseMap {
				n[a.Outcome]++
			}
		}
		return n
	}
	for _, door := range []struct {
		name    string
		batches bool
	}{{"rows", false}, {"batches", true}} {
		t.Run(door.name, func(t *testing.T) {
			clean := run(t, door.batches, -1, func(*Execution) error { return nil })
			c := clean.Counters()
			if c.Get(CtrBlocksSkipped) == 0 || c.Get(CtrRowsFiltered) == 0 {
				t.Fatalf("the pushdown pruned nothing: %v", c.Snapshot())
			}
			// Planning's pruned blocks and the splits' scans cover the file once.
			if got := c.Get(CtrBlocksRead) + c.Get(CtrBlocksSkipped); got != int64(blocks) {
				t.Fatalf("blocks read + skipped = %d, the file has %d", got, blocks)
			}

			var failed atomic.Bool
			e := run(t, door.batches, -1, func(*Execution) error {
				if failed.CompareAndSwap(false, true) {
					return errors.New("injected failure part-way through the split")
				}
				return nil
			})
			if n := outcomes(e); n[AttemptRetried] != 1 {
				t.Errorf("failed attempt: map outcomes %v, want one retried", n)
			}
			requireDataCounters(t, e.Counters(), clean.Counters())

			// The first attempt to reach the victim stalls until a duplicate
			// has committed its task, then loses the race.
			var stalled atomic.Bool
			e = run(t, door.batches, 1, func(e *Execution) error {
				if !stalled.CompareAndSwap(false, true) {
					return nil
				}
				for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
					if st := e.Status(); st.Phase == PhaseMap && st.TasksDone == st.TasksTotal {
						return nil
					}
				}
				return errors.New("no speculative attempt committed the stalled task")
			})
			if n := outcomes(e); n[AttemptLost] != 1 {
				t.Errorf("speculative race: map outcomes %v, want one lost", n)
			}
			requireDataCounters(t, e.Counters(), clean.Counters())
		})
	}
}

// valueOrderMapper emits every record's text under its record index mod 3.
type valueOrderMapper struct{}

func (valueOrderMapper) Map(k serde.Datum, rec *serde.Record, ctx *interp.Context) error {
	return ctx.Emit(serde.Int(k.Int()%3), interp.EmitValue{D: serde.String(rec.Str("text"))})
}

// concatReducer joins a key's values, in the order they arrive.
type concatReducer struct{}

func (concatReducer) Reduce(key serde.Datum, values interp.ValueIter, ctx *interp.Context) error {
	var parts []string
	for values.Next() {
		parts = append(parts, values.Value().D.Str())
	}
	return ctx.Emit(key, interp.EmitValue{D: serde.String(strings.Join(parts, ","))})
}

// TestReduceValueOrderDeterministic: the values of a key reach Reduce in
// (map task, spill, emission) order — input order, here — however the map
// tasks' commits interleave. Twenty runs over four slots, with stragglers
// reordering the commits, all equal the one-slot run. Each spill holds far
// more pairs than an insertion sort handles, under interleaved keys, so
// the spill sort's own order of ties shows too.
func TestReduceValueOrderDeterministic(t *testing.T) {
	lines := make([]string, 400)
	for i := range lines {
		lines[i] = fmt.Sprint(i)
	}
	run := func(parallel int) string {
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
		if _, err := NewScheduler(4).Run(context.Background(), &Job{
			Name:    "value-order",
			Inputs:  []MapInput{{Input: in, Mapper: func() (Mapper, error) { return valueOrderMapper{}, nil }}},
			Reducer: func() (Reducer, error) { return concatReducer{}, nil },
			Output:  kv,
			Config:  Config{WorkDir: t.TempDir(), NumReducers: 1, MaxParallelTasks: parallel},
		}); err != nil {
			t.Fatal(err)
		}
		pairs, err := ReadKVFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var groups []string
		for _, p := range pairs {
			groups = append(groups, fmt.Sprintf("%d:%s", p.Key.Int(), p.Value.D.Str()))
		}
		return strings.Join(groups, " ")
	}
	var byKey [3][]string
	for i, l := range lines {
		byKey[i%3] = append(byKey[i%3], l)
	}
	inputOrder := fmt.Sprintf("0:%s 1:%s 2:%s",
		strings.Join(byKey[0], ","), strings.Join(byKey[1], ","), strings.Join(byKey[2], ","))
	want := run(1)
	if want != inputOrder {
		t.Fatalf("one-slot run gave %.120q…, want input order %.120q…", want, inputOrder)
	}
	faultinject.Set(faultinject.MustParse("straggle=0.5:5ms@map;seed=9"))
	defer faultinject.Reset()
	for i := 0; i < 20; i++ {
		if got := run(4); got != want {
			t.Fatalf("run %d gave %.120q…, want %.120q…", i, got, want)
		}
	}
}

// ledgerKeys is how many distinct keys TestReduceCountersExactUnderRetry
// shuffles into its two partitions: enough that each reduce task flushes
// its group counts part-way, before it ends.
const ledgerKeys = 4 * counterFlushEvery

// keyOnceMapper emits (rec.k, 1).
type keyOnceMapper struct{}

func (keyOnceMapper) Map(_ serde.Datum, rec *serde.Record, ctx *interp.Context) error {
	return ctx.Emit(rec.At(0), interp.EmitValue{D: serde.Int(1)})
}

// failingReducer sums like sumReducer, but fails at its failAt-th group
// while fail reports true.
type failingReducer struct {
	groups, failAt int
	fail           func() bool
}

func (r *failingReducer) Reduce(key serde.Datum, values interp.ValueIter, ctx *interp.Context) error {
	if r.groups++; r.groups == r.failAt && r.fail() {
		return errors.New("injected failure part-way through the partition")
	}
	return sumReducer{}.Reduce(key, values, ctx)
}

// TestReduceCountersExactUnderRetry: reduce tasks count their groups and
// values locally and flush them through the attempt's ledger, part-way and
// at the end. A reduce attempt that fails — at its start (the injected
// task fault reduce:0:0), or after a flush — and is retried leaves the
// job's reduce.input.* and output counts equal to a clean run's.
func TestReduceCountersExactUnderRetry(t *testing.T) {
	schema := serde.MustSchema(serde.Field{Name: "k", Kind: serde.KindInt64})
	recs := make([]*serde.Record, 2*ledgerKeys) // every key twice
	for i := range recs {
		recs[i] = serde.NewRecord(schema)
		recs[i].MustSet("k", serde.Int(int64(i%ledgerKeys)))
	}
	run := func(t *testing.T, reducer ReducerFactory) *Execution {
		t.Helper()
		in, err := NewMemInput(schema, recs)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewScheduler(2).Submit(context.Background(), &Job{
			Name:    "reduce-ledger",
			Inputs:  []MapInput{{Input: in, Mapper: func() (Mapper, error) { return keyOnceMapper{}, nil }}},
			Reducer: reducer,
			Output:  &DiscardOutput{},
			Config: Config{WorkDir: t.TempDir(), NumReducers: 2, MaxParallelTasks: 2,
				RetryBackoff: time.Millisecond, SpeculativeSlowdown: -1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Wait(); err != nil {
			t.Fatal(err)
		}
		return e
	}
	sum := func() (Reducer, error) { return sumReducer{}, nil }
	clean := run(t, sum).Counters()
	if g, v := clean.Get(CtrReduceInputGroups), clean.Get(CtrReduceInputRecords); g != ledgerKeys || v != 2*ledgerKeys {
		t.Fatalf("clean run: %d groups of %d values, want %d of %d", g, v, ledgerKeys, 2*ledgerKeys)
	}
	retried := func(t *testing.T, e *Execution) {
		t.Helper()
		n := 0
		for _, a := range e.Status().Attempts {
			if a.Phase == PhaseReduce && a.Outcome == AttemptRetried {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%d reduce attempts retried, want 1", n)
		}
		for _, name := range []string{CtrReduceInputGroups, CtrReduceInputRecords, CtrOutputRecords} {
			if g, w := e.Counters().Get(name), clean.Get(name); g != w {
				t.Errorf("%s = %d, clean run %d", name, g, w)
			}
		}
	}
	t.Run("injected", func(t *testing.T) {
		faultinject.Set(faultinject.MustParse("task=1@reduce:0:0;seed=1"))
		defer faultinject.Reset()
		retried(t, run(t, sum))
	})
	t.Run("after-flush", func(t *testing.T) {
		var failed atomic.Bool
		fail := func() bool { return failed.CompareAndSwap(false, true) }
		retried(t, run(t, func() (Reducer, error) {
			return &failingReducer{failAt: counterFlushEvery + 100, fail: fail}, nil
		}))
	})
}
