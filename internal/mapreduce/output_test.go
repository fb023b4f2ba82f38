package mapreduce

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"manimal/internal/faultinject"
	"manimal/internal/interp"
	"manimal/internal/serde"
)

// kvFileBytes wraps body in a KV file's magic and a trailer claiming count
// pairs.
func kvFileBytes(count uint64, body []byte) []byte {
	b := append([]byte(kvMagic), body...)
	b = binary.LittleEndian.AppendUint64(b, count)
	return append(b, kvMagic...)
}

// kvFrame frames payload with the given key and value lengths, which need
// not match it.
func kvFrame(kl, vl int, payload ...[]byte) []byte {
	b := binary.AppendUvarint(nil, uint64(kl))
	b = binary.AppendUvarint(b, uint64(vl))
	for _, p := range payload {
		b = append(b, p...)
	}
	return b
}

func writeTemp(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.kv")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadKVFileRejectsMalformed(t *testing.T) {
	kb := serde.Int(7).AppendTagged(nil)
	vb := encodeValue(interp.EmitValue{D: serde.String("v")}, nil)
	good := kvFrame(len(kb), len(vb), kb, vb)
	pairs, err := ReadKVFile(writeTemp(t, kvFileBytes(2, append(append([]byte(nil), good...), good...))))
	if err != nil || len(pairs) != 2 || pairs[1].Key.Int() != 7 || pairs[1].Value.D.Str() != "v" {
		t.Fatalf("well-formed file: %d pairs, err %v", len(pairs), err)
	}
	for _, c := range []struct {
		name string
		file []byte
	}{
		{"count beyond what the body holds", kvFileBytes(1<<62, good)},
		{"key length past the body", kvFileBytes(1, []byte{0xff, 0x7f, 0x00})},
		{"value length into the trailer", kvFileBytes(1, kvFrame(len(kb), len(vb)+8, kb, vb))},
		{"key shorter than its frame", kvFileBytes(1, kvFrame(len(kb)+1, len(vb), kb, []byte{0}, vb))},
		{"value shorter than its frame", kvFileBytes(1, kvFrame(len(kb), len(vb)+1, kb, vb, []byte{0}))},
		{"bytes after the last pair", kvFileBytes(1, append(append([]byte(nil), good...), good...))},
		{"fewer pairs than counted", kvFileBytes(2, good)},
		{"bad value tag", kvFileBytes(1, kvFrame(len(kb), 1, kb, []byte{9}))},
		{"unterminated length", kvFileBytes(1, []byte{0x80, 0x80, 0x80, 0x80})},
		{"short trailer", []byte(kvMagic + kvMagic)},
	} {
		t.Run(c.name, func(t *testing.T) {
			pairs, err := ReadKVFile(writeTemp(t, c.file))
			if !errors.Is(err, ErrMalformedKVFile) {
				t.Fatalf("got %d pairs, err %v; want ErrMalformedKVFile", len(pairs), err)
			}
		})
	}
}

// TestKVFileOutputDeferred pins where the KV output's file appears: not
// before the first Write, never after an Abort of an unwritten output, and
// as a valid empty file when an unwritten output is closed.
func TestKVFileOutputDeferred(t *testing.T) {
	entries := func(dir string) []string {
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, de := range des {
			names = append(names, de.Name())
		}
		return names
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "out.kv")
	o, err := NewKVFileOutput(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := entries(dir); len(got) != 0 {
		t.Fatalf("before the first Write: %v", got)
	}
	if err := o.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := entries(dir); len(got) != 0 {
		t.Fatalf("after aborting an unwritten output: %v", got)
	}

	o, _ = NewKVFileOutput(path)
	if err := o.Write(serde.Int(1), interp.EmitValue{D: serde.Int(2)}); err != nil {
		t.Fatal(err)
	}
	if got := entries(dir); len(got) != 1 || got[0] == "out.kv" {
		t.Fatalf("after the first Write: %v; want one temp file", got)
	}
	if err := o.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := entries(dir); len(got) != 0 {
		t.Fatalf("after aborting a written output: %v", got)
	}

	o, _ = NewKVFileOutput(path)
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if got := entries(dir); len(got) != 1 || got[0] != "out.kv" {
		t.Fatalf("after closing an unwritten output: %v", got)
	}
	pairs, err := ReadKVFile(path)
	if err != nil || len(pairs) != 0 {
		t.Fatalf("closed unwritten output reads %d pairs, err %v", len(pairs), err)
	}
}

// FuzzReadKVFile feeds arbitrary bytes, seeded from real KV outputs, to
// ReadKVFile: it must decode them or fail with ErrMalformedKVFile, never
// panic, and allocate at most a small multiple of the file's size.
func FuzzReadKVFile(f *testing.F) {
	rec := serde.NewRecord(wordSchema)
	rec.MustSet("text", serde.String("hello world"))
	path := filepath.Join(f.TempDir(), "seed.kv")
	o, _ := NewKVFileOutput(path)
	for i, p := range []struct {
		k serde.Datum
		v interp.EmitValue
	}{
		{serde.Int(1), interp.EmitValue{D: serde.String("v1")}},
		{serde.String("k2"), interp.EmitValue{Rec: rec}},
		{serde.Float(2.5), interp.EmitValue{D: serde.Bool(true)}},
		{serde.Bytes([]byte{0, 1}), interp.EmitValue{Rec: rec}},
	} {
		if err := o.Write(p.k, p.v); err != nil {
			f.Fatal(i, err)
		}
	}
	if err := o.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(kvFileBytes(0, nil))
	f.Add(kvFileBytes(1<<62, seed[len(kvMagic):len(seed)-len(kvMagic)-8]))
	f.Add(kvFileBytes(1, []byte{0xff, 0x7f, 0x00}))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := writeTemp(t, data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadKVFile(path)
		runtime.ReadMemStats(&after)
		if err != nil && !errors.Is(err, ErrMalformedKVFile) {
			t.Fatalf("err = %v; want nil or ErrMalformedKVFile", err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+1<<20 {
			t.Fatalf("reading a %d-byte file allocated %d bytes", len(data), grew)
		}
	})
}

// TestSharedOutputPartitionOrder: a reduce job's one shared output holds
// its partitions in partition order, whatever order the reduce tasks
// commit in. Twenty runs over four slots, with reduce task 0 straggling so
// that the other partitions commit first, are byte-equal to the one-slot
// run. A map-only job's output follows its split order the same way.
func TestSharedOutputPartitionOrder(t *testing.T) {
	lines := make([]string, 300)
	for i := range lines {
		lines[i] = fmt.Sprintf("w%03d w%03d w%03d", i%97, (i*7)%89, (i*13)%83)
	}
	run := func(parallel int, mapOnly bool) []byte {
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
		job := &Job{
			Name:    "partition-order",
			Inputs:  []MapInput{{Input: in, Mapper: func() (Mapper, error) { return wordCountMapper{}, nil }}},
			Reducer: func() (Reducer, error) { return sumReducer{}, nil },
			Output:  kv,
			Config:  Config{WorkDir: t.TempDir(), NumReducers: 4, MaxParallelTasks: parallel},
		}
		if mapOnly {
			job.Reducer = nil
		}
		if _, err := NewScheduler(4).Run(context.Background(), job); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for _, tc := range []struct {
		name    string
		mapOnly bool
		faults  string
	}{
		{"reduce", false, "straggle=1.0:20ms@reduce:0:;seed=3"},
		{"map-only", true, "straggle=1.0:20ms@map:0:;seed=3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := run(1, tc.mapOnly)
			faultinject.Set(faultinject.MustParse(tc.faults))
			defer faultinject.Reset()
			for i := 0; i < 20; i++ {
				if got := run(4, tc.mapOnly); !bytes.Equal(got, want) {
					t.Fatalf("run %d: output (%d bytes) differs from the one-slot run (%d bytes)", i, len(got), len(want))
				}
			}
		})
	}
}

// framedSchema is the input of framedMapper.
var framedSchema = serde.MustSchema(
	serde.Field{Name: "id", Kind: serde.KindInt64},
	serde.Field{Name: "size", Kind: serde.KindInt64},
)

// framedValue is a size-byte value whose bytes differ from one id to the
// next, so a pair out of place changes the output's bytes.
func framedValue(id int64, size int) interp.EmitValue {
	return interp.EmitValue{D: serde.String(strings.Repeat(string(rune('a'+id%26)), size))}
}

// framedVictim is the record at which framedMapper strikes: the third of
// its split, so the striking attempt has framed pairs before it.
const framedVictim = 27

// framedMapper emits (id, framedValue(id, size)) for every record whose
// size is not negative. strike, when set, runs first at framedVictim.
type framedMapper struct {
	strike func(ctx *interp.Context) error
}

func (m framedMapper) Map(_ serde.Datum, rec *serde.Record, ctx *interp.Context) error {
	id, size := rec.Int("id"), rec.Int("size")
	if id == framedVictim && m.strike != nil {
		if err := m.strike(ctx); err != nil {
			return err
		}
	}
	if size < 0 {
		return nil
	}
	return ctx.Emit(serde.Int(id), framedValue(id, int(size)))
}

// emitPoison frames a pair no clean run emits, so output that holds a
// dropped attempt's bytes differs from the expected.
func emitPoison(ctx *interp.Context) error {
	return ctx.Emit(serde.String("poison"), framedValue(-1, 3000))
}

// TestFramedCommitMatchesPairwise: a map-only job's shared output, which
// writes each task's framed chunks as they are, is byte-identical to a
// KVFileOutput fed the same pairs through Write — with a value larger than
// one chunk, frames straddling chunk boundaries and a task that emits
// nothing; with tasks committing out of order; and when attempts that
// framed pairs (a poison pair among them) fail and are retried, or lose a
// speculative race.
func TestFramedCommitMatchesPairwise(t *testing.T) {
	// Eight splits of five records: record 5's value spans four chunks,
	// the others (1–2.5 KiB) straddle chunk boundaries, and the third
	// split (ids 10–14) emits nothing.
	recs := make([]*serde.Record, 40)
	for i := range recs {
		size := int64(1000 + 37*i)
		switch {
		case i == 5:
			size = 3*outChunkSize + 1234
		case i >= 10 && i < 15:
			size = -1
		}
		recs[i] = serde.NewRecord(framedSchema)
		recs[i].MustSet("id", serde.Int(int64(i)))
		recs[i].MustSet("size", serde.Int(size))
	}
	wantPath := filepath.Join(t.TempDir(), "want.kv")
	want, _ := NewKVFileOutput(wantPath)
	for _, r := range recs {
		if size := r.Int("size"); size >= 0 {
			if err := want.Write(serde.Int(r.Int("id")), framedValue(r.Int("id"), int(size))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := want.Close(); err != nil {
		t.Fatal(err)
	}
	wantBytes, err := os.ReadFile(wantPath)
	if err != nil {
		t.Fatal(err)
	}

	run := func(t *testing.T, m framedMapper, slowdown float64, exe *atomic.Pointer[Execution]) *Execution {
		t.Helper()
		in, err := NewMemInput(framedSchema, recs)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "out.kv")
		kv, _ := NewKVFileOutput(path)
		e, err := NewScheduler(4).Submit(context.Background(), &Job{
			Name:   "framed",
			Inputs: []MapInput{{Input: in, Mapper: func() (Mapper, error) { return m, nil }}},
			Output: kv,
			Config: Config{MaxParallelTasks: 4, RetryBackoff: time.Millisecond, SpeculativeSlowdown: slowdown},
		})
		if err != nil {
			t.Fatal(err)
		}
		if exe != nil {
			exe.Store(e)
		}
		if _, err := e.Wait(); err != nil {
			t.Fatal(err)
		}
		if n := e.Counters().Get(CtrMapTasks); n != 8 {
			t.Fatalf("%d map tasks; want 8", n)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantBytes) {
			t.Fatalf("framed output (%d bytes) differs from the pairwise write (%d bytes)", len(got), len(wantBytes))
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

	t.Run("clean", func(t *testing.T) {
		run(t, framedMapper{}, -1, nil)
	})
	t.Run("out-of-order-and-retried", func(t *testing.T) {
		// Task 0 straggles so that later tasks commit first and are held;
		// task 3's first attempt fails at its start.
		faultinject.Set(faultinject.MustParse("straggle=1.0:30ms@map:0:,task=1.0@map:3:0;seed=3"))
		defer faultinject.Reset()
		var failed atomic.Bool
		e := run(t, framedMapper{strike: func(ctx *interp.Context) error {
			if !failed.CompareAndSwap(false, true) {
				return nil
			}
			if err := emitPoison(ctx); err != nil {
				return err
			}
			return errors.New("injected failure after framing pairs")
		}}, -1, nil)
		if n := outcomes(e); n[AttemptRetried] != 2 {
			t.Errorf("map outcomes %v; want two retried", n)
		}
	})
	t.Run("speculative-loser", func(t *testing.T) {
		// The first attempt at the victim frames a poison pair, then stalls
		// until a duplicate has committed its task, and loses the race.
		var exe atomic.Pointer[Execution]
		var stalled atomic.Bool
		e := run(t, framedMapper{strike: func(ctx *interp.Context) error {
			if !stalled.CompareAndSwap(false, true) {
				return nil
			}
			if err := emitPoison(ctx); err != nil {
				return err
			}
			for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if e := exe.Load(); e != nil {
					if st := e.Status(); st.Phase == PhaseMap && st.TasksDone == st.TasksTotal {
						return nil
					}
				}
			}
			return errors.New("no speculative attempt committed the stalled task")
		}}, 1, &exe)
		if n := outcomes(e); n[AttemptLost] != 1 {
			t.Errorf("map outcomes %v; want one lost", n)
		}
	})
}

// FuzzFramedCommit frames pairs of fuzzed sizes through task sinks, splits
// them into fuzzed tasks (empty ones included), and commits the tasks to
// a shared KV output in a seeded random order, each after a dropped
// attempt that framed other bytes into the pooled chunks. The output must
// be byte-identical to a KVFileOutput fed the same pairs through Write.
func FuzzFramedCommit(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{1}, int64(1))
	f.Add([]byte{255, 90, 0, 17, 200, 3}, []byte{0, 0, 4, 9}, int64(7))
	f.Add([]byte{148, 148, 148, 148}, []byte{2}, int64(3))
	f.Fuzz(func(t *testing.T, sizes, cuts []byte, seed int64) {
		if len(sizes) > 64 || len(cuts) > 16 {
			t.Skip("bounded so each input stays small")
		}
		// A size byte b frames a value of 3b² bytes: up to about three chunks.
		value := func(i int) interp.EmitValue { return framedValue(int64(i), 3*int(sizes[i])*int(sizes[i])) }
		dir := t.TempDir()
		want, _ := NewKVFileOutput(filepath.Join(dir, "want.kv"))
		for i := range sizes {
			if err := want.Write(serde.Int(int64(i)), value(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := want.Close(); err != nil {
			t.Fatal(err)
		}

		bounds := []int{0}
		for _, c := range cuts {
			bounds = append(bounds, int(c)%(len(sizes)+1))
		}
		sort.Ints(bounds)
		bounds = append(bounds, len(sizes))
		kv, _ := NewKVFileOutput(filepath.Join(dir, "got.kv"))
		shared := &sharedOutput{out: kv, held: map[int]*taskSink{}}
		sinks := make([]*taskSink, len(bounds)-1)
		for task := range sinks {
			lo, hi := bounds[task], bounds[task+1]
			loser := &taskSink{shared: shared, task: task}
			for i := hi - 1; i >= lo; i-- {
				if err := loser.emit(serde.String("poison"), value(i)); err != nil {
					t.Fatal(err)
				}
			}
			loser.abort()
			sinks[task] = &taskSink{shared: shared, task: task}
			for i := lo; i < hi; i++ {
				if err := sinks[task].emit(serde.Int(int64(i)), value(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, task := range rand.New(rand.NewSource(seed)).Perm(len(sinks)) {
			if err := shared.commit(sinks[task]); err != nil {
				t.Fatal(err)
			}
		}
		if len(shared.held) != 0 {
			t.Fatalf("%d tasks still held after every task committed", len(shared.held))
		}
		if err := kv.Close(); err != nil {
			t.Fatal(err)
		}
		wantBytes, err := os.ReadFile(filepath.Join(dir, "want.kv"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "got.kv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantBytes) {
			t.Fatalf("framed commit (%d bytes) differs from the pairwise write (%d bytes)", len(got), len(wantBytes))
		}
	})
}
