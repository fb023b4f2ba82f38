package mapreduce

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"manimal/internal/interp"
	"manimal/internal/serde"
	"manimal/internal/storage"
)

// gate is a two-job rendezvous: each job's mapper arrives at it on the
// first batch of the file and waits there until the other job has arrived.
type gate struct {
	arrived [2]chan struct{}
	once    [2]sync.Once
}

func (g *gate) meet(job int) error {
	g.once[job].Do(func() { close(g.arrived[job]) })
	select {
	case <-g.arrived[1-job]:
		return nil
	case <-time.After(time.Minute):
		return errors.New("the other job's scan never reached the first batch")
	}
}

// idBucketMapper emits (id % 97, 1) for every row; with a gate, it first
// meets the other job at the file's first batch.
type idBucketMapper struct {
	gate *gate
	job  int
}

func (m idBucketMapper) Map(_ serde.Datum, rec *serde.Record, ctx *interp.Context) error {
	return ctx.Emit(serde.Int(rec.Int("id")%97), interp.EmitValue{D: serde.Int(1)})
}

func (m idBucketMapper) MapBatch(b *serde.Batch, ctx *interp.Context) error {
	if m.gate != nil && b.Base() == 0 {
		if err := m.gate.meet(m.job); err != nil {
			return err
		}
	}
	ids := b.Col(0).Ints()
	for _, row := range b.Sel() {
		if err := ctx.Emit(serde.Int(ids[row]%97), interp.EmitValue{D: serde.Int(1)}); err != nil {
			return err
		}
	}
	return nil
}

// TestScanShareGated: two identical jobs whose first map scans are held at
// the file's first batch until both have started must share that scan —
// whichever leads is still mid-range when the other subscribes — so each
// job counts a shared scan, and both outputs equal a private run's. The
// overlap comes from the gate, not from timing.
func TestScanShareGated(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "ids.rec")
	writePruneFile(t, data, 20000)
	job := func(name string, share *storage.ScanShare, m idBucketMapper) (*Job, string) {
		in, err := OpenFile(data, storage.DecodeTerms, nil, share)
		if err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, name+".kv")
		kv, err := NewKVFileOutput(out)
		if err != nil {
			t.Fatal(err)
		}
		return &Job{
			Name:    name,
			Inputs:  []MapInput{{Input: in, Mapper: func() (Mapper, error) { return m, nil }}},
			Reducer: func() (Reducer, error) { return sumReducer{}, nil },
			Output:  kv,
			Config: Config{WorkDir: filepath.Join(dir, name), NumReducers: 1, MaxParallelTasks: 1,
				SpeculativeSlowdown: -1},
		}, out
	}
	base, baseOut := job("private", nil, idBucketMapper{})
	if _, err := Run(base); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(baseOut)
	if err != nil {
		t.Fatal(err)
	}

	sched := NewScheduler(2)
	share := storage.NewScanShare()
	g := &gate{arrived: [2]chan struct{}{make(chan struct{}), make(chan struct{})}}
	var execs [2]*Execution
	var outs [2]string
	for i := range execs {
		var j *Job
		j, outs[i] = job([]string{"a", "b"}[i], share, idBucketMapper{gate: g, job: i})
		if execs[i], err = sched.Submit(context.Background(), j); err != nil {
			t.Fatal(err)
		}
	}
	for i, e := range execs {
		res, err := e.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if shared := res.Counters.Get(CtrScansShared); shared == 0 {
			t.Errorf("job %d: %s = 0; the gated scans did not share", i, CtrScansShared)
		}
		got, err := os.ReadFile(outs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("job %d: shared-scan output (%d bytes) differs from the private run's (%d bytes)", i, len(got), len(want))
		}
	}
}
