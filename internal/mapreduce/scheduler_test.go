package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"manimal/internal/interp"
	"manimal/internal/serde"
)

// concurrencyMapper tracks how many Map invocations are inside the pool at
// once, across every job sharing the same gauge.
type concurrencyMapper struct {
	cur, max *atomic.Int64
	sleep    time.Duration
}

func (m concurrencyMapper) Map(serde.Datum, *serde.Record, *interp.Context) error {
	c := m.cur.Add(1)
	for {
		old := m.max.Load()
		if c <= old || m.max.CompareAndSwap(old, c) {
			break
		}
	}
	time.Sleep(m.sleep)
	m.cur.Add(-1)
	return nil
}

func memJob(t testing.TB, name string, records int, mapper func() (Mapper, error), cfg Config) *Job {
	t.Helper()
	lines := make([]string, records)
	for i := range lines {
		lines[i] = "x"
	}
	in, err := NewMemInput(wordSchema, textRecords(lines...))
	if err != nil {
		t.Fatal(err)
	}
	return &Job{
		Name:   name,
		Inputs: []MapInput{{Input: in, Mapper: mapper}},
		Output: &DiscardOutput{},
		Config: cfg,
	}
}

// TestSchedulerSlotBudget: three jobs, each allowed 4 parallel tasks, must
// never occupy more than the scheduler's 2 slots combined — the per-job
// setting is a cap, the pool is global. Live status reads run throughout
// (the -race gate for concurrent counter snapshots).
func TestSchedulerSlotBudget(t *testing.T) {
	s := NewScheduler(2)
	var cur, max atomic.Int64
	mapper := func() (Mapper, error) {
		return concurrencyMapper{cur: &cur, max: &max, sleep: 2 * time.Millisecond}, nil
	}
	var execs []*Execution
	for j := 0; j < 3; j++ {
		e, err := s.Submit(context.Background(), memJob(t, fmt.Sprintf("job%d", j), 24, mapper, Config{MaxParallelTasks: 4}))
		if err != nil {
			t.Fatal(err)
		}
		execs = append(execs, e)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range execs {
				st := e.Status()
				if st.TasksDone > st.TasksTotal {
					t.Errorf("status reports %d/%d tasks", st.TasksDone, st.TasksTotal)
					return
				}
				_ = st.Counters["map.input.records"]
			}
		}
	}()
	for _, e := range execs {
		if _, err := e.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := max.Load(); got > 2 {
		t.Fatalf("observed %d concurrent map invocations with a 2-slot pool", got)
	}
	if hw := s.Stats().HighWater; hw > 2 {
		t.Fatalf("scheduler high-water %d exceeds 2 slots", hw)
	}
	if got := max.Load(); got < 2 {
		t.Fatalf("observed %d concurrent map invocations; pool never filled", got)
	}
}

// taskMarkMapper records when its task starts mapping (one mapper instance
// is created per task).
type taskMarkMapper struct {
	label   string
	rec     *taskRecorder
	sleep   time.Duration
	started bool
}

func (m *taskMarkMapper) Map(serde.Datum, *serde.Record, *interp.Context) error {
	if !m.started {
		m.started = true
		m.rec.mark(m.label)
	}
	time.Sleep(m.sleep)
	return nil
}

type taskEvent struct {
	label string
	at    time.Time
}

type taskRecorder struct {
	mu     sync.Mutex
	events []taskEvent
}

func (r *taskRecorder) mark(label string) {
	r.mu.Lock()
	r.events = append(r.events, taskEvent{label, time.Now()})
	r.mu.Unlock()
}

func (r *taskRecorder) count(label string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.label == label {
			n++
		}
	}
	return n
}

// TestSchedulerFairness: with one slot, a small job submitted while a big
// job is mid-map must interleave — its tasks run before the big job's
// remaining tasks, instead of queueing behind all of them (FIFO would
// start every B task after every A task).
func TestSchedulerFairness(t *testing.T) {
	s := NewScheduler(1)
	rec := &taskRecorder{}
	mk := func(label string, sleep time.Duration) func() (Mapper, error) {
		return func() (Mapper, error) {
			return &taskMarkMapper{label: label, rec: rec, sleep: sleep}, nil
		}
	}
	// A: 4 map tasks of ~125ms each (5 records × 25ms).
	a, err := s.Submit(context.Background(), memJob(t, "big", 18, mk("A", 25*time.Millisecond), Config{MaxParallelTasks: 2}))
	if err != nil {
		t.Fatal(err)
	}
	// Submit B once A is mapping (first A task has started).
	deadline := time.Now().Add(10 * time.Second)
	for rec.count("A") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job A never started mapping")
		}
		time.Sleep(time.Millisecond)
	}
	b, err := s.Submit(context.Background(), memJob(t, "small", 4, mk("B", time.Millisecond), Config{MaxParallelTasks: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var firstB, lastA time.Time
	for _, e := range rec.events {
		if e.label == "B" && firstB.IsZero() {
			firstB = e.at
		}
		if e.label == "A" {
			lastA = e.at
		}
	}
	if firstB.IsZero() {
		t.Fatal("no B task recorded")
	}
	if !firstB.Before(lastA) {
		t.Fatalf("small job's first task started only after the big job's last task: starved (firstB=%v lastA=%v)", firstB, lastA)
	}
}

// slowEmitMapper emits a counted word per record with a per-record delay.
type slowEmitMapper struct{ sleep time.Duration }

func (m slowEmitMapper) Map(k serde.Datum, _ *serde.Record, ctx *interp.Context) error {
	time.Sleep(m.sleep)
	return ctx.Emit(serde.String(fmt.Sprintf("w%d", k.Int()%32)), interp.EmitValue{D: serde.Int(1)})
}

// slowReducer sleeps per group, giving tests a window to cancel mid-reduce.
type slowReducer struct{ sleep time.Duration }

func (r slowReducer) Reduce(key serde.Datum, values interp.ValueIter, ctx *interp.Context) error {
	time.Sleep(r.sleep)
	var sum int64
	for values.Next() {
		sum += values.Value().D.Int()
	}
	return ctx.Emit(key, interp.EmitValue{D: serde.Int(sum)})
}

// submitShuffleJob builds a reduce job over `records` records with tunable
// map/reduce delays, returning the execution plus output and work paths.
func submitShuffleJob(t *testing.T, ctx context.Context, s *Scheduler, records int, mapSleep, reduceSleep time.Duration) (*Execution, string, string) {
	t.Helper()
	lines := make([]string, records)
	for i := range lines {
		lines[i] = "x"
	}
	in, err := NewMemInput(wordSchema, textRecords(lines...))
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
		Name:    "cancelable",
		Inputs:  []MapInput{{Input: in, Mapper: func() (Mapper, error) { return slowEmitMapper{sleep: mapSleep}, nil }}},
		Reducer: func() (Reducer, error) { return slowReducer{sleep: reduceSleep}, nil },
		Output:  kv,
		Config:  Config{WorkDir: work, NumReducers: 4, MaxParallelTasks: 2},
	}
	e, err := s.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	return e, out, work
}

// waitForPhase polls until the execution reports the phase (or fails the
// test after a generous timeout).
func waitForPhase(t *testing.T, e *Execution, want Phase) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := e.Status()
		if st.Phase == want {
			return
		}
		if st.Phase.Terminal() || time.Now().After(deadline) {
			t.Fatalf("waiting for phase %s: stuck at %s", want, st.Phase)
		}
		time.Sleep(time.Millisecond)
	}
}

func assertCanceledCleanup(t *testing.T, e *Execution, out, work string) {
	t.Helper()
	_, err := e.Wait()
	if err == nil {
		t.Fatal("canceled job reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in %v", err)
	}
	if st := e.Status(); st.Phase != PhaseCanceled {
		t.Fatalf("terminal phase = %s, want %s", st.Phase, PhaseCanceled)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("partial output survived cancellation (stat err = %v)", err)
	}
	left, err := os.ReadDir(work)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("WorkDir still holds %d spill files after cancellation", len(left))
	}
}

// TestCancelMidMapPhase: canceling while map tasks run must stop them
// promptly and leave no partial output or spill files behind. Each map
// call sleeps 1 ms, so a task that polled the context only between
// batches would run on for up to a batch of sleeps (memBatchRows ms)
// after the cancel.
func TestCancelMidMapPhase(t *testing.T) {
	s := NewScheduler(2)
	e, out, work := submitShuffleJob(t, context.Background(), s, 5000, time.Millisecond, 0)
	waitForPhase(t, e, PhaseMap)
	start := time.Now()
	e.Cancel()
	assertCanceledCleanup(t, e, out, work)
	if took, limit := time.Since(start), memBatchRows*time.Millisecond/2; took > limit {
		t.Fatalf("canceled job took %v to stop; want under %v", took, limit)
	}
}

// TestCancelMidReducePhase: cancellation via the submission context during
// the reduce phase cleans up the same way.
func TestCancelMidReducePhase(t *testing.T) {
	s := NewScheduler(2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e, out, work := submitShuffleJob(t, ctx, s, 400, 0, 50*time.Millisecond)
	waitForPhase(t, e, PhaseReduce)
	cancel()
	assertCanceledCleanup(t, e, out, work)
}

// TestCancelDuringAdmission: the startup delay is a cancellable admission
// wait, not an uninterruptible sleep.
func TestCancelDuringAdmission(t *testing.T) {
	s := NewScheduler(2)
	job := memJob(t, "delayed", 4, func() (Mapper, error) { return passMapper{}, nil },
		Config{StartupDelay: time.Minute})
	e, err := s.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	waitForPhase(t, e, PhasePending)
	start := time.Now()
	e.Cancel()
	if _, err := e.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("cancellation during admission took %v; delay not cancellable", waited)
	}
	if st := e.Status(); st.Phase != PhaseCanceled {
		t.Fatalf("terminal phase = %s", st.Phase)
	}
}

// TestExecutionStatusLifecycle: a successful run walks the phases in order
// and ends done with the result's counters visible through Status.
func TestExecutionStatusLifecycle(t *testing.T) {
	s := NewScheduler(2)
	e, out, _ := submitShuffleJob(t, context.Background(), s, 64, 0, 0)
	res, err := e.Wait()
	if err != nil {
		t.Fatal(err)
	}
	st := e.Status()
	if st.Phase != PhaseDone {
		t.Fatalf("terminal phase = %s, want done", st.Phase)
	}
	if st.Counters["map.input.records"] != 64 {
		t.Fatalf("status counters = %v", st.Counters)
	}
	if res.Counters.Get(CtrMapInputRecords) != 64 {
		t.Fatalf("result counters = %v", res.Counters.Snapshot())
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("output missing after done: %v", err)
	}
	if stats := s.Stats(); stats.ActiveJobs != 0 {
		t.Fatalf("scheduler still tracks %d jobs after completion", stats.ActiveJobs)
	}
}

// TestTenantQuota: a tenant capped at 1 slot must never hold more even
// with 4 pool slots free and a job allowed 4 parallel tasks — and a
// quota-free job submitted afterwards finishes first on the slots the
// quota leaves idle.
func TestTenantQuota(t *testing.T) {
	s := NewScheduler(4)
	s.SetTenantQuota("big", 1)
	var bigCur, bigMax atomic.Int64
	bigMapper := func() (Mapper, error) {
		return concurrencyMapper{cur: &bigCur, max: &bigMax, sleep: 5 * time.Millisecond}, nil
	}
	be, err := s.Submit(context.Background(), memJob(t, "big", 48, bigMapper, Config{MaxParallelTasks: 4, Tenant: "big"}))
	if err != nil {
		t.Fatal(err)
	}
	var smallCur, smallMax atomic.Int64
	smallMapper := func() (Mapper, error) {
		return concurrencyMapper{cur: &smallCur, max: &smallMax, sleep: time.Millisecond}, nil
	}
	se, err := s.Submit(context.Background(), memJob(t, "small", 16, smallMapper, Config{MaxParallelTasks: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := se.Wait(); err != nil {
		t.Fatal(err)
	}
	smallDone := time.Now()
	if _, err := be.Wait(); err != nil {
		t.Fatal(err)
	}
	bigDone := time.Now()
	if got := bigMax.Load(); got > 1 {
		t.Fatalf("quota-1 tenant reached %d concurrent map invocations", got)
	}
	st := s.Stats()
	ts, ok := st.Tenants["big"]
	if !ok || ts.Quota != 1 || ts.HighWater > 1 {
		t.Fatalf("tenant stats = %+v (present %v)", ts, ok)
	}
	if !smallDone.Before(bigDone) {
		t.Error("quota-free job queued behind the quota-bound tenant")
	}
}

// TestTenantQuotaRaiseUnblocks: raising a tenant's quota mid-run dispatches
// the tasks the old quota was holding back.
func TestTenantQuotaRaiseUnblocks(t *testing.T) {
	s := NewScheduler(4)
	s.SetTenantQuota("t", 1)
	var cur, max atomic.Int64
	mapper := func() (Mapper, error) {
		return concurrencyMapper{cur: &cur, max: &max, sleep: 5 * time.Millisecond}, nil
	}
	e, err := s.Submit(context.Background(), memJob(t, "grower", 48, mapper, Config{MaxParallelTasks: 4, Tenant: "t"}))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let it run quota-bound for a bit
	s.SetTenantQuota("t", 3)
	if _, err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := max.Load(); got < 2 {
		t.Fatalf("after raising the quota to 3, concurrency peaked at %d", got)
	}
	if hw := s.Stats().Tenants["t"].HighWater; hw > 3 {
		t.Fatalf("tenant high-water %d exceeds raised quota 3", hw)
	}
}
