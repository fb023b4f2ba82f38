package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"manimal/internal/storage"
)

// Phase names the stations of a job's task graph. A job moves through
// pending (admission) → plan → map → reduce → commit and ends in one of
// the terminal phases done, failed, or canceled; map-only jobs skip reduce.
type Phase string

// Job phases, in lifecycle order.
const (
	PhasePending  Phase = "pending"
	PhasePlan     Phase = "plan"
	PhaseMap      Phase = "map"
	PhaseReduce   Phase = "reduce"
	PhaseCommit   Phase = "commit"
	PhaseDone     Phase = "done"
	PhaseFailed   Phase = "failed"
	PhaseCanceled Phase = "canceled"
)

// Terminal reports whether the phase is an end state.
func (p Phase) Terminal() bool {
	return p == PhaseDone || p == PhaseFailed || p == PhaseCanceled
}

// Attempt outcomes recorded in AttemptRecord.Outcome.
const (
	// AttemptSucceeded committed the task.
	AttemptSucceeded = "success"
	// AttemptFailed failed the task permanently (it also fails the job
	// unless a sibling attempt had already committed).
	AttemptFailed = "failed"
	// AttemptRetried failed transiently; a relaunch was scheduled.
	AttemptRetried = "retried"
	// AttemptLost finished after a sibling attempt had already committed
	// the task (the losing side of a speculative race, or a canceled
	// duplicate). Not an error.
	AttemptLost = "lost"
)

// AttemptRecord is the history entry of one task attempt, exposed through
// Status.Attempts so job status can show what fault tolerance did.
type AttemptRecord struct {
	Phase   Phase
	Task    int
	Attempt int
	// Speculative marks duplicate attempts launched for stragglers.
	Speculative bool
	Start       time.Time
	Duration    time.Duration
	Outcome     string
	// Error is the attempt's error text ("" on success or loss).
	Error string
}

// Status is a point-in-time snapshot of one execution, safe to read while
// the job is running (counters are snapshotted through Counters.Snapshot,
// which task-side batched increments feed as they flush).
type Status struct {
	Job   string
	Phase Phase
	// TasksDone / TasksTotal report progress through the current phase's
	// tasks (the terminal phases keep the last phase's totals).
	TasksDone  int
	TasksTotal int
	Counters   map[string]int64
	Duration   time.Duration
	// Attempts is the per-task attempt history across phases, in
	// completion order. Jobs where fault tolerance never engaged show one
	// "success" record per task.
	Attempts []AttemptRecord
	// Err is the terminal error (set once Phase is failed or canceled).
	Err error
}

// Scheduler multiplexes many jobs over one bounded pool of task slots —
// the process-wide "cluster". Each slot runs one task attempt (plan, map,
// reduce, or commit) at a time; runnable jobs are served round-robin, one
// attempt per turn, so a huge job cannot starve small ones, and a job's
// Config.MaxParallelTasks caps how many slots that job may hold at once
// (it no longer sizes a private pool). On top of the per-job cap sit
// per-TENANT quotas (SetTenantQuota): jobs submitted with Config.Tenant
// share that tenant's slot budget across all of its jobs, so one
// saturating tenant cannot crowd every other tenant out of the pool. Job
// controllers and admission delays do not occupy slots; only task
// attempts do.
type Scheduler struct {
	slots int

	mu        sync.Mutex
	execs     []*Execution // attached executions, in submission order
	rr        int          // round-robin dispatch cursor into execs
	running   int          // attempts currently in a slot (<= slots)
	highWater int          // max running ever observed
	tenants   map[string]*tenantState
}

// tenantState is the scheduler-side accounting of one tenant across all
// of its executions. Guarded by Scheduler.mu.
type tenantState struct {
	cap       int // max slots this tenant's attempts may hold; 0 = unlimited
	inFlight  int // attempts of this tenant currently in a slot
	highWater int // max inFlight ever observed for this tenant
}

// SetTenantQuota caps how many scheduler slots the tenant's task attempts
// may occupy at once, across all of that tenant's jobs. maxSlots <= 0
// removes the cap (the tenant keeps being tracked in Stats). Jobs name
// their tenant via Config.Tenant; jobs with no tenant are never capped.
func (s *Scheduler) SetTenantQuota(tenant string, maxSlots int) {
	if tenant == "" {
		return
	}
	s.mu.Lock()
	ts := s.tenantLocked(tenant)
	if maxSlots < 0 {
		maxSlots = 0
	}
	ts.cap = maxSlots
	s.dispatchLocked() // a raised quota may unblock waiting attempts
	s.mu.Unlock()
}

// tenantLocked returns (creating if needed) the tenant's accounting
// entry; nil for the empty tenant.
func (s *Scheduler) tenantLocked(tenant string) *tenantState {
	if tenant == "" {
		return nil
	}
	if s.tenants == nil {
		s.tenants = make(map[string]*tenantState)
	}
	ts := s.tenants[tenant]
	if ts == nil {
		ts = &tenantState{}
		s.tenants[tenant] = ts
	}
	return ts
}

// NewScheduler creates a scheduler with the given number of task slots;
// slots < 1 means DefaultSlots().
func NewScheduler(slots int) *Scheduler {
	if slots < 1 {
		slots = DefaultSlots()
	}
	return &Scheduler{slots: slots}
}

// DefaultSlots is the pool size of schedulers created with slots < 1:
// every core, and never fewer than the engine's historical per-job
// parallelism default.
func DefaultSlots() int {
	n := runtime.NumCPU()
	if n < DefaultMaxParallelTasks {
		n = DefaultMaxParallelTasks
	}
	return n
}

var (
	defaultSchedOnce sync.Once
	defaultSched     *Scheduler
)

// DefaultScheduler returns the process-wide shared scheduler (created on
// first use with DefaultSlots() slots). Run and every System that is not
// given a private pool submit here, so jobs from independent callers in
// one process share a single slot budget.
func DefaultScheduler() *Scheduler {
	defaultSchedOnce.Do(func() { defaultSched = NewScheduler(0) })
	return defaultSched
}

// PoolStats describes a scheduler's pool at a point in time.
type PoolStats struct {
	Slots      int // total task slots
	Running    int // attempts currently occupying a slot
	ActiveJobs int // executions submitted and not yet terminal
	HighWater  int // most slots ever occupied at once
	// Tenants is per-tenant slot accounting, present only once a tenant
	// has been named by a job or given a quota.
	Tenants map[string]TenantStats `json:",omitempty"`
}

// TenantStats is one tenant's slot accounting within PoolStats.
type TenantStats struct {
	Quota     int // max slots the tenant may hold; 0 = unlimited
	Running   int // the tenant's attempts currently in a slot
	HighWater int // most slots the tenant ever held at once
}

// Stats snapshots the pool.
func (s *Scheduler) Stats() PoolStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := PoolStats{Slots: s.slots, Running: s.running, ActiveJobs: len(s.execs), HighWater: s.highWater}
	if len(s.tenants) > 0 {
		st.Tenants = make(map[string]TenantStats, len(s.tenants))
		for name, ts := range s.tenants {
			st.Tenants[name] = TenantStats{Quota: ts.cap, Running: ts.inFlight, HighWater: ts.highWater}
		}
	}
	return st
}

// Submit validates the job and starts it asynchronously. The returned
// Execution exposes Wait, Cancel, and live Status; canceling ctx cancels
// the job. Resources (inputs, outputs, spill files) are owned by the
// execution on every path, exactly as Run owns them.
func (s *Scheduler) Submit(ctx context.Context, job *Job) (*Execution, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ectx, cancel := context.WithCancel(ctx)
	e := &Execution{
		sched:    s,
		job:      job,
		ctx:      ectx,
		cancel:   cancel,
		counters: NewCounters(),
		cap:      job.Config.maxParallel(),
		tenant:   job.Config.Tenant,
		phase:    PhasePending,
		start:    time.Now(),
		done:     make(chan struct{}),
	}
	s.mu.Lock()
	s.execs = append(s.execs, e)
	s.tenantLocked(e.tenant) // make the tenant visible in Stats immediately
	s.mu.Unlock()
	go e.run()
	// The watcher turns an external cancellation (caller ctx or
	// Execution.Cancel) into a halt of whatever phase is in flight; it
	// exits when the execution finishes because run() cancels ectx.
	go func() {
		<-ectx.Done()
		s.haltPhase(e)
	}()
	return e, nil
}

// Run submits the job and waits for it: the synchronous surface.
func (s *Scheduler) Run(ctx context.Context, job *Job) (*Result, error) {
	e, err := s.Submit(ctx, job)
	if err != nil {
		return nil, err
	}
	return e.Wait()
}

// Execution is one submitted job making its way through the scheduler.
type Execution struct {
	sched    *Scheduler
	job      *Job
	ctx      context.Context
	cancel   context.CancelFunc
	counters *Counters
	start    time.Time
	done     chan struct{}

	// Scheduling state, guarded by sched.mu.
	cap        int    // max slots this execution may hold at once
	tenant     string // tenant whose quota this execution's attempts draw on
	inFlight   int    // attempts of this execution currently in a slot
	ph         *phaseRun
	phase      Phase
	phaseDone  int
	phaseTotal int
	attempts   []AttemptRecord
	result     *Result
	err        error
	dur        time.Duration
}

// phaseOpts selects which fault-tolerance machinery a phase may use. Plan
// tasks retry (planning is idempotent) but are singletons, so speculation
// is moot; map and reduce tasks get both; commit tasks get neither —
// commit closes the job's shared output, which is not per-attempt isolated.
type phaseOpts struct {
	retry     bool
	speculate bool
	// first is the index of the phase's first task: a map phase split
	// into waves keeps each task's index in the whole map phase.
	first int
}

// taskSlot is the scheduler-side state of ONE task across its attempts.
// Guarded by sched.mu.
type taskSlot struct {
	idx      int
	attempts int            // attempts launched so far (next attempt number)
	live     []*TaskAttempt // attempts currently in a slot (0, 1, or 2)
	retries  int            // transient relaunches used
	// committing is held by the attempt currently inside Commit; together
	// with done it makes the commit claim idempotent per task: at most one
	// attempt's Commit body ever runs to success.
	committing bool
	done       bool         // a winning attempt committed this task
	winner     *TaskAttempt // the attempt that committed
	failed     bool         // permanently failed
	specDone   bool         // a duplicate attempt was already launched
	firstStart time.Time    // start of the oldest live attempt (straggler clock)
}

// phaseRun is one barrier-delimited batch of same-kind tasks (all map
// tasks, all reduce tasks, ...). Guarded by sched.mu.
type phaseRun struct {
	name   Phase
	task   func(ta *TaskAttempt) error
	n      int
	opts   phaseOpts
	slots  []taskSlot
	ready  []int // task indices awaiting (re)dispatch, FIFO
	live   int   // attempts in flight
	pend   int   // backoff timers armed (attempts owed to the phase)
	doneN  int   // tasks committed
	halted bool  // stop dispatching: a task failed or the job was canceled
	err    error
	// durations of committed tasks, the speculation median's input.
	durations []time.Duration
	specArmed bool // a wake-up timer for future speculation checks is set
	finished  chan struct{}
	closed    bool
}

// errAttemptLost tells an attempt it lost the commit race: a sibling
// attempt already committed (or is committing) this task. Not a failure.
var errAttemptLost = errors.New("mapreduce: task attempt lost commit race")

// TaskAttempt is one attempt at one task: the unit the scheduler
// dispatches, retries, and races speculatively. Task bodies read their
// identity from it (Index, Attempt — attempt-qualified scratch paths hang
// off these), honor Context for cancellation, and publish side effects
// only inside Commit.
type TaskAttempt struct {
	e           *Execution
	ph          *phaseRun
	slot        *taskSlot
	ctx         context.Context
	cancel      context.CancelFunc
	index       int
	attempt     int
	speculative bool
	start       time.Time
	// lost is set (under the scheduler lock) the moment a sibling attempt
	// claims this task's commit and cancels us. Whatever error this
	// attempt then returns — typically context.Canceled, possibly an I/O
	// error from resources the winner released — classifies as a loss,
	// not a failure. Checking slot.done alone has a hole: the winner holds
	// the claim (slot.committing) for the whole commit fn, and a canceled
	// loser can classify inside that window, before slot.done is set.
	lost bool
}

// Context returns the attempt's context: canceled when the job is
// canceled, the phase fails, or a sibling attempt wins the commit race.
func (ta *TaskAttempt) Context() context.Context { return ta.ctx }

// Index returns the task index within the phase (e.g. the split number);
// a map task's index is its split's, in every wave.
func (ta *TaskAttempt) Index() int { return ta.index }

// Attempt returns the attempt number for this task, starting at 0.
// (Index, Attempt) uniquely names an attempt within a phase; per-attempt
// spill and temp-output names embed both.
func (ta *TaskAttempt) Attempt() int { return ta.attempt }

// Speculative reports whether this is a duplicate straggler attempt.
func (ta *TaskAttempt) Speculative() bool { return ta.speculative }

// Commit runs fn under the task's commit claim: at most one attempt of a
// task ever runs fn to success, making commit idempotent per task, not
// per attempt. If a sibling attempt already holds or won the claim,
// Commit returns errAttemptLost without running fn and the caller should
// abort its partial outputs and return the error; the scheduler records
// the attempt as lost, not failed. If fn itself fails, the claim is
// released (the error classifies and retries like any attempt error).
// Winning the claim cancels sibling attempts immediately.
func (ta *TaskAttempt) Commit(fn func() error) error {
	s := ta.e.sched
	s.mu.Lock()
	if ta.slot.done || ta.slot.committing {
		s.mu.Unlock()
		return errAttemptLost
	}
	ta.slot.committing = true
	// The race is decided: stop the losing duplicates now rather than
	// letting them burn a slot until they notice on their own.
	for _, other := range ta.slot.live {
		if other != ta {
			other.lost = true
			other.cancel()
		}
	}
	s.mu.Unlock()
	if err := fn(); err != nil {
		s.mu.Lock()
		ta.slot.committing = false
		s.mu.Unlock()
		return err
	}
	s.mu.Lock()
	ta.slot.done = true
	ta.slot.winner = ta
	s.mu.Unlock()
	return nil
}

// Wait blocks until the execution is terminal and returns its result.
func (e *Execution) Wait() (*Result, error) {
	<-e.done
	return e.result, e.err
}

// Done is closed when the execution reaches a terminal phase.
func (e *Execution) Done() <-chan struct{} { return e.done }

// Cancel asks the execution to stop: queued tasks never start, running
// tasks observe the cancellation at their next check, and the job's
// partial outputs and spill files are cleaned up. Wait then returns a
// context.Canceled error. Safe to call at any time, including after
// completion.
func (e *Execution) Cancel() { e.cancel() }

// Counters exposes the live counter set (snapshot with Counters.Snapshot).
func (e *Execution) Counters() *Counters { return e.counters }

// Status snapshots the execution's phase, task progress, counters, and
// attempt history.
func (e *Execution) Status() Status {
	s := e.sched
	s.mu.Lock()
	st := Status{
		Job:        e.job.Name,
		Phase:      e.phase,
		TasksDone:  e.phaseDone,
		TasksTotal: e.phaseTotal,
		Duration:   e.dur,
		Attempts:   append([]AttemptRecord(nil), e.attempts...),
		Err:        e.err,
	}
	if st.Duration == 0 {
		st.Duration = time.Since(e.start)
	}
	s.mu.Unlock()
	st.Counters = e.counters.Snapshot()
	return st
}

// run is the execution's controller goroutine: it drives the task graph
// through the scheduler (each phase's attempts occupy pool slots; the
// controller itself never does) and publishes the terminal state.
func (e *Execution) run() {
	res, err := e.execute()
	final := PhaseDone
	if err != nil {
		final = PhaseFailed
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			final = PhaseCanceled
		}
	}
	s := e.sched
	s.mu.Lock()
	for i, x := range s.execs {
		if x == e {
			s.execs = append(s.execs[:i], s.execs[i+1:]...)
			break
		}
	}
	e.phase = final
	e.result, e.err = res, err
	e.dur = time.Since(e.start)
	s.mu.Unlock()
	e.cancel() // release the ctx watcher (and any parent-ctx resources)
	close(e.done)
}

// admit waits out the job's configured startup delay (modeling cluster
// job-launch latency) without occupying a slot, and cancellably: a job
// canceled during admission never plans a task.
func (e *Execution) admit() error {
	d := e.job.Config.StartupDelay
	if d <= 0 {
		return e.ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-e.ctx.Done():
		return e.ctx.Err()
	}
}

// IsTransient classifies an attempt error: transient errors may succeed
// on relaunch, permanent ones cannot. Cancellation is permanent (the job
// is going away) and so is storage corruption — re-reading flipped bits
// yields the same flipped bits; the corrupt-input recovery path is the
// catalog quarantine + replan above the engine, not a task retry.
func IsTransient(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, storage.ErrCorruptBlock) {
		return false
	}
	return true
}

// retryDelay computes the backoff before relaunch r (1-based):
// exponential from the configured base, capped, with ±50% jitter so
// retries of simultaneously failed siblings spread out.
func retryDelay(base time.Duration, r int) time.Duration {
	d := base << (r - 1)
	if d > maxRetryBackoff || d <= 0 {
		d = maxRetryBackoff
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// specMinSiblings is how many committed sibling tasks the straggler
// median needs before speculation may trigger.
const specMinSiblings = 3

// specMinRuntime is an absolute floor on how long a task must have been
// running before it can be declared a straggler, regardless of the
// sibling median. Without it, millisecond-scale tasks get speculated
// whenever goroutine scheduling delays one of them a few ms past the
// median, and each duplicate takes a slot and re-reads its split for
// nothing. Real stragglers run well past this; a task that finishes in
// under 100ms is never worth duplicating.
const specMinRuntime = 100 * time.Millisecond

// runPhase runs n tasks as the execution's next phase and blocks until
// every dispatched attempt has returned. Transiently failed tasks are
// relaunched (opts.retry) and stragglers raced (opts.speculate) per the
// job's Config. The first permanent task failure (or a job cancellation)
// halts dispatch, cancels the job context so in-flight sibling attempts
// stop at their next check, and is returned once the phase has drained —
// so callers may release phase resources immediately after.
func (s *Scheduler) runPhase(e *Execution, name Phase, n int, opts phaseOpts, task func(ta *TaskAttempt) error) error {
	if err := e.ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	e.phase, e.phaseDone, e.phaseTotal = name, 0, n
	if n == 0 {
		s.mu.Unlock()
		return nil
	}
	if e.job.Config.speculativeSlowdown() == 0 {
		opts.speculate = false
	}
	ph := &phaseRun{name: name, task: task, n: n, opts: opts, finished: make(chan struct{})}
	ph.slots = make([]taskSlot, n)
	ph.ready = make([]int, n)
	for i := range ph.slots {
		ph.slots[i].idx = i
		ph.ready[i] = i
	}
	e.ph = ph
	s.dispatchLocked()
	s.mu.Unlock()
	<-ph.finished
	if ph.err != nil {
		return ph.err
	}
	return e.ctx.Err()
}

// dispatchLocked fills free slots with attempts from runnable executions.
// Called whenever a phase is enqueued, a slot frees up, a backoff timer
// fires, or a speculation wake-up lands.
func (s *Scheduler) dispatchLocked() {
	for s.running < s.slots {
		e, idx, speculative := s.nextLocked()
		if e == nil {
			return
		}
		ph := e.ph
		slot := &ph.slots[idx]
		actx, acancel := context.WithCancel(e.ctx)
		ta := &TaskAttempt{
			e: e, ph: ph, slot: slot,
			ctx: actx, cancel: acancel,
			index: ph.opts.first + idx, attempt: slot.attempts,
			speculative: speculative,
			start:       time.Now(),
		}
		slot.attempts++
		slot.live = append(slot.live, ta)
		if len(slot.live) == 1 {
			slot.firstStart = ta.start
		}
		if speculative {
			slot.specDone = true
			e.counters.Add(CtrTasksSpeculative, 1)
		}
		ph.live++
		e.inFlight++
		s.running++
		if s.running > s.highWater {
			s.highWater = s.running
		}
		if ts := s.tenantLocked(e.tenant); ts != nil {
			ts.inFlight++
			if ts.inFlight > ts.highWater {
				ts.highWater = ts.inFlight
			}
		}
		go s.runAttempt(e, ph, ta)
	}
}

// nextLocked picks the next execution to grant a slot: round-robin over
// attached executions, skipping those with no dispatchable attempt or
// whose per-job cap is reached. One attempt per turn keeps interleaving
// fair. Regular (ready-queue) work is preferred; an execution with no
// ready task may instead offer a speculative duplicate of its slowest
// straggler.
func (s *Scheduler) nextLocked() (*Execution, int, bool) {
	n := len(s.execs)
	for k := 0; k < n; k++ {
		e := s.execs[(s.rr+k)%n]
		ph := e.ph
		if ph == nil || e.inFlight >= e.cap {
			continue
		}
		if ts := s.tenantLocked(e.tenant); ts != nil && ts.cap > 0 && ts.inFlight >= ts.cap {
			continue // tenant quota exhausted; other tenants keep dispatching
		}
		if !ph.halted && e.ctx.Err() != nil {
			// Canceled with no attempt in flight to notice: halt here so the
			// phase completes without dispatching the rest.
			ph.halted = true
			ph.err = e.ctx.Err()
			s.finishIfDrainedLocked(e, ph)
			continue
		}
		if ph.halted {
			continue
		}
		if len(ph.ready) > 0 {
			idx := ph.ready[0]
			ph.ready = ph.ready[1:]
			s.rr = (s.rr + k + 1) % n
			return e, idx, false
		}
		if idx, ok := s.speculationCandidateLocked(e, ph); ok {
			s.rr = (s.rr + k + 1) % n
			return e, idx, true
		}
	}
	return nil, 0, false
}

// speculationCandidateLocked looks for a straggler worth duplicating:
// a task whose single live attempt has been running longer than the
// job's slowdown factor times the median duration of committed siblings.
// When stragglers exist but none is over the line yet, it arms a wake-up
// timer for the earliest moment one could be.
func (s *Scheduler) speculationCandidateLocked(e *Execution, ph *phaseRun) (int, bool) {
	if !ph.opts.speculate || len(ph.durations) < specMinSiblings {
		return 0, false
	}
	durs := append([]time.Duration(nil), ph.durations...)
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	threshold := time.Duration(float64(durs[len(durs)/2]) * e.job.Config.speculativeSlowdown())
	if threshold < specMinRuntime {
		threshold = specMinRuntime
	}
	now := time.Now()
	best, bestElapsed := -1, time.Duration(0)
	var soonest time.Duration
	for i := range ph.slots {
		slot := &ph.slots[i]
		if slot.done || slot.failed || slot.specDone || slot.committing || len(slot.live) != 1 {
			continue
		}
		elapsed := now.Sub(slot.firstStart)
		if elapsed >= threshold {
			if elapsed > bestElapsed {
				best, bestElapsed = i, elapsed
			}
		} else if wait := threshold - elapsed; soonest == 0 || wait < soonest {
			soonest = wait
		}
	}
	if best >= 0 {
		return best, true
	}
	if soonest > 0 && !ph.specArmed {
		ph.specArmed = true
		time.AfterFunc(soonest+time.Millisecond, func() {
			s.mu.Lock()
			ph.specArmed = false
			if !ph.closed {
				s.dispatchLocked()
			}
			s.mu.Unlock()
		})
	}
	return 0, false
}

// runAttempt runs one task attempt in its slot and classifies the result:
// commit, loss, transient failure (backoff + relaunch), or permanent
// failure (phase halt).
func (s *Scheduler) runAttempt(e *Execution, ph *phaseRun, ta *TaskAttempt) {
	err := ph.task(ta)
	ta.cancel() // release the attempt context
	rec := AttemptRecord{
		Phase: ph.name, Task: ta.index, Attempt: ta.attempt,
		Speculative: ta.speculative,
		Start:       ta.start, Duration: time.Since(ta.start),
	}
	if err != nil {
		rec.Error = err.Error()
	}

	s.mu.Lock()
	slot := ta.slot
	ph.live--
	e.inFlight--
	s.running--
	if ts := s.tenantLocked(e.tenant); ts != nil {
		ts.inFlight--
	}
	for i, other := range slot.live {
		if other == ta {
			slot.live = append(slot.live[:i], slot.live[i+1:]...)
			break
		}
	}
	if len(slot.live) > 0 {
		slot.firstStart = slot.live[0].start
	}

	switch {
	case errors.Is(err, errAttemptLost) || ta.lost || (slot.done && slot.winner != ta):
		// A sibling attempt won the commit race; this one's partial work
		// is already aborted by the task body. Not an error.
		rec.Outcome = AttemptLost
	case err == nil:
		if !slot.done {
			// Implicit commit: the task body finished without needing the
			// commit claim (the job's commit task).
			slot.done = true
			slot.winner = ta
			for _, other := range slot.live {
				other.lost = true
				other.cancel()
			}
		}
		// Exactly one attempt per task reaches here (the winner pointer
		// routed every other nil return to the lost case above).
		rec.Outcome = AttemptSucceeded
		ph.doneN++
		e.phaseDone++
		ph.durations = append(ph.durations, rec.Duration)
	case ph.halted:
		// The phase is already failing or canceled; don't reclassify.
		rec.Outcome = AttemptFailed
	case !IsTransient(err) || (slot.done && slot.winner == ta):
		// Permanent failure — including an error AFTER this attempt's own
		// successful commit, which must fail the job rather than strand
		// the phase between committed and failed.
		rec.Outcome = AttemptFailed
		if errors.Is(err, storage.ErrCorruptBlock) {
			e.counters.Add(CtrCorruptBlocks, 1)
		}
		slot.failed = true
		ph.halted = true
		ph.err = err
		e.cancel()
	case ph.opts.retry && slot.retries < e.job.Config.maxRetries():
		slot.retries++
		rec.Outcome = AttemptRetried
		e.counters.Add(CtrTasksRetried, 1)
		delay := retryDelay(e.job.Config.retryBackoff(), slot.retries)
		ph.pend++
		time.AfterFunc(delay, func() {
			s.mu.Lock()
			ph.pend--
			if !ph.halted && !ph.closed && !slot.done && !slot.failed {
				ph.ready = append(ph.ready, slot.idx)
				s.dispatchLocked()
			}
			s.finishIfDrainedLocked(e, ph)
			s.mu.Unlock()
		})
	default:
		rec.Outcome = AttemptFailed
		if ph.opts.retry && slot.retries > 0 {
			err = fmt.Errorf("mapreduce: task %d failed after %d attempts: %w", ta.index, slot.attempts, err)
		}
		slot.failed = true
		ph.halted = true
		ph.err = err
		e.cancel()
	}
	e.attempts = append(e.attempts, rec)
	s.finishIfDrainedLocked(e, ph)
	s.dispatchLocked()
	s.mu.Unlock()
}

// haltPhase reacts to an execution's context being canceled: the current
// phase stops dispatching and, if nothing is in flight, completes.
func (s *Scheduler) haltPhase(e *Execution) {
	s.mu.Lock()
	if ph := e.ph; ph != nil && !ph.halted {
		ph.halted = true
		if ph.err == nil {
			ph.err = e.ctx.Err()
		}
		s.finishIfDrainedLocked(e, ph)
	}
	s.mu.Unlock()
}

// finishIfDrainedLocked closes the phase once no attempt is in flight, no
// backoff timer is owed, and either every task committed or the phase
// halted.
func (s *Scheduler) finishIfDrainedLocked(e *Execution, ph *phaseRun) {
	if ph.closed {
		return
	}
	if ph.live == 0 && ph.pend == 0 && (ph.halted || ph.doneN == ph.n) {
		ph.closed = true
		e.ph = nil
		close(ph.finished)
	}
}
