package mapreduce

import (
	"context"
	"fmt"
	"sync"
	"time"

	"manimal/internal/faultinject"
	"manimal/internal/interp"
	"manimal/internal/serde"
)

// cancelCheckEvery throttles how often long task loops poll the job
// context for cancellation: cheap enough to keep cancel latency low
// without taxing the per-record hot path.
const cancelCheckEvery = 64

// counterFlushEvery is how often map tasks flush their locally batched
// input-record count into the shared counters, so Status() progress moves
// while a long task is still running (per-record Counters.Add takes a
// mutex — too expensive on the hot path).
const counterFlushEvery = 8192

// Run executes a job to completion on the process-wide shared scheduler
// and returns its counters and duration. It is the synchronous wrapper
// around Scheduler.Submit; see Scheduler for the pooling and fairness
// model, and Execution for the async surface (Wait/Cancel/Status).
//
// The execution owns the job's resources on every exit path: inputs are
// closed, the final output is closed (or aborted — partial file removed —
// on error or cancellation), and shuffle spill segments are deleted as
// soon as the reduce phase has consumed them, so a long-lived WorkDir does
// not accumulate garbage. Callers may safely Close inputs again.
func Run(job *Job) (*Result, error) {
	return DefaultScheduler().Run(context.Background(), job)
}

// attemptCtr records one attempt's counter deltas on top of the shared
// set: additions land in the live counters immediately (so progress
// reporting keeps moving), and rollback negates them all if the attempt
// fails or loses the commit race — a retried task's second attempt then
// re-counts from zero instead of double-counting. Used by exactly one
// attempt goroutine; no locking of its own.
type attemptCtr struct {
	base   *Counters
	deltas map[string]int64
}

func newAttemptCtr(base *Counters) *attemptCtr {
	return &attemptCtr{base: base, deltas: make(map[string]int64)}
}

// Add implements counterAdder.
func (a *attemptCtr) Add(name string, delta int64) {
	a.base.Add(name, delta)
	a.deltas[name] += delta
}

// rollback withdraws every delta this attempt contributed.
func (a *attemptCtr) rollback() {
	for name, d := range a.deltas {
		if d != 0 {
			a.base.Add(name, -d)
		}
	}
	clear(a.deltas)
}

// taskSink is where a map-only map task's or a reduce task's pairs go
// until the attempt commits. With Job.OutputFor the task writes its own
// output, which commit closes (an atomic rename) and abort discards. With
// a shared Job.Output the attempt buffers its pairs fully serialized (the
// Emit contract lets callers reuse the backing record), and commit flushes
// them into the output under the job's one output lock: a failed or losing
// attempt contributes nothing, a retry cannot double-write, and each
// committed task's pairs sit together in the output. The buffer holds the
// attempt's whole output in memory — a reduce attempt's whole partition —
// so jobs whose output is too large for that use OutputFor.
type taskSink struct {
	out    Output      // the task's own output (Job.OutputFor), or nil
	shared Output      // Job.Output, when out is nil
	mu     *sync.Mutex // held for a whole flush into shared
	kv     kvEncoder
	buf    []byte // pairs bound for shared, framed by appendKV
	n      int64  // pairs emitted
}

// newTaskSink opens task's sink; mu is the job's output lock.
func newTaskSink(job *Job, task int, mu *sync.Mutex) (*taskSink, error) {
	if job.OutputFor == nil {
		return &taskSink{shared: job.Output, mu: mu}, nil
	}
	out, err := job.OutputFor(task)
	if err != nil {
		return nil, err
	}
	return &taskSink{out: out}, nil
}

func (s *taskSink) emit(k serde.Datum, v interp.EmitValue) error {
	s.n++
	if s.out != nil {
		return s.out.Write(k, v)
	}
	s.buf = s.kv.appendKV(s.buf, k, v)
	return nil
}

// commit publishes the attempt's pairs and counts them; it runs under the
// task's commit claim.
func (s *taskSink) commit(ctr *attemptCtr) error {
	if s.out != nil {
		if err := s.out.Close(); err != nil {
			s.out.Abort() // discard the truncated result
			return err
		}
	} else {
		s.mu.Lock()
		err := readKVs(s.buf, uint64(s.n), s.shared.Write)
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	if s.n > 0 {
		ctr.Add(CtrOutputRecords, s.n)
	}
	return nil
}

// abort discards an uncommitted attempt's partial per-task output.
func (s *taskSink) abort() {
	if s.out != nil {
		s.out.Abort()
	}
}

// execute drives the job's task graph — admit → plan → map → (reduce) →
// commit — with every task dispatched through the scheduler's slot pool.
// It runs on the execution's controller goroutine.
func (e *Execution) execute() (*Result, error) {
	job := e.job
	counters := e.counters
	sched := e.sched

	mapOnly := job.Reducer == nil
	numReducers := 0
	if !mapOnly {
		numReducers = job.Config.numReducers()
	}
	var outMu sync.Mutex // serializes task flushes into job.Output

	// Spill files gathered after the map phase: the COMMITTED spills only.
	// Each holds every partition's sorted run for one spill of one winning
	// map attempt and stays open until the reduce phase has merged it
	// (reduce tasks read sections of the shared handles); failed and
	// losing attempts delete their own spills before returning.
	var spills []*spillFile
	var segMu sync.Mutex
	releaseSpills := func() {
		for _, sf := range spills {
			sf.release()
		}
		spills = nil
	}

	// fail releases everything on an error exit: the partial final output
	// is aborted, inputs are closed, and any spill files are removed. By
	// the time a phase reports an error its attempts have drained, so
	// nothing still writes to what is released here.
	fail := func(phase string, err error) (*Result, error) {
		if job.Output != nil {
			job.Output.Abort()
		}
		for _, in := range job.Inputs {
			in.Input.Close()
		}
		releaseSpills()
		return nil, fmt.Errorf("mapreduce: %q: %s: %w", job.Name, phase, err)
	}

	if err := e.admit(); err != nil {
		return fail("admission", err)
	}

	// Plan phase (one task): split every input, each split bound to its
	// input's mapper. Planning is idempotent — each attempt builds a local
	// list and publishes it wholesale — so it retries like any map task.
	type taskSpec struct {
		split   Split
		factory MapperFactory
	}
	var tasks []taskSpec
	if err := sched.runPhase(e, PhasePlan, 1, phaseOpts{retry: true}, func(ta *TaskAttempt) error {
		if err := faultinject.Fail(faultinject.PointTask, fmt.Sprintf("plan:0:%d", ta.Attempt())); err != nil {
			return err
		}
		// The job-wide task target is maxParallel*2; it is divided across
		// inputs (rounding up) so an N-input job plans about the intended
		// task count instead of N× it.
		parallel := job.Config.maxParallel()
		perInput := (parallel*2 + len(job.Inputs) - 1) / len(job.Inputs)
		if perInput < 1 {
			perInput = 1
		}
		var planned []taskSpec
		for _, in := range job.Inputs {
			splits, err := in.Input.Splits(perInput)
			if err != nil {
				return err
			}
			for _, s := range splits {
				planned = append(planned, taskSpec{split: s, factory: in.Mapper})
			}
		}
		tasks = planned
		counters.Add(CtrMapTasks, int64(len(tasks)))
		return nil
	}); err != nil {
		return fail("plan", err)
	}

	runMapTask := func(ta *TaskAttempt, spec taskSpec) (err error) {
		ctx := ta.Context()
		akey := fmt.Sprintf("map:%d:%d", ta.Index(), ta.Attempt())
		faultinject.Kill(akey)
		if err := faultinject.Fail(faultinject.PointTask, akey); err != nil {
			return err
		}
		faultinject.Sleep(ctx, akey)
		ctr := newAttemptCtr(counters)
		var se *shuffleEmitter
		var sink *taskSink
		committed := false
		defer func() {
			if committed {
				return
			}
			// The attempt failed, was canceled, or lost the commit race:
			// its spill files, partial per-task output, and counter deltas
			// all roll back, leaving no trace for the relaunch (or the
			// winner) to collide with.
			if se != nil {
				se.discard()
			}
			if sink != nil {
				sink.abort()
			}
			ctr.rollback()
		}()
		mapper, err := spec.factory()
		if err != nil {
			return err
		}
		var emit func(serde.Datum, interp.EmitValue) error
		if mapOnly {
			if sink, err = newTaskSink(job, ta.Index(), &outMu); err != nil {
				return err
			}
			emit = sink.emit
		} else {
			se = newShuffleEmitter(ta.Index(), ta.Attempt(), numReducers, job.Config.WorkDir,
				job.Config.spillBuffer(), job.Combiner, ctr, job.Config.Conf,
				job.Config.partitioner())
			emit = se.emit
		}
		ictx := &interp.Context{
			Conf: job.Config.Conf,
			Emit: emit,
			Counter: func(name string, delta int64) {
				ctr.Add("user."+name, delta)
			},
		}
		mapBody := func() error {
			// Batch path: when both the split and the mapper support
			// batch-at-a-time execution, whole column-vector batches flow to
			// the mapper, with cancellation checks and counter flushes per
			// batch instead of per record. Either capability missing takes
			// the row loop; both count CtrMapInputRecords identically (rows
			// the residual filter dropped never reach either).
			bm, _ := mapper.(BatchMapper)
			if bs, ok := spec.split.(BatchSplit); ok && bm != nil {
				bit, err := bs.OpenBatch()
				if err != nil {
					return err
				}
				defer bit.Close()
				n, flushed := 0, 0
				defer func() { ctr.Add(CtrMapInputRecords, int64(n-flushed)) }()
				for bit.NextBatch() {
					if ctx.Err() != nil {
						return ctx.Err()
					}
					b := bit.Batch()
					n += len(b.Sel())
					if n-flushed >= counterFlushEvery {
						ctr.Add(CtrMapInputRecords, int64(n-flushed))
						flushed = n
					}
					if err := bm.MapBatch(b, ictx); err != nil {
						return err
					}
				}
				return bit.Err()
			}
			it, err := spec.split.Open()
			if err != nil {
				return err
			}
			defer it.Close()
			// Input records are counted locally and flushed in batches (plus a
			// final flush): live enough for progress reporting, cheap enough
			// for the per-record hot path.
			n, flushed := 0, 0
			defer func() { ctr.Add(CtrMapInputRecords, int64(n-flushed)) }()
			for it.Next() {
				if n%cancelCheckEvery == 0 && ctx.Err() != nil {
					return ctx.Err()
				}
				n++
				if n-flushed >= counterFlushEvery {
					ctr.Add(CtrMapInputRecords, int64(n-flushed))
					flushed = n
				}
				if err := mapper.Map(it.Key(), it.Record(), ictx); err != nil {
					return err
				}
			}
			return it.Err()
		}
		if err := mapBody(); err != nil {
			return err
		}
		if se != nil {
			if err := se.spill(); err != nil {
				return err
			}
		}
		// Commit: publish this attempt's side effects under the task's
		// commit claim — spills join the global list, or the task's pairs
		// reach the output. Exactly one attempt per task gets here
		// successfully.
		if err := ta.Commit(func() error {
			if se == nil {
				return sink.commit(ctr)
			}
			segMu.Lock()
			spills = append(spills, se.files...)
			segMu.Unlock()
			se.files = nil // ownership transferred to the job
			return nil
		}); err != nil {
			return err
		}
		committed = true
		if se != nil {
			se.release()
		}
		return nil
	}

	if err := sched.runPhase(e, PhaseMap, len(tasks), phaseOpts{retry: true, speculate: true}, func(ta *TaskAttempt) error {
		return runMapTask(ta, tasks[ta.Index()])
	}); err != nil {
		return fail("map phase", err)
	}

	if !mapOnly {
		counters.Add(CtrReduceTasks, int64(numReducers))
		reduceTask := func(ta *TaskAttempt) (err error) {
			ctx := ta.Context()
			p := ta.Index()
			akey := fmt.Sprintf("reduce:%d:%d", p, ta.Attempt())
			faultinject.Kill(akey)
			if err := faultinject.Fail(faultinject.PointTask, akey); err != nil {
				return err
			}
			faultinject.Sleep(ctx, akey)
			ctr := newAttemptCtr(counters)
			var sink *taskSink
			committed := false
			defer func() {
				if committed {
					return
				}
				if sink != nil {
					sink.abort()
				}
				ctr.rollback()
			}()
			reducer, err := job.Reducer()
			if err != nil {
				return err
			}
			if sink, err = newTaskSink(job, p, &outMu); err != nil {
				return err
			}
			m, err := newMergeIter(spills, p)
			if err != nil {
				return err
			}
			defer m.closeAll()
			ictx := &interp.Context{
				Conf: job.Config.Conf,
				Emit: sink.emit,
				Counter: func(name string, delta int64) {
					ctr.Add("user."+name, delta)
				},
			}
			for m.nextGroup() {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				ctr.Add(CtrReduceInputGroups, 1)
				key, _, err := serde.DecodeSortKey(m.groupKey)
				if err != nil {
					return err
				}
				g := &groupValueIter{m: m}
				if err := reducer.Reduce(key, g, ictx); err != nil {
					return err
				}
				m.drainGroup()
				ctr.Add(CtrReduceInputRecords, g.n)
				if m.err != nil {
					return m.err
				}
			}
			if m.err != nil {
				return m.err
			}
			// This attempt is fully merged: close its cursors before the
			// commit claim decides whether it may consume spill references.
			m.closeAll()
			if err := ta.Commit(func() error {
				if err := sink.commit(ctr); err != nil {
					return err
				}
				// Drop this partition's spill-file references (exactly once
				// per partition — the commit claim guarantees it), so files
				// whose every partition has been consumed are deleted while
				// the reduce phase is still running.
				for _, sf := range spills {
					sf.consumed(p)
				}
				return nil
			}); err != nil {
				return err
			}
			committed = true
			return nil
		}
		if err := sched.runPhase(e, PhaseReduce, numReducers, phaseOpts{retry: true, speculate: true}, reduceTask); err != nil {
			return fail("reduce phase", err)
		}
		// Spill files are shared across reduce partitions (each holds every
		// partition's run), so they are released once the whole phase is done.
		releaseSpills()
	}

	// Commit phase (one task): account input bytes and seal the shared
	// final output. Closing the job's ONE shared output has no per-attempt
	// isolation to roll back to — so it gets neither retries nor
	// speculation.
	if err := sched.runPhase(e, PhaseCommit, 1, phaseOpts{}, func(*TaskAttempt) error {
		for _, in := range job.Inputs {
			counters.Add(CtrInputBytesRead, in.Input.BytesRead())
			if st := in.Input.ScanStats(); st != (ScanStats{}) {
				counters.Add(CtrBlocksRead, st.BlocksRead)
				counters.Add(CtrBlocksSkipped, st.BlocksSkipped)
				counters.Add(CtrRowsFiltered, st.RowsFiltered)
				counters.Add(CtrScansShared, st.SharedScans)
			}
			in.Input.Close()
		}
		if job.Output != nil {
			if err := job.Output.Close(); err != nil {
				// A failed close (e.g. flush on a full disk) leaves a truncated
				// file that looks valid; discard it like every other error path.
				job.Output.Abort()
				return fmt.Errorf("close output: %w", err)
			}
		}
		return nil
	}); err != nil {
		// If the commit task ran, it already released what it touched; fail
		// is idempotent for the rest (re-close and re-abort are safe), and
		// it is required when cancellation kept the task from dispatching.
		return fail("commit", err)
	}
	return &Result{Counters: counters, Duration: time.Since(e.start)}, nil
}
