package mapreduce

import (
	"context"
	"encoding/binary"
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

// emitBuffer holds one attempt's direct-to-sink emissions, fully
// serialized (the Emit contract lets callers reuse the backing record),
// until the attempt wins its commit claim — only then do the pairs reach
// the job's shared output, so a failed or losing attempt contributes
// nothing and a retry cannot double-write. The buffer lives in memory:
// jobs whose final output is too large for that route it through
// OutputFor (per-task files) or a reduce phase instead.
type emitBuffer struct {
	enc     valueEncoder
	scratch []byte
	buf     []byte
	n       int64
}

func (b *emitBuffer) emit(k serde.Datum, v interp.EmitValue) error {
	b.scratch = k.AppendTagged(b.scratch[:0])
	kl := len(b.scratch)
	b.scratch = b.enc.appendValue(b.scratch, v)
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(kl))
	n += binary.PutUvarint(hdr[n:], uint64(len(b.scratch)-kl))
	b.buf = append(b.buf, hdr[:n]...)
	b.buf = append(b.buf, b.scratch...)
	b.n++
	return nil
}

// flushTo replays the buffered pairs into out, in emission order.
func (b *emitBuffer) flushTo(out func(serde.Datum, interp.EmitValue) error) error {
	var dec valueDecoder
	pos := 0
	for i := int64(0); i < b.n; i++ {
		kl, n := binary.Uvarint(b.buf[pos:])
		pos += n
		vl, n := binary.Uvarint(b.buf[pos:])
		pos += n
		key, _, err := serde.DecodeTagged(b.buf[pos : pos+int(kl)])
		if err != nil {
			return err
		}
		pos += int(kl)
		val, _, err := dec.decode(b.buf[pos : pos+int(vl)])
		if err != nil {
			return err
		}
		pos += int(vl)
		if err := out(key, val); err != nil {
			return err
		}
	}
	return nil
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
	var sink *syncOutput
	if job.Output != nil {
		sink = &syncOutput{out: job.Output}
	}

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
			abortOutput(job.Output)
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
		var taskOut Output
		var outBuf *emitBuffer
		var outRecs int64
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
			if taskOut != nil {
				abortOutput(taskOut)
			}
			ctr.rollback()
		}()
		mapper, err := spec.factory()
		if err != nil {
			return err
		}
		var emit func(serde.Datum, interp.EmitValue) error
		switch {
		case !mapOnly:
			se = newShuffleEmitter(ta.Index(), ta.Attempt(), numReducers, job.Config.WorkDir,
				job.Config.spillBuffer(), job.Combiner, ctr, job.Config.Conf,
				job.Config.partitioner())
			emit = se.emit
		case job.OutputFor != nil:
			taskOut, err = job.OutputFor(ta.Index())
			if err != nil {
				return err
			}
			out := taskOut
			emit = func(k serde.Datum, v interp.EmitValue) error {
				outRecs++
				return out.Write(k, v)
			}
		default:
			outBuf = &emitBuffer{}
			emit = outBuf.emit
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
		// commit claim — spills join the global list, the per-task output
		// seals (atomic rename), buffered sink emissions flush. Exactly
		// one attempt per task gets here successfully.
		if err := ta.Commit(func() error {
			if se != nil {
				segMu.Lock()
				spills = append(spills, se.files...)
				segMu.Unlock()
				se.files = nil // ownership transferred to the job
			}
			if taskOut != nil {
				if cerr := taskOut.Close(); cerr != nil {
					abortOutput(taskOut) // discard the truncated result
					taskOut = nil
					return cerr
				}
				taskOut = nil
			}
			if outBuf != nil {
				if ferr := outBuf.flushTo(sink.Write); ferr != nil {
					return ferr
				}
			}
			if outRecs > 0 {
				ctr.Add(CtrOutputRecords, outRecs)
			}
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
			var taskOut Output
			var outBuf *emitBuffer
			var outRecs int64
			committed := false
			defer func() {
				if committed {
					return
				}
				if taskOut != nil {
					abortOutput(taskOut)
				}
				ctr.rollback()
			}()
			reducer, err := job.Reducer()
			if err != nil {
				return err
			}
			var emit func(serde.Datum, interp.EmitValue) error
			if job.OutputFor != nil {
				taskOut, err = job.OutputFor(p)
				if err != nil {
					return err
				}
				out := taskOut
				emit = func(k serde.Datum, v interp.EmitValue) error {
					outRecs++
					return out.Write(k, v)
				}
			} else {
				outBuf = &emitBuffer{}
				emit = outBuf.emit
			}
			m, err := newMergeIter(spills, p)
			if err != nil {
				return err
			}
			defer m.closeAll()
			ictx := &interp.Context{
				Conf: job.Config.Conf,
				Emit: emit,
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
				if taskOut != nil {
					if cerr := taskOut.Close(); cerr != nil {
						abortOutput(taskOut) // discard the truncated result
						taskOut = nil
						return cerr
					}
					taskOut = nil
				}
				if outBuf != nil {
					if ferr := outBuf.flushTo(sink.Write); ferr != nil {
						return ferr
					}
				}
				if outRecs > 0 {
					ctr.Add(CtrOutputRecords, outRecs)
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

	// Commit phase (one task): account input bytes, flush the shared sink,
	// and seal the final output. The commit task flushes the job's ONE
	// shared sink, which has no per-attempt isolation to roll back to —
	// so it gets neither retries nor speculation.
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
		if sink != nil {
			counters.Add(CtrOutputRecords, sink.flush())
		}
		if job.Output != nil {
			if err := job.Output.Close(); err != nil {
				// A failed close (e.g. flush on a full disk) leaves a truncated
				// file that looks valid; discard it like every other error path.
				abortOutput(job.Output)
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

// syncOutput serializes writes to the job output and counts records
// locally (the count is flushed into the job counters once, at job end —
// a second mutexed map update per written record is measurable).
type syncOutput struct {
	mu  sync.Mutex
	out Output
	n   int64
}

func (s *syncOutput) Write(k serde.Datum, v interp.EmitValue) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	return s.out.Write(k, v)
}

// flush returns and resets the record count.
func (s *syncOutput) flush() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.n
	s.n = 0
	return n
}
