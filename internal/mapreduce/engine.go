package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"manimal/internal/faultinject"
	"manimal/internal/interp"
	"manimal/internal/serde"
)

// cancelCheckEvery throttles how often a row loop polls the job context
// for cancellation: cheap enough to keep cancel latency low without taxing
// the per-record hot path.
const cancelCheckEvery = 64

// counterFlushEvery is how often map tasks flush their locally batched
// input-record count, and reduce tasks their group and value counts, into
// the shared counters, so Status() progress moves while a long task is
// still running (a per-record or per-group Counters.Add takes the
// job-wide mutex — too expensive on the hot path).
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

// addScan commits one scan's counts — a split's, or planning's — to the
// attempt. input.bytes.read is always recorded; the zone-map counters
// appear once a scan covered a record-file block.
func (a *attemptCtr) addScan(st ScanStats) {
	a.Add(CtrInputBytesRead, st.BytesRead)
	if st.BlocksRead+st.BlocksSkipped == 0 {
		return
	}
	a.Add(CtrBlocksRead, st.BlocksRead)
	a.Add(CtrBlocksSkipped, st.BlocksSkipped)
	a.Add(CtrRowsFiltered, st.RowsFiltered)
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

// outChunkSize is the size of the fixed chunks a task holds its framed
// output in until it commits.
const outChunkSize = 64 << 10

// outChunks recycles output chunks across tasks and jobs: a chunk goes
// back once its task's bytes are written or the attempt is dropped.
var outChunks = sync.Pool{New: func() any { return new([outChunkSize]byte) }}

// taskSink is where a map-only map task's or a reduce task's pairs go
// until the attempt commits. With Job.OutputFor the task writes its own
// output, which commit closes (an atomic rename) and abort discards. With
// a shared Job.Output the attempt frames each pair once, at emit (the
// Emit contract lets callers reuse the backing record), into pooled
// fixed-size chunks, and commit hands the chunks to the job's
// sharedOutput, which writes their bytes as they are, in task order: a
// failed or losing attempt contributes nothing, a retry cannot
// double-write, and each committed task's pairs sit together in the
// output. The chunks hold the attempt's whole output in memory — a reduce
// attempt's whole partition — so jobs whose output is too large for that
// use OutputFor.
type taskSink struct {
	out    Output        // the task's own output (Job.OutputFor), or nil
	shared *sharedOutput // Job.Output, when out is nil
	task   int
	kv     kvEncoder
	chunks []*[outChunkSize]byte // the attempt's frames, from outChunks; a frame may straddle
	tail   int                   // bytes used in the last chunk
	n      int64                 // pairs emitted
}

// newTaskSink opens task's sink; shared is the job's Job.Output, if any.
func newTaskSink(job *Job, task int, shared *sharedOutput) (*taskSink, error) {
	if job.OutputFor == nil {
		return &taskSink{shared: shared, task: task}, nil
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
	hdr, body := s.kv.frame(k, v)
	s.write(hdr)
	s.write(body)
	return nil
}

// write appends p to the attempt's chunks, taking a new chunk from the
// pool whenever the last one is full.
func (s *taskSink) write(p []byte) {
	for len(p) > 0 {
		if len(s.chunks) == 0 || s.tail == outChunkSize {
			s.chunks = append(s.chunks, outChunks.Get().(*[outChunkSize]byte))
			s.tail = 0
		}
		n := copy(s.chunks[len(s.chunks)-1][s.tail:], p)
		s.tail += n
		p = p[n:]
	}
}

// framed returns the bytes held in each chunk, in order.
func (s *taskSink) framed() [][]byte {
	views := make([][]byte, len(s.chunks))
	for i, c := range s.chunks {
		views[i] = c[:]
	}
	if len(views) > 0 {
		views[len(views)-1] = views[len(views)-1][:s.tail]
	}
	return views
}

// release returns the attempt's chunks to the pool. It is safe to repeat.
func (s *taskSink) release() {
	for _, c := range s.chunks {
		outChunks.Put(c)
	}
	clear(s.chunks)
	s.chunks, s.tail = s.chunks[:0], 0
}

// commit publishes the attempt's pairs and counts them; it runs under the
// task's commit claim.
func (s *taskSink) commit(ctr *attemptCtr) error {
	if s.out != nil {
		if err := s.out.Close(); err != nil {
			s.out.Abort() // discard the truncated result
			return err
		}
	} else if err := s.shared.commit(s); err != nil {
		return err
	}
	if s.n > 0 {
		ctr.Add(CtrOutputRecords, s.n)
	}
	return nil
}

// abort discards an uncommitted attempt's output: its partial per-task
// output, or its chunks.
func (s *taskSink) abort() {
	if s.out != nil {
		s.out.Abort()
	}
	s.release()
}

// errOutputAborted fails a commit that reaches a job's shared output after
// the job has failed.
var errOutputAborted = errors.New("mapreduce: the job's output was aborted")

// sharedOutput writes the committed tasks' chunks into a job's one
// Job.Output in task order — reduce partition order, or a map-only job's
// split order — so the output's bytes do not depend on which task commits
// first. A task that commits ahead of a lower-numbered one is held until
// that one has been written. Nothing is buffered beyond the tasks' own
// chunks, and each task's go back to the pool once written — or, on a
// failed write or a failed job, unwritten.
type sharedOutput struct {
	mu   sync.Mutex
	out  SharedOutput
	next int               // the lowest task not yet written
	held map[int]*taskSink // committed tasks waiting on a lower one
	err  error             // a failed write or the job's abort; the output is lost
}

// commit takes over s's chunks: it writes them, with any held tasks they
// unblock, or holds them.
func (o *sharedOutput) commit(s *taskSink) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.err != nil {
		s.release()
		return o.err
	}
	o.held[s.task] = s
	for o.err == nil {
		w, ok := o.held[o.next]
		if !ok {
			break
		}
		delete(o.held, o.next)
		o.err = o.out.writeFramed(w.framed(), uint64(w.n))
		w.release()
		o.next++
	}
	if o.err != nil {
		o.releaseHeld()
	}
	return o.err
}

// abort releases every held task's chunks when the job fails; a later
// commit writes nothing and releases its own.
func (o *sharedOutput) abort() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.err == nil {
		o.err = errOutputAborted
	}
	o.releaseHeld()
}

// releaseHeld returns every held task's chunks to the pool unwritten.
func (o *sharedOutput) releaseHeld() {
	for t, s := range o.held {
		s.release()
		delete(o.held, t)
	}
}

// attempt is the skeleton every plan, map and reduce task attempt runs in:
// its ledger, the interp context whose user counters land there, and the
// cleanup that runs unless it commits.
type attempt struct {
	*TaskAttempt
	ctr   *attemptCtr
	ictx  interp.Context // Conf and user counters; the task body sets Emit
	abort func()         // discards the attempt's partial output; nil for none
}

// runTask runs body as attempt ta of a kind ("plan", "map", "reduce")
// task. The fault hooks keyed kind:task:attempt fire first; body then does
// the attempt's work and returns the function that publishes it, which
// runs under the task's commit claim. Every count the attempt makes goes
// through its ledger, so one that fails, is canceled or loses the claim
// leaves no trace — it aborts its output and its ledger rolls back — and
// job counters sum committed attempts only.
func (e *Execution) runTask(kind string, ta *TaskAttempt, body func(a *attempt) (commit func() error, err error)) error {
	akey := fmt.Sprintf("%s:%d:%d", kind, ta.Index(), ta.Attempt())
	faultinject.Kill(akey)
	if err := faultinject.Fail(faultinject.PointTask, akey); err != nil {
		return err
	}
	faultinject.Sleep(ta.Context(), akey)
	a := &attempt{TaskAttempt: ta, ctr: newAttemptCtr(e.counters)}
	a.ictx = interp.Context{
		Conf:    e.job.Config.Conf,
		Counter: func(name string, delta int64) { a.ctr.Add("user."+name, delta) },
	}
	committed := false
	defer func() {
		if committed {
			return
		}
		if a.abort != nil {
			a.abort()
		}
		a.ctr.rollback()
	}()
	commit, err := body(a)
	if err != nil {
		return err
	}
	if err := ta.Commit(commit); err != nil {
		return err
	}
	committed = true
	return nil
}

// mapSplit feeds split's batches to bm — the task's Mapper, or the
// aggregate kernel — and commits the split's scan counts to the attempt's
// ledger once its iterator is closed. Cancellation is checked per batch
// (and by rowMapper within one). CtrMapInputRecords counts the selected
// rows (rows the residual filter dropped never reach the mapper) locally,
// flushed every counterFlushEvery rows plus a final flush: live enough for
// progress reporting, cheap enough for the per-record hot path.
func mapSplit(a *attempt, split Split, bm BatchMapper) error {
	ctx, ctr := a.Context(), a.ctr
	bit, err := split.OpenBatch()
	if err != nil {
		return err
	}
	n, flushed := 0, 0
	defer func() {
		bit.Close()
		ctr.addScan(bit.Stats())
		ctr.Add(CtrMapInputRecords, int64(n-flushed))
	}()
	for bit.Next() {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		b := bit.Batch()
		n += len(b.Sel())
		if n-flushed >= counterFlushEvery {
			ctr.Add(CtrMapInputRecords, int64(n-flushed))
			flushed = n
		}
		if err := bm.MapBatch(b, &a.ictx); err != nil {
			return err
		}
	}
	return bit.Err()
}

// newMapper builds the task's Mapper as a BatchMapper: a Mapper without
// MapBatch maps its rows through rowMapper.
func newMapper(a *attempt, factory MapperFactory) (BatchMapper, error) {
	m, err := factory()
	if err != nil {
		return nil, err
	}
	if bm, ok := m.(BatchMapper); ok {
		return bm, nil
	}
	return &rowMapper{m: m, ctx: a.Context()}, nil
}

// rowMapper runs a Mapper that has no MapBatch: each selected row of a
// batch is materialized through serde.Rows and mapped with its key. A
// batch may hold thousands of rows and a Go Mapper may be slow, so the
// walk polls ctx every cancelCheckEvery rows.
type rowMapper struct {
	m    Mapper
	ctx  context.Context
	rows serde.Rows
}

func (r *rowMapper) MapBatch(b *serde.Batch, ictx *interp.Context) error {
	r.rows.Reset(b)
	for n := 1; ; n++ {
		row, ok := r.rows.Next()
		if !ok {
			return nil
		}
		if n%cancelCheckEvery == 0 && r.ctx.Err() != nil {
			return r.ctx.Err()
		}
		key, err := b.RowKey(row)
		if err != nil {
			return err
		}
		if err := r.m.Map(key, r.rows.Record(), ictx); err != nil {
			return err
		}
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
	shared := &sharedOutput{out: job.Output, held: make(map[int]*taskSink)}

	// The committed spills, per map task in spill order; failed and losing
	// attempts delete their own. Each holds every partition's sorted run
	// for one spill and stays open until the reduce phase has merged it
	// (reduce tasks read sections of the shared handles). The reduce phase
	// reads them in (map task, spill) order, which fixes the order of one
	// key's values whatever order the map tasks committed in.
	var spills [][]*spillFile
	releaseSpills := func() {
		for _, files := range spills {
			for _, sf := range files {
				sf.release()
			}
		}
		spills = nil
	}

	// fail releases everything on an error exit: held output chunks go
	// back to their pool, the partial final output is aborted, inputs are
	// closed, and any spill files are removed. By the time a phase reports
	// an error its attempts have drained, so nothing still writes to what
	// is released here.
	fail := func(phase string, err error) (*Result, error) {
		shared.abort()
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
		split Split
		input *MapInput
	}
	var tasks []taskSpec
	if err := sched.runPhase(e, PhasePlan, 1, phaseOpts{retry: true}, func(ta *TaskAttempt) error {
		return e.runTask("plan", ta, func(a *attempt) (func() error, error) {
			// The job-wide task target is maxParallel*2; it is divided
			// across inputs (rounding up) so an N-input job plans about the
			// intended task count instead of N× it.
			parallel := job.Config.maxParallel()
			perInput := max(1, (parallel*2+len(job.Inputs)-1)/len(job.Inputs))
			var planned []taskSpec
			for i := range job.Inputs {
				in := &job.Inputs[i]
				splits, st, err := in.Input.Splits(perInput)
				if err != nil {
					return nil, err
				}
				a.ctr.addScan(st)
				for _, s := range splits {
					planned = append(planned, taskSpec{split: s, input: in})
				}
			}
			return func() error {
				tasks = planned
				a.ctr.Add(CtrMapTasks, int64(len(planned)))
				return nil
			}, nil
		})
	}); err != nil {
		return fail("plan", err)
	}
	spills = make([][]*spillFile, len(tasks))

	if err := sched.runPhase(e, PhaseMap, len(tasks), phaseOpts{retry: true, speculate: true}, func(ta *TaskAttempt) error {
		return e.runTask("map", ta, func(a *attempt) (func() error, error) {
			spec := tasks[a.Index()]
			if mapOnly {
				mapper, err := newMapper(a, spec.input.Mapper)
				if err != nil {
					return nil, err
				}
				sink, err := newTaskSink(job, a.Index(), shared)
				if err != nil {
					return nil, err
				}
				a.abort, a.ictx.Emit = sink.abort, sink.emit
				if err := mapSplit(a, spec.split, mapper); err != nil {
					return nil, err
				}
				return func() error { return sink.commit(a.ctr) }, nil
			}
			se := newShuffleEmitter(a.Index(), a.Attempt(), numReducers, job.Config.WorkDir,
				job.Config.spillBuffer(), job.Combiner, job.FoldSum, a.ctr, job.Config.Conf,
				job.Config.partitioner())
			a.abort, a.ictx.Emit = se.discard, se.emit
			// A folding task runs an Aggregate Map as the column kernel; the
			// Mapper is never built.
			var mapper BatchMapper = &aggKernel{agg: spec.input.Aggregate, se: se}
			if spec.input.Aggregate == nil || !se.folding {
				var err error
				if mapper, err = newMapper(a, spec.input.Mapper); err != nil {
					return nil, err
				}
			}
			if err := mapSplit(a, spec.split, mapper); err != nil {
				return nil, err
			}
			if err := se.spill(); err != nil {
				return nil, err
			}
			return func() error {
				spills[a.Index()] = se.files
				se.files = nil // ownership transferred to the job
				se.release()
				return nil
			}, nil
		})
	}); err != nil {
		return fail("map phase", err)
	}

	if !mapOnly {
		counters.Add(CtrReduceTasks, int64(numReducers))
		var ordered []*spillFile
		for _, files := range spills {
			ordered = append(ordered, files...)
		}
		reduceTask := func(a *attempt) (func() error, error) {
			ctx, p := a.Context(), a.Index()
			reducer, err := job.Reducer()
			if err != nil {
				return nil, err
			}
			sink, err := newTaskSink(job, p, shared)
			if err != nil {
				return nil, err
			}
			a.abort, a.ictx.Emit = sink.abort, sink.emit
			m, err := newMergeIter(ordered, p)
			if err != nil {
				return nil, err
			}
			// The cursors close when the merge is done, before the commit
			// claim decides whether this attempt consumes spill references.
			defer m.closeAll()
			// Groups and their values are counted locally and flushed
			// through the ledger every counterFlushEvery groups and once
			// at the end, as mapSplit counts its input rows.
			var groups, values int64
			flush := func() {
				if groups > 0 {
					a.ctr.Add(CtrReduceInputGroups, groups)
					a.ctr.Add(CtrReduceInputRecords, values)
				}
				groups, values = 0, 0
			}
			defer flush()
			g := &groupValueIter{m: m}
			for m.nextGroup() {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				key, _, err := serde.DecodeSortKey(m.groupKey)
				if err != nil {
					return nil, err
				}
				*g = groupValueIter{m: m}
				if err := reducer.Reduce(key, g, &a.ictx); err != nil {
					return nil, err
				}
				m.drainGroup()
				groups++
				values += g.n
				if groups >= counterFlushEvery {
					flush()
				}
				if m.err != nil {
					return nil, m.err
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			return func() error {
				if err := sink.commit(a.ctr); err != nil {
					return err
				}
				// Drop this partition's spill-file references (exactly once
				// per partition — the commit claim guarantees it), so files
				// whose every partition has been consumed are deleted while
				// the reduce phase is still running.
				for _, sf := range ordered {
					sf.consumed(p)
				}
				return nil
			}, nil
		}
		if err := sched.runPhase(e, PhaseReduce, numReducers, phaseOpts{retry: true, speculate: true}, func(ta *TaskAttempt) error {
			return e.runTask("reduce", ta, reduceTask)
		}); err != nil {
			return fail("reduce phase", err)
		}
		// Spill files are shared across reduce partitions (each holds every
		// partition's run), so they are released once the whole phase is done.
		releaseSpills()
	}

	// Commit phase (one task): close the inputs and seal the shared final
	// output. Closing the job's ONE shared output has no per-attempt
	// isolation to roll back to — so it gets neither retries nor
	// speculation.
	if err := sched.runPhase(e, PhaseCommit, 1, phaseOpts{}, func(*TaskAttempt) error {
		for _, in := range job.Inputs {
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
