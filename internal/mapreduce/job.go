// Package mapreduce is Manimal's execution fabric (paper Figure 1): a
// from-scratch MapReduce engine with file splits, parallel map tasks, a
// sort/spill/merge shuffle, optional combiners, reduce tasks, and counters.
// It retains the standard map-shuffle-reduce sequence; Manimal-specific
// behaviour enters only through pluggable inputs (B+Tree-indexed, projected
// and compressed record files) and outputs, exactly as the paper's
// prototype modified Hadoop only for indexed input formats and
// delta-compression.
//
// # Concurrent job service
//
// Execution is owned by a Scheduler: a process-wide bounded pool of task
// slots that interleaves tasks from many concurrently submitted jobs —
// like a production MapReduce master multiplexing jobs over one cluster.
// Each job is decomposed into an explicit task graph (plan → map tasks →
// barrier → reduce tasks → commit); runnable jobs are served round-robin,
// one task per turn, and a job's Config.MaxParallelTasks caps its share of
// the pool rather than sizing a private pool. On top of the per-job cap,
// Scheduler.SetTenantQuota bounds how many slots ALL jobs of one tenant
// (Config.Tenant) may hold at once — multi-tenant pool sharing where a
// saturating tenant cannot starve the rest; per-tenant usage is reported
// in PoolStats.Tenants. Scheduler.Submit returns an Execution handle with
// Wait, Cancel, and live Status; the package-level Run is the synchronous
// wrapper on the shared DefaultScheduler. Cancellation is context-based
// end-to-end: canceling the submission context (or the handle) halts
// dispatch, stops in-flight tasks at their next check, and releases every
// partial output and spill.
//
// # Fault tolerance
//
// Every task attempt is a retryable, verifiable, isolated unit. A failed
// attempt's error is CLASSIFIED: transient errors (I/O hiccups, injected
// faults) relaunch the task after exponential backoff with jitter, up to
// Config.MaxTaskRetries times; permanent errors (storage corruption —
// errors.Is(err, storage.ErrCorruptBlock) — cancellation, and exhausted
// retry budgets) fail the job. Attempts are ISOLATED: each writes spill
// files and temp outputs under attempt-qualified names, so a retry never
// collides with its failed predecessor's files, and a failed attempt's
// partial spills, buffered emissions, and counter deltas — the counts of
// the scans it ran (blocks read and skipped, rows filtered, bytes read)
// included — are all rolled back, so job counters sum committed attempts
// only, as Hadoop's do. When a task runs longer than
// Config.SpeculativeSlowdown times the median duration of its completed
// siblings and slots are idle, the scheduler launches one duplicate
// (speculative) attempt; whichever
// attempt finishes first COMMITS — publishes its spills, closes its
// per-task output, or writes its held output chunks under the scheduler's
// commit claim, which is idempotent per task, not per attempt — and the
// loser is canceled and its partial outputs aborted (Abort is part of
// every Output). The counters manimal.tasks.retried,
// manimal.tasks.speculative, and manimal.tasks.corrupt_blocks report what
// the machinery did; Status.Attempts carries the per-task attempt
// history. Package faultinject exercises all of it deterministically.
//
// # Multi-query optimization
//
// Every map task scans its split privately: what a job reads is exactly
// the plan it was given (one input per plan, see OpenFile and
// OpenIndexed). The multi-query optimization lives above this package:
// manimal.cache.hits / manimal.cache.misses report the System-level
// result cache (package manimal), which serves identical re-submissions
// from committed output without consuming any task slot here.
//
// # Buffer ownership
//
// The per-record hot paths run without allocations by reusing buffers, so
// record lifetimes follow an explicit contract:
//
//   - BatchIter.Batch() and everything borrowed from it (column slices,
//     the selection vector, the key column, materialized records'
//     string/bytes fields) are valid only until the next call to Next().
//     Retainers copy.
//   - The record a Mapper without MapBatch is handed is one reused record
//     the engine materializes each row into: valid only until Map returns.
//     Mappers that retain it (or datums extracted from its string or bytes
//     fields) must call Clone().
//   - Emit (interp.Context.Emit and Output.Write) fully serializes its key
//     and value before returning, so mappers and reducers may emit the
//     reused record an iterator handed them.
//   - The shuffle buffers pairs in per-partition byte slabs (a task that
//     folds an int64-sum Combine keeps one running sum per distinct key
//     instead), spills each sorted run into one spill image per spill
//     (kept in memory up to 1 MiB, a file in WorkDir beyond), and merges
//     through reused cursor buffers.
//     Values decoded for reducers are freshly allocated — a reducer may
//     buffer them across Next() calls.
package mapreduce

import (
	"fmt"
	"time"

	"manimal/internal/analyzer"
	"manimal/internal/interp"
	"manimal/internal/serde"
)

// Mapper processes one input record. Implementations are created per task
// (per-task member-variable state, like a Hadoop task JVM) and are never
// shared across goroutines. The engine maps every split as batches: a
// Mapper that is not also a BatchMapper has each selected row materialized
// into one reused record and passed to Map with the row's key
// (serde.Batch.RowKey).
type Mapper interface {
	Map(key serde.Datum, rec *serde.Record, ctx *interp.Context) error
}

// BatchMapper is optionally implemented by mappers that consume a whole
// column-vector batch at a time (late materialization: only rows in the
// batch's selection vector are materialized and mapped). MapBatch over a
// batch must be observably identical to calling Map for each selected row
// with the row's key, serde.Batch.RowKey.
type BatchMapper interface {
	MapBatch(b *serde.Batch, ctx *interp.Context) error
}

// Reducer processes one key group.
type Reducer interface {
	Reduce(key serde.Datum, values interp.ValueIter, ctx *interp.Context) error
}

// MapperFactory builds one mapper instance per map task.
type MapperFactory func() (Mapper, error)

// ReducerFactory builds one reducer instance per reduce task — and, as
// Job.Combiner, one combiner instance per map task (built at the task's
// first combine), so Combine has the same one-instance-per-task
// member-variable state Map and Reduce have. Under Job.FoldSum a map task
// folds instead of combining, and builds its combiner only if it stops
// folding.
type ReducerFactory func() (Reducer, error)

// MapInput pairs an input source with the mapper that consumes it,
// supporting heterogeneous multi-input jobs (e.g. a repartition join reads
// UserVisits and Rankings with different map functions).
type MapInput struct {
	Input  Input
	Mapper MapperFactory
	// Aggregate, when set, says what Mapper's Map does; a map task that
	// folds its Combine then runs it as a column kernel and never builds
	// Mapper (see aggKernel).
	Aggregate *analyzer.AggregateDescriptor
}

// Output receives the job's final key/value pairs. The engine serializes
// calls to Write and ends every output with exactly one outcome: Close
// when its task (or, for a shared Job.Output, the job) succeeds, Abort —
// discard what was written and remove any partial file, leaving nothing
// on disk — when it fails, is canceled, or Close itself fails. Abort must
// be safe to repeat and after a failed Close.
type Output interface {
	Write(key serde.Datum, value interp.EmitValue) error
	Close() error
	Abort() error
}

// SharedOutput is an Output a job's tasks share (Job.Output). Besides
// pair-by-pair Write it takes a committed task's pairs as the bytes the
// task framed them in — the one KV framing, see kvEncoder — and stores
// them as they are, never decoded. Its unexported method keeps the
// implementations in this package: KVFileOutput and DiscardOutput.
type SharedOutput interface {
	Output
	// writeFramed appends pairs framed pairs held in chunks, in order; a
	// frame may straddle chunks. It must not retain chunks.
	writeFramed(chunks [][]byte, pairs uint64) error
}

// Config tunes one job execution.
type Config struct {
	// NumReducers is the reduce-task count; 0 means DefaultNumReducers.
	// Ignored for map-only jobs.
	NumReducers int
	// MaxParallelTasks caps how many of this job's tasks may occupy
	// scheduler slots at once — a per-job fairness cap, not a pool size
	// (the pool is the Scheduler's); 0 means DefaultMaxParallelTasks. It
	// also sets the job's task-count target (about 2× this many splits).
	MaxParallelTasks int
	// WorkDir holds shuffle spill files; required for jobs with a reduce
	// phase. It is created by the job's first spill too large to stay in
	// memory, so it may not exist when the job starts, or ever.
	WorkDir string
	// SpillBufferBytes is the per-task in-memory shuffle buffer before a
	// sorted spill; 0 means DefaultSpillBufferBytes.
	SpillBufferBytes int
	// StartupDelay simulates the job-launch latency of a real cluster
	// (paper Appendix D observes up to 15 s for Hadoop). The scheduler
	// waits it out as a cancellable admission delay that occupies no task
	// slot. Zero by default so tests run fast; benchmarks set it to model
	// startup-dominated regimes.
	StartupDelay time.Duration
	// Partitioner routes intermediate keys to reduce partitions; nil means
	// HashPartitioner. Sharded index builds install a RangePartitioner so
	// each reduce task receives one contiguous slice of the key space.
	Partitioner Partitioner
	// MaxTaskRetries caps how many times one task is relaunched after a
	// TRANSIENT failure (so a task gets up to 1+MaxTaskRetries attempts).
	// 0 means DefaultMaxTaskRetries; negative disables retries. Permanent
	// failures (corruption, cancellation, malformed programs) never retry.
	MaxTaskRetries int
	// RetryBackoff is the base delay before the first retry; each further
	// retry doubles it, with jitter. 0 means DefaultRetryBackoff; it is
	// capped at maxRetryBackoff.
	RetryBackoff time.Duration
	// SpeculativeSlowdown triggers speculative execution: when a running
	// task's elapsed time exceeds this multiple of the median duration of
	// its completed sibling tasks (and slots are idle), the scheduler
	// launches one duplicate attempt; the first finisher commits and the
	// loser is canceled. 0 means DefaultSpeculativeSlowdown; negative
	// disables speculation.
	SpeculativeSlowdown float64
	// Tenant names the pool-share quota this job's task attempts draw on
	// (Scheduler.SetTenantQuota): all jobs of one tenant share that
	// tenant's slot budget, on top of the per-job MaxParallelTasks cap.
	// Empty means unquotaed.
	Tenant string
	// Conf carries the job parameters programs read via ctx.Conf*.
	Conf map[string]serde.Datum
}

// Defaults for Config zero values.
const (
	DefaultNumReducers      = 4
	DefaultMaxParallelTasks = 4
	DefaultSpillBufferBytes = 32 << 20
	// DefaultMaxTaskRetries relaunches a transiently failed task up to
	// this many times before the job fails.
	DefaultMaxTaskRetries = 3
	// DefaultRetryBackoff is the base delay before the first retry.
	DefaultRetryBackoff = 10 * time.Millisecond
	// maxRetryBackoff caps the exponential growth of retry delays.
	maxRetryBackoff = 2 * time.Second
	// DefaultSpeculativeSlowdown launches a duplicate attempt once a task
	// runs this multiple of its completed siblings' median duration.
	DefaultSpeculativeSlowdown = 3.0
)

func (c *Config) numReducers() int {
	if c.NumReducers > 0 {
		return c.NumReducers
	}
	return DefaultNumReducers
}

func (c *Config) maxParallel() int {
	if c.MaxParallelTasks > 0 {
		return c.MaxParallelTasks
	}
	return DefaultMaxParallelTasks
}

func (c *Config) spillBuffer() int {
	if c.SpillBufferBytes > 0 {
		return c.SpillBufferBytes
	}
	return DefaultSpillBufferBytes
}

func (c *Config) partitioner() Partitioner {
	if c.Partitioner != nil {
		return c.Partitioner
	}
	return HashPartitioner{}
}

func (c *Config) maxRetries() int {
	switch {
	case c.MaxTaskRetries > 0:
		return c.MaxTaskRetries
	case c.MaxTaskRetries < 0:
		return 0
	default:
		return DefaultMaxTaskRetries
	}
}

func (c *Config) retryBackoff() time.Duration {
	if c.RetryBackoff > 0 {
		return c.RetryBackoff
	}
	return DefaultRetryBackoff
}

func (c *Config) speculativeSlowdown() float64 {
	switch {
	case c.SpeculativeSlowdown > 0:
		return c.SpeculativeSlowdown
	case c.SpeculativeSlowdown < 0:
		return 0 // disabled
	default:
		return DefaultSpeculativeSlowdown
	}
}

// Job describes one MapReduce execution.
type Job struct {
	Name     string
	Inputs   []MapInput
	Reducer  ReducerFactory // nil = map-only job
	Combiner ReducerFactory // optional map-side pre-aggregation
	// FoldSum says the plan recognized Combiner as an int64 sum of a
	// group's values re-emitted under the group's own key
	// (analyzer.CombineDescriptor "sum"), so map tasks fold each emitted
	// int into its key's running sum instead of calling Combiner (see
	// shuffleEmitter). Combiner must still be that Combine, for the keys a
	// task combines after a record or non-int value unfolds it.
	FoldSum bool
	// SemiJoin, when set on a two-input job with a Reducer, says the plan
	// proved that Reduce emits nothing, and does nothing else observable,
	// for a key no value of input SemiJoin.Build carries
	// (optimizer.ChooseSemiJoin). The map phase then runs as two waves:
	// the build input's map tasks first, each committed attempt adding the
	// distinct keys it emitted to an exact set, then the other input's,
	// whose batches keep only rows whose join field is in the set before
	// Map. A set larger than the spill budget (Config.SpillBufferBytes) is
	// dropped and the second wave runs unfiltered. Map tasks keep the
	// indexes they have without it, so the order of a key's values, and
	// the output, do not change.
	SemiJoin *SemiJoin
	// Output is the job's one shared output. Each reduce task (or map
	// task of a map-only job) holds its whole output in memory until it
	// commits, framed once at emit into pooled fixed-size chunks, and a
	// committed task's chunks are written as they are once every
	// lower-numbered task's have been. So Output holds one task's pairs
	// together, in task order — reduce partition order, or a map-only
	// job's split order — and its bytes do not depend on which task
	// commits first. The engine closes Output once every task has
	// committed and aborts it if the job fails.
	Output SharedOutput
	// OutputFor, when set, replaces Output with one private output per
	// task: reduce jobs open one output per reduce partition (how B+Tree
	// index builds give every reducer its own tree or shard file), map-only
	// jobs one per map task in split order (how parallel record-file builds
	// write ordered segments). The engine opens each output when its task
	// attempt starts, writes it directly — nothing is buffered — closes it
	// when the attempt commits, and aborts it when the attempt fails or
	// loses; per-task outputs need no write serialization. Exactly one of
	// Output and OutputFor must be set.
	OutputFor func(task int) (Output, error)
	Config    Config
}

// Validate checks the job is runnable.
func (j *Job) Validate() error {
	if len(j.Inputs) == 0 {
		return fmt.Errorf("mapreduce: job %q has no inputs", j.Name)
	}
	for i, in := range j.Inputs {
		if in.Input == nil || in.Mapper == nil {
			return fmt.Errorf("mapreduce: job %q input %d incomplete", j.Name, i)
		}
	}
	if (j.Output == nil) == (j.OutputFor == nil) {
		return fmt.Errorf("mapreduce: job %q needs exactly one of Output and OutputFor", j.Name)
	}
	if sj := j.SemiJoin; sj != nil && (len(j.Inputs) != 2 || sj.Build < 0 || sj.Build > 1 || j.Reducer == nil || sj.Field == "") {
		return fmt.Errorf("mapreduce: job %q: a semi-join needs two inputs, a build input among them, a Reducer and a join field", j.Name)
	}
	if j.Reducer != nil && j.Config.WorkDir == "" {
		return fmt.Errorf("mapreduce: job %q needs Config.WorkDir for its shuffle", j.Name)
	}
	return nil
}

// Result reports a completed job.
type Result struct {
	Counters *Counters
	Duration time.Duration
}
