// Package manimal is a Go reproduction of MANIMAL ("Automatic Optimization
// for MapReduce Programs", Jahani, Cafarella & Ré, PVLDB 4(6), 2011): a
// system that statically analyzes unmodified MapReduce programs, detects
// relational-style optimization opportunities — selection, projection,
// delta-compression, and direct operation on compressed data — and executes
// the programs against automatically-built indexes, with no change to
// program output.
//
// The three components of paper Figure 1 map to this API as follows:
//
//   - the analyzer:   System.Analyze (package internal/analyzer)
//   - the optimizer:  the plan stage of a submission (package
//     internal/optimizer, reading the index catalog kept by package
//     internal/catalog)
//   - execution fabric: package internal/fabric, which adapts programs to
//     the MapReduce engine (package internal/mapreduce) and opens the
//     physical input the chosen plan calls for; programs themselves run in
//     the interpreter (package internal/interp)
//
// Programs are written in a Go-syntax mapper language (see ParseProgram);
// the analyzed representation is exactly the executed representation.
//
// Quick start:
//
//	sys, _ := manimal.NewSystem(dir)
//	prog, _ := manimal.ParseProgram("topurls", src)
//	report, _ := sys.Submit(manimal.JobSpec{
//	    Name:       "topurls",
//	    Inputs:     []manimal.InputSpec{{Path: "webpages.rec", Program: prog}},
//	    OutputPath: "out.kv",
//	    Conf:       manimal.Conf{"threshold": manimal.Int(1)},
//	})
//
// Submitting a job yields not just a result but also the synthesized
// index-generation programs; run them with System.BuildIndex (the paper
// leaves the decision to the administrator, like CREATE INDEX), and
// subsequent submissions of the same program run against the index.
//
// # Concurrent job service
//
// A System is a long-lived job service, not a one-shot runner. Every
// execution — submitted jobs and index builds alike — runs on one shared
// mapreduce.Scheduler: a bounded pool of task slots multiplexed across all
// concurrently running jobs with per-job fairness (see package mapreduce).
// System.SubmitAsync is the primary submission path: it analyzes and plans
// synchronously, then returns a JobHandle with Wait, Cancel, and live
// Status (phase, task progress, counter snapshot). Submit is the thin
// synchronous wrapper. The manimal CLI exposes the same service over HTTP
// (`manimal serve`, package internal/service).
//
// Every submission passes through the same stages (submitJournaled):
// resolve (validate, claim the output path, read input footers) → plan
// (Figure 1's analyze and optimize) → record (journal it) → probe (result
// cache) → admit (name the scratch space, scheduler) → run (Figure 1's
// execute; a corrupt index variant is quarantined and the job goes back to
// plan) →
// finish, the single exit for a refusal at any stage, a cache hit and a
// completed execution alike: only it journals the terminal state, releases
// the output claim, removes scratch space and closes Done.
package manimal

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"manimal/internal/analyzer"
	"manimal/internal/catalog"
	"manimal/internal/durable"
	"manimal/internal/fabric"
	"manimal/internal/faultinject"
	"manimal/internal/indexgen"
	"manimal/internal/interp"
	"manimal/internal/journal"
	"manimal/internal/lang"
	"manimal/internal/mapreduce"
	"manimal/internal/optimizer"
	"manimal/internal/serde"
	"manimal/internal/storage"
)

// Datum re-exports the scalar value type used for keys, config parameters,
// and record fields. Read one through the accessor of its Kind — Int(),
// Float(), Str(), Raw(), Flag() — see the serde package documentation.
type Datum = serde.Datum

// Record re-exports the typed tuple programs consume.
type Record = serde.Record

// Schema re-exports the record schema type.
type Schema = serde.Schema

// Conf carries job parameters read by programs via ctx.ConfInt etc.
type Conf = map[string]serde.Datum

// Scalar constructors, re-exported for ergonomic job configuration.
var (
	Int    = serde.Int
	Float  = serde.Float
	String = serde.String
	Bool   = serde.Bool
)

// ParseSchema parses "name:kind,..." schema text.
func ParseSchema(text string) (*Schema, error) { return serde.ParseSchema(text) }

// Program is a parsed, validated mapper-language program.
type Program struct {
	Name   string
	Source string
	parsed *lang.Program
}

// ParseProgram parses and validates mapper-language source (top-level func
// Map, optional Reduce and Combine, optional package-level vars).
func ParseProgram(name, source string) (*Program, error) {
	p, err := lang.Parse(source)
	if err != nil {
		return nil, err
	}
	return &Program{Name: name, Source: source, parsed: p}, nil
}

// Parsed exposes the underlying language object (for tooling like the CLI's
// explain command).
func (p *Program) Parsed() *lang.Program { return p.parsed }

// Descriptor re-exports the analyzer's optimization descriptor.
type Descriptor = analyzer.Descriptor

// JoinDescriptor re-exports the analyzer's two-input join shape.
type JoinDescriptor = analyzer.JoinDescriptor

// Plan re-exports the optimizer's execution descriptor.
type Plan = optimizer.Plan

// Plan kinds re-exported for tooling that inspects reports.
const (
	PlanOriginal   = optimizer.PlanOriginal
	PlanBTree      = optimizer.PlanBTree
	PlanRecordFile = optimizer.PlanRecordFile
	PlanCached     = optimizer.PlanCached
)

// IndexSpec re-exports the synthesized index description.
type IndexSpec = indexgen.Spec

// BuildConfig re-exports the index build tuning (shard count, task
// parallelism, partitioner sample size).
type BuildConfig = indexgen.BuildConfig

// CatalogEntry re-exports a catalog index record.
type CatalogEntry = catalog.Entry

// CacheEntry re-exports a result-cache record.
type CacheEntry = catalog.CacheEntry

// System owns a catalog directory and a scratch area, and runs jobs and
// index builds on a shared task-slot scheduler.
type System struct {
	dir     string
	workDir string
	cat     *catalog.Catalog
	sched   *mapreduce.Scheduler
	// share is the scan-sharing registry concurrently running jobs of this
	// System use to ride one physical scan per input block range; nil when
	// sharing is disabled (Options.DisableScanSharing).
	share *storage.ScanShare
	// noCache disables the fingerprint-keyed result cache
	// (Options.DisableResultCache).
	noCache bool
	// jnl is the durable job journal (Options.Journal): every accepted
	// submission is recorded before admission and its terminal state after,
	// so Recover can replay what a crashed coordinator owed. Nil when
	// journaling is off (the default for embedded use; `manimal serve`
	// turns it on).
	jnl *journal.Journal

	mu          sync.Mutex
	liveOutputs map[string]string // normalized output path -> job name
}

// Options tunes a System beyond its directory.
type Options struct {
	// SchedulerSlots gives the System a private scheduler pool of that
	// many task slots. 0 (the default) shares the process-wide scheduler,
	// so every System in the process draws from one slot budget.
	SchedulerSlots int
	// DisableScanSharing turns off shared physical scans: every map task
	// scans its input privately, as before multi-query optimization.
	DisableScanSharing bool
	// DisableResultCache turns off the fingerprint-keyed result cache:
	// identical re-submissions re-execute.
	DisableResultCache bool
	// Journal enables the durable job journal in <dir>/journal: accepted
	// submissions are recorded (program source, conf, inputs, output,
	// tenant) before admission, terminal states after, and System.Recover
	// can replay incomplete jobs after a crash. Off by default — journal
	// writes fsync on the submission path, which embedded/test systems and
	// benchmarks should not pay; `manimal serve` enables it.
	Journal bool
}

// NewSystem opens (or initializes) a Manimal system rooted at dir: the
// catalog lives in dir, scratch shuffle space in dir/work. Jobs run on
// the process-wide shared scheduler.
func NewSystem(dir string) (*System, error) {
	return NewSystemWith(dir, Options{})
}

// NewSystemWith is NewSystem with explicit options.
func NewSystemWith(dir string, opts Options) (*System, error) {
	cat, err := catalog.Open(dir)
	if err != nil {
		return nil, err
	}
	workDir := filepath.Join(dir, "work")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, fmt.Errorf("manimal: %w", err)
	}
	sched := mapreduce.DefaultScheduler()
	if opts.SchedulerSlots > 0 {
		sched = mapreduce.NewScheduler(opts.SchedulerSlots)
	}
	var share *storage.ScanShare
	if !opts.DisableScanSharing {
		share = storage.NewScanShare()
	}
	var jnl *journal.Journal
	if opts.Journal {
		jnl, err = journal.Open(filepath.Join(dir, "journal"))
		if err != nil {
			return nil, err
		}
	}
	return &System{dir: dir, workDir: workDir, cat: cat, sched: sched,
		share:       share,
		noCache:     opts.DisableResultCache,
		jnl:         jnl,
		liveOutputs: make(map[string]string)}, nil
}

// Journal exposes the durable job journal, or nil when Options.Journal
// was not set.
func (s *System) Journal() *journal.Journal { return s.jnl }

// Close flushes what the System keeps in memory between restarts — the
// result cache's hit counts — and releases the cache index and journal
// files. Call it once no job is in flight; jobs and their outputs are
// durable without it.
func (s *System) Close() error {
	err := s.cat.Close()
	if s.jnl != nil {
		err = errors.Join(err, s.jnl.Close())
	}
	return err
}

// SetTenantQuota caps how many scheduler slots the tenant's task attempts
// may hold at once across all of that tenant's jobs (maxSlots <= 0
// removes the cap). Jobs name their tenant via JobSpec.Tenant.
func (s *System) SetTenantQuota(tenant string, maxSlots int) {
	s.sched.SetTenantQuota(tenant, maxSlots)
}

// claimOutput reserves an output path for a job's lifetime: two live jobs
// writing one file would silently corrupt it (each truncates and writes
// from offset 0), which serialized execution used to prevent by
// construction. Returns the normalized key to release later.
func (s *System) claimOutput(path, jobName string) (string, error) {
	key := path
	if abs, err := filepath.Abs(path); err == nil {
		key = abs
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if holder, busy := s.liveOutputs[key]; busy {
		return "", fmt.Errorf("manimal: output path %s is being written by in-flight job %q", path, holder)
	}
	s.liveOutputs[key] = jobName
	return key, nil
}

func (s *System) releaseOutput(key string) {
	s.mu.Lock()
	delete(s.liveOutputs, key)
	s.mu.Unlock()
}

// scratchSeq numbers the scratch directories this process names.
var scratchSeq atomic.Int64

// scratchDir names a fresh scratch directory under the work directory
// without creating it: the engine creates it at the job's first disk
// spill. The process ID keeps the name unique among live processes, the
// sequence among this process's jobs.
func (s *System) scratchDir(kind string) string {
	return filepath.Join(s.workDir, fmt.Sprintf("%s-%d-%d", kind, os.Getpid(), scratchSeq.Add(1)))
}

// Catalog exposes the index catalog.
func (s *System) Catalog() *catalog.Catalog { return s.cat }

// PoolStats re-exports the scheduler pool snapshot type.
type PoolStats = mapreduce.PoolStats

// PoolStats snapshots the System's scheduler pool (slot budget, running
// tasks, active jobs).
func (s *System) PoolStats() PoolStats { return s.sched.Stats() }

// Analyze runs the static analyzer against the program for an input file's
// schema.
func (s *System) Analyze(p *Program, inputPath string) (*Descriptor, error) {
	schema, _, err := inputInfo(inputPath)
	if err != nil {
		return nil, err
	}
	return analyzer.Analyze(p.parsed, schema)
}

// AnalyzeSchema is Analyze with an explicit schema (no file required).
func AnalyzeSchema(p *Program, schema *Schema) (*Descriptor, error) {
	return analyzer.Analyze(p.parsed, schema)
}

// DetectJoin re-exports the analyzer's two-input join-shape detection for
// tooling: nil unless both maps re-key on a plain field of their own input.
func DetectJoin(left *Program, leftSchema *Schema, right *Program, rightSchema *Schema) *JoinDescriptor {
	return analyzer.DetectJoin(left.parsed, leftSchema, right.parsed, rightSchema)
}

// inputInfo reads an input file's footer metadata: its schema and record
// count (the cardinality the join detector reports per side).
func inputInfo(path string) (*serde.Schema, int64, error) {
	r, err := storage.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer r.Close()
	return r.Schema(), r.NumRecords(), nil
}

// InputSpec names one input file and the program whose Map consumes it.
// Multi-input jobs (e.g. repartition joins) list several.
type InputSpec struct {
	Path    string
	Program *Program
}

// JobSpec describes one job submission.
type JobSpec struct {
	Name   string
	Inputs []InputSpec
	// OutputPath receives the final KV output file.
	OutputPath string
	// Conf holds the job parameters programs read via ctx.Conf*.
	Conf Conf
	// MapOnly skips the shuffle/reduce phase even if the program has a
	// Reduce function.
	MapOnly bool
	// SortedOutput requires key-sorted final output, which (paper footnote
	// 1) disables direct operation on map output keys.
	SortedOutput bool
	// SafeMode avoids optimizations that would modify detected side
	// effects such as debug logging (paper footnote 2), at the cost of
	// reduced optimization opportunities.
	SafeMode bool
	// DisableOptimization runs the job exactly as a conventional MapReduce
	// system would: no analysis, no indexes. This is the paper's "Hadoop"
	// baseline.
	DisableOptimization bool
	// NumReducers / MaxParallelTasks / StartupDelay tune the engine; zero
	// values use engine defaults. MaxParallelTasks caps this job's share
	// of the scheduler's shared slot pool; StartupDelay is a cancellable
	// admission wait modeling cluster job-launch latency.
	NumReducers      int
	MaxParallelTasks int
	StartupDelay     time.Duration
	// Tenant names the pool-share quota this job draws on (see
	// System.SetTenantQuota): all jobs of one tenant share that tenant's
	// scheduler-slot budget. Empty means unquotaed. The HTTP service fills
	// it from the X-Manimal-Tenant request header.
	Tenant string
}

// InputReport carries per-input analysis and planning results.
type InputReport struct {
	Path       string
	Descriptor *Descriptor
	Plan       *Plan
	// IndexPrograms are the synthesized index-generation programs for this
	// input (primary first). They are returned, not run: building an index
	// is the administrator's call, via System.BuildIndex.
	IndexPrograms []IndexSpec
}

// JobReport is the outcome of a submission.
type JobReport struct {
	Inputs []InputReport
	// Join is set when a two-input submission matches the repartition-join
	// shape (each map re-keys on a field of its own input); nil otherwise.
	Join     *JoinDescriptor
	Result   *mapreduce.Result
	Duration time.Duration
}

// JobStatus re-exports the live execution status (phase, task progress,
// counter snapshot) read through JobHandle.Status.
type JobStatus = mapreduce.Status

// JobHandle tracks one asynchronously submitted job. The analysis and
// planning results are available immediately (Inputs); the execution
// result arrives through Wait. A job that hits index corruption may be
// transparently resubmitted with a fresh plan (see SubmitAsync), so the
// underlying execution can change over the handle's lifetime.
type JobHandle struct {
	name      string
	journalID string
	report    *JobReport
	err       error
	done      chan struct{}

	mu       sync.Mutex
	exec     *mapreduce.Execution
	canceled bool
}

// current returns the execution the handle presently tracks.
func (h *JobHandle) current() *mapreduce.Execution {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.exec
}

// swap installs a replanned execution. It refuses (returning false) when
// the job was already canceled, so a cancellation can never be outrun by
// a concurrent replan resubmission.
func (h *JobHandle) swap(e *mapreduce.Execution) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.canceled {
		return false
	}
	h.exec = e
	return true
}

// Name returns the submitted job's name.
func (h *JobHandle) Name() string { return h.name }

// JournalID returns the job's durable journal ID ("" when the System
// journal is disabled). The ID survives coordinator restarts: a job
// resubmitted by Recover keeps it, and the HTTP service uses it as the
// job's public ID so clients can still resolve it after eviction.
func (h *JobHandle) JournalID() string { return h.journalID }

// Inputs returns the per-input analysis and planning reports, available
// as soon as SubmitAsync returns.
func (h *JobHandle) Inputs() []InputReport { return h.report.Inputs }

// Join returns the detected join shape (nil if none), available as soon as
// SubmitAsync returns.
func (h *JobHandle) Join() *JoinDescriptor { return h.report.Join }

// Status snapshots the job's phase, task progress, and counters; safe to
// call at any time from any goroutine. A job served from the result cache
// never executed: its status is synthesized as already done, with the
// replayed counters.
func (h *JobHandle) Status() JobStatus {
	if e := h.current(); e != nil {
		return e.Status()
	}
	st := JobStatus{Job: h.name, Phase: mapreduce.PhaseDone, Duration: h.report.Duration}
	if h.report.Result != nil && h.report.Result.Counters != nil {
		st.Counters = h.report.Result.Counters.Snapshot()
	}
	return st
}

// Cancel asks the job to stop; partial outputs and scratch space are
// cleaned up, and Wait returns a context.Canceled error. Canceling a job
// served from the result cache is a no-op (it was terminal at submission).
func (h *JobHandle) Cancel() {
	h.mu.Lock()
	h.canceled = true
	e := h.exec
	h.mu.Unlock()
	if e != nil {
		e.Cancel()
	}
}

// Done is closed once the job is terminal (result published, scratch
// space removed).
func (h *JobHandle) Done() <-chan struct{} { return h.done }

// Wait blocks until the job finishes and returns its report.
func (h *JobHandle) Wait() (*JobReport, error) {
	<-h.done
	if h.err != nil {
		return nil, h.err
	}
	return h.report, nil
}

// SubmitAsync analyzes, optimizes, and starts a job (paper Section 2.2's
// three-step walkthrough) without waiting for it: analysis and plan
// selection run synchronously (their results are on the returned handle),
// then the execution is handed to the System's scheduler, where it shares
// the task-slot pool with every other in-flight job and index build.
// Canceling ctx (or calling JobHandle.Cancel) stops the job and cleans up
// its partial output and scratch space.
//
// With the journal enabled (Options.Journal), the accepted submission is
// durably recorded before admission and its terminal state after — a
// journal write failure REFUSES the submission, so an accepted job is
// always recoverable by System.Recover.
func (s *System) SubmitAsync(ctx context.Context, spec JobSpec) (*JobHandle, error) {
	return s.submitJournaled(ctx, spec, "")
}

// submission is one job on its way through the stages of submitJournaled:
// each stage reads what earlier ones left here and adds its own.
type submission struct {
	spec JobSpec
	h    *JobHandle // carries the journal ID, the report and the live execution

	outputKey string          // resolve: the claim on the output path
	schemas   []*serde.Schema // resolve: per input, from the file footers
	counts    []int64         // resolve: per-input record counts

	cacheKey    string               // probe: "" = uncacheable or cache off
	cacheInputs []catalog.CacheInput // probe: input fingerprints under cacheKey

	work string // admit: scratch directory
}

// submitJournaled is SubmitAsync's body: resolve → plan → record → probe →
// admit → run → finish, leaving through finish whichever stage ends it — a
// refusal (a stage up to admit returns an error), a result-cache hit
// (probe), or the execution's end (run, on the job's own goroutine). jid
// names an existing journal entry when the submission is a recovery replay
// (Recover resubmits under the original ID, so the journal never forks);
// "" means a fresh submission that gets its own Begin record.
func (s *System) submitJournaled(ctx context.Context, spec JobSpec, jid string) (*JobHandle, error) {
	sub := &submission{spec: spec, h: &JobHandle{
		name: spec.Name, journalID: jid, report: &JobReport{}, done: make(chan struct{}),
	}}
	err := s.resolve(sub)
	if err == nil {
		err = s.plan(sub, "")
	}
	if err == nil {
		err = s.record(sub)
	}
	if err == nil && !s.probe(sub) {
		err = s.admit(ctx, sub)
	}
	if sub.h.current() != nil {
		go func() { s.finish(sub, s.run(ctx, sub)) }()
		return sub.h, nil
	}
	// Refused, or served from the result cache: terminal at submission.
	s.finish(sub, err)
	if err != nil {
		return nil, err
	}
	return sub.h, nil
}

// resolve validates the spec, claims the output path and reads every
// input's footer. Inputs are only opened for real by the execution's plan
// phase (lazyInput), so the claim is all a submission holds before admit.
func (s *System) resolve(sub *submission) error {
	spec := sub.spec
	if len(spec.Inputs) == 0 {
		return fmt.Errorf("manimal: job %q has no inputs", spec.Name)
	}
	if spec.OutputPath == "" {
		return fmt.Errorf("manimal: job %q has no output path", spec.Name)
	}
	var err error
	if sub.outputKey, err = s.claimOutput(spec.OutputPath, spec.Name); err != nil {
		return err
	}
	for _, ispec := range spec.Inputs {
		if ispec.Program == nil {
			return fmt.Errorf("manimal: job %q has no program for input %s", spec.Name, ispec.Path)
		}
		schema, records, err := inputInfo(ispec.Path)
		if err != nil {
			return err
		}
		sub.schemas = append(sub.schemas, schema)
		sub.counts = append(sub.counts, records)
		sub.h.report.Inputs = append(sub.h.report.Inputs, InputReport{Path: ispec.Path})
	}
	return nil
}

// plan chooses an execution plan for every input against the catalog as
// it is now (paper Figure 1: analyze, then optimize). It runs at
// submission and again whenever run has quarantined a corrupt index
// variant: the optimizer then skips that entry for the next variant or the
// original file, and note says why on each new plan. The analysis is kept.
func (s *System) plan(sub *submission, note string) error {
	spec, report := sub.spec, sub.h.report
	for i, ispec := range spec.Inputs {
		ir := &report.Inputs[i]
		if spec.DisableOptimization {
			ir.Plan = &optimizer.Plan{Kind: optimizer.PlanOriginal, InputPath: ir.Path}
			continue
		}
		if ir.Descriptor == nil {
			desc, err := analyzer.Analyze(ispec.Program.parsed, sub.schemas[i])
			if err != nil {
				return fmt.Errorf("manimal: analyzing %s for %s: %w", ispec.Program.Name, ir.Path, err)
			}
			ir.Descriptor = desc
			ir.IndexPrograms = indexgen.Synthesize(desc, sub.schemas[i])
		}
		ir.Plan = optimizer.Choose(ir.Descriptor, ir.Path, sub.schemas[i], s.cat.ForInput(ir.Path), spec.Conf,
			optimizer.Options{SortedOutput: spec.SortedOutput, SafeMode: spec.SafeMode})
		s.markSharedScan(ir.Plan)
		if note != "" {
			ir.Plan.Notes = append(ir.Plan.Notes, note)
		}
	}

	// Two-input jobs are checked for the repartition-join shape (paper
	// Benchmark 3 / examples/join): both maps re-keying on a plain field of
	// their own input. The detection is reported on the job and noted on
	// each side's plan for explain output.
	if len(spec.Inputs) == 2 && !spec.DisableOptimization {
		if report.Join == nil {
			report.Join = analyzer.DetectJoin(spec.Inputs[0].Program.parsed, sub.schemas[0], spec.Inputs[1].Program.parsed, sub.schemas[1])
		}
		if j := report.Join; j != nil {
			j.Left.Records, j.Right.Records = sub.counts[0], sub.counts[1]
			note := fmt.Sprintf("join detected: %s (left %d records, right %d records)", j, j.Left.Records, j.Right.Records)
			for i := range report.Inputs {
				report.Inputs[i].Plan.Notes = append(report.Inputs[i].Plan.Notes, note)
			}
		}
	}
	return nil
}

// record journals the accepted submission BEFORE any admission decision
// (the result-cache probe included), so a coordinator crash from here on
// leaves a replayable record. A failed journal write refuses the
// submission — an accepted job must always be recoverable. A recovery
// replay already has its record.
func (s *System) record(sub *submission) (err error) {
	if s.jnl != nil && sub.h.journalID == "" {
		sub.h.journalID, err = s.jnl.Begin(journalSubmission(sub.spec))
	}
	return err
}

// probe consults the result cache (multi-query optimization): an optimized
// submission whose identity (see cacheKey) matches a committed prior output
// has the cached artifact placed at its output path and is done, without
// occupying a scheduler slot or writing to the catalog. -noopt and SafeMode
// submissions never consult (or feed) the cache: they must execute
// conventionally.
func (s *System) probe(sub *submission) (served bool) {
	spec, report := sub.spec, sub.h.report
	if spec.DisableOptimization || spec.SafeMode || s.noCache {
		return false
	}
	sub.cacheKey, sub.cacheInputs = cacheKey(spec)
	if sub.cacheKey == "" {
		return false
	}
	entry, ok := s.cat.ServeCache(sub.cacheKey, spec.OutputPath)
	if !ok {
		return false
	}
	counters := mapreduce.NewCounters()
	counters.Add(mapreduce.CtrCacheHits, 1)
	counters.Add(mapreduce.CtrOutputRecords, entry.OutputRecords)
	for i := range report.Inputs {
		report.Inputs[i].Plan = &optimizer.Plan{
			Kind:      optimizer.PlanCached,
			InputPath: report.Inputs[i].Path,
			Applied:   []string{"result-cache"},
			Notes: []string{
				fmt.Sprintf("result cache hit: key %.12s…, served %d time(s) from %s",
					sub.cacheKey, entry.Hits, entry.Path),
			},
		}
	}
	report.Result = &mapreduce.Result{Counters: counters}
	return true
}

// admit hands the planned job to the scheduler, where from then on the
// execution owns the inputs and the output on every path. The first
// admission names the job's scratch directory — the engine creates it at
// the job's first spill too large to keep in memory, which a small job
// never has; a re-admission after a corruption replan reuses it and
// carries the failed round's fault-tolerance counters, so the final report
// covers the whole job.
func (s *System) admit(ctx context.Context, sub *submission) error {
	if err := faultinject.Fail(faultinject.PointAdmit, sub.spec.Name); err != nil {
		return err
	}
	if sub.work == "" {
		sub.work = s.scratchDir("job")
	}
	exec, err := s.sched.Submit(ctx, buildJob(sub.spec, sub.h.report, sub.work, s.share))
	if err != nil {
		return err
	}
	if failed := sub.h.current(); failed != nil {
		for _, name := range []string{
			mapreduce.CtrTasksRetried, mapreduce.CtrTasksSpeculative, mapreduce.CtrCorruptBlocks,
		} {
			if n := failed.Counters().Get(name); n != 0 {
				exec.Counters().Add(name, n)
			}
		}
	} else if sub.cacheKey != "" {
		exec.Counters().Add(mapreduce.CtrCacheMisses, 1)
	}
	if !sub.h.swap(exec) { // canceled while the replan was resubmitting
		exec.Cancel()
		exec.Wait()
		return context.Canceled
	}
	return nil
}

// maxCorruptReplans bounds quarantine-and-replan rounds per job. Every
// round must quarantine a distinct variant (the catalog skips CORRUPT
// entries on the next planning pass), and a plan reads at most one variant
// per input, so a small bound is plenty.
const maxCorruptReplans = 4

// run waits for the admitted execution and returns the job's error. A
// checksum failure inside a planned index variant is recoverable:
// quarantine the variant and go back through plan and admit. When that is
// not possible — another kind of error, corruption in an original input
// (no healthy replacement), replan budget exhausted, or the re-admission
// itself failed — the job fails with the error it hit.
func (s *System) run(ctx context.Context, sub *submission) error {
	report := sub.h.report
	for replans := 0; ; replans++ {
		res, err := sub.h.current().Wait()
		if err == nil {
			report.Result = res
			report.Duration = res.Duration
			if sub.cacheKey != "" {
				// Not storing costs the next identical submission a miss,
				// never this job its result.
				_ = s.cat.StoreCache(sub.cacheKey, sub.spec.OutputPath, sub.cacheInputs,
					res.Counters.Get(mapreduce.CtrOutputRecords))
			}
			return nil
		}
		var cbe *storage.CorruptBlockError
		if replans >= maxCorruptReplans || !errors.As(err, &cbe) {
			return err
		}
		target := corruptVariant(report, cbe)
		if target == "" || s.cat.Quarantine(target, cbe.Error()) != nil {
			return err
		}
		note := fmt.Sprintf("replanned (round %d): quarantined corrupt variant %s (%v)", replans+1, target, cbe)
		if s.plan(sub, note) != nil || s.admit(ctx, sub) != nil {
			return err
		}
	}
}

// corruptVariant names the index variant, read by some input's plan, that
// the corrupt block belongs to ("" if none: an original input is damaged).
// Sharded indexes report the shard file's path, not the manifest the plan
// names, so a manifest-path prefix matches too.
func corruptVariant(report *JobReport, cbe *storage.CorruptBlockError) string {
	for i := range report.Inputs {
		p := report.Inputs[i].Plan
		if p.Kind != optimizer.PlanOriginal && p.IndexPath != "" && strings.HasPrefix(cbe.Path, p.IndexPath) {
			return p.IndexPath
		}
	}
	return ""
}

// finish is the single exit of every submission: it journals the terminal
// state of a recorded job — before Done is observable, so a caller is never
// told "refused" or "finished" while the journal says "accepted" — removes
// the scratch directory (if a spill ever created it), releases the output
// claim and closes Done. Journal
// errors are dropped: the job itself already finished, and an entry left
// incomplete merely means the next Recover re-runs it — which the result
// cache and atomic per-task commit make harmless.
func (s *System) finish(sub *submission, err error) {
	h := sub.h
	h.err = err
	if s.jnl != nil && h.journalID != "" {
		state, errText := journal.StateDone, ""
		var recs int64
		if err != nil {
			state, errText = journal.StateFailed, err.Error()
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				state = journal.StateCanceled
			}
		} else if res := h.report.Result; res != nil && res.Counters != nil {
			recs = res.Counters.Get(mapreduce.CtrOutputRecords)
		}
		s.jnl.End(h.journalID, state, errText, recs)
	}
	if sub.work != "" {
		os.RemoveAll(sub.work)
	}
	if sub.outputKey != "" {
		s.releaseOutput(sub.outputKey)
	}
	close(h.done)
}

// buildJob assembles the engine job from the spec and the current plans.
// lazyInput and lazyKVOutput are single-use (an execution consumes them),
// so every submission — initial or corruption replan — builds fresh ones.
func buildJob(spec JobSpec, report *JobReport, jobWork string, share *storage.ScanShare) *mapreduce.Job {
	inputs := make([]mapreduce.MapInput, len(spec.Inputs))
	for i, ispec := range spec.Inputs {
		inputs[i] = mapreduce.MapInput{
			Input:  &lazyInput{plan: report.Inputs[i].Plan, share: share},
			Mapper: fabric.MapperFactory(ispec.Program.parsed),
		}
	}
	job := &mapreduce.Job{
		Name:   spec.Name,
		Inputs: inputs,
		Output: &lazyKVOutput{path: spec.OutputPath},
		Config: mapreduce.Config{
			NumReducers:      spec.NumReducers,
			MaxParallelTasks: spec.MaxParallelTasks,
			WorkDir:          jobWork,
			StartupDelay:     spec.StartupDelay,
			SortedOutput:     spec.SortedOutput,
			Tenant:           spec.Tenant,
			Conf:             spec.Conf,
		},
	}
	if !spec.MapOnly {
		lead := spec.Inputs[0].Program.parsed
		job.Reducer = fabric.ReducerFactory(lead)
		job.Combiner = fabric.CombinerFactory(lead)
	}
	return job
}

// markSharedScan flags a freshly chosen plan as eligible for shared
// physical scans. Only record-file block-range scans can share (B+Tree
// range reads keep private readers), and only when the System has a
// sharing registry; -noopt plans are never marked, so the conventional
// baseline stays fully conventional.
func (s *System) markSharedScan(plan *optimizer.Plan) {
	if s.share == nil || plan == nil || plan.Kind == optimizer.PlanBTree {
		return
	}
	plan.SharedScan = true
	plan.Notes = append(plan.Notes,
		"scan sharing: map tasks may ride one physical scan with concurrent jobs over the same file")
}

// cacheKey derives the result-cache identity of a submission, and the
// input fingerprints it embeds. What the key covers — exactly what
// determines the job's output — and what it leaves out is the contract
// documented on catalog.CacheEntry. An empty key marks the submission
// uncacheable (an input could not be fingerprinted or a program not
// canonicalized).
func cacheKey(spec JobSpec) (string, []catalog.CacheInput) {
	h := sha256.New()
	fmt.Fprintf(h, "manimal-result-cache-v1\n")
	fmt.Fprintf(h, "format=%d\n", storage.FormatVersion)
	fmt.Fprintf(h, "maponly=%t sorted=%t reducers=%d\n", spec.MapOnly, spec.SortedOutput, spec.NumReducers)
	var fps []catalog.CacheInput
	for _, ispec := range spec.Inputs {
		fp, err := catalog.Fingerprint(ispec.Path)
		if err != nil {
			return "", nil
		}
		canon, err := ispec.Program.parsed.Canonical()
		if err != nil {
			return "", nil
		}
		progHash := sha256.Sum256([]byte(canon))
		fps = append(fps, fp)
		fmt.Fprintf(h, "input=%s|%d|%d|%x\n", fp.Path, fp.SizeBytes, fp.ModTimeNanos, progHash)
	}
	keys := make([]string, 0, len(spec.Conf))
	for k := range spec.Conf {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d := spec.Conf[k]
		fmt.Fprintf(h, "conf=%s=%d:%s\n", k, d.Kind, d.String())
	}
	return hex.EncodeToString(h.Sum(nil)), fps
}

// EvictResultCache removes result-cache entries — every entry, or with
// staleOnly just those whose recorded input fingerprints no longer match
// the files on disk (plus quarantined ones) — and their artifact files. It
// returns the evicted entries.
func (s *System) EvictResultCache(staleOnly bool) ([]CacheEntry, error) {
	return s.cat.EvictCache(staleOnly)
}

// Submit analyzes, optimizes, and executes a job to completion: the thin
// synchronous wrapper around SubmitAsync.
func (s *System) Submit(spec JobSpec) (*JobReport, error) {
	h, err := s.SubmitAsync(context.Background(), spec)
	if err != nil {
		return nil, err
	}
	return h.Wait()
}

// journalSubmission converts a JobSpec into its durable journal form. The
// program SOURCE is journaled (the analyzed representation is the parsed
// source), so recovery needs no state beyond the journal itself.
func journalSubmission(spec JobSpec) journal.Submission {
	sub := journal.Submission{
		Name:                spec.Name,
		OutputPath:          spec.OutputPath,
		Conf:                confToJournal(spec.Conf),
		MapOnly:             spec.MapOnly,
		SortedOutput:        spec.SortedOutput,
		SafeMode:            spec.SafeMode,
		DisableOptimization: spec.DisableOptimization,
		NumReducers:         spec.NumReducers,
		MaxParallelTasks:    spec.MaxParallelTasks,
		Tenant:              spec.Tenant,
	}
	for _, in := range spec.Inputs {
		sub.Inputs = append(sub.Inputs, journal.Input{
			Path: in.Path, ProgramName: in.Program.Name, Program: in.Program.Source,
		})
	}
	return sub
}

// specFromJournal reconstructs a submittable JobSpec from a journal
// entry. StartupDelay is deliberately not journaled — it modeled the
// ORIGINAL submission's cluster launch latency — so recovered jobs start
// immediately.
func specFromJournal(sub journal.Submission) (JobSpec, error) {
	spec := JobSpec{
		Name:                sub.Name,
		OutputPath:          sub.OutputPath,
		Conf:                confFromJournal(sub.Conf),
		MapOnly:             sub.MapOnly,
		SortedOutput:        sub.SortedOutput,
		SafeMode:            sub.SafeMode,
		DisableOptimization: sub.DisableOptimization,
		NumReducers:         sub.NumReducers,
		MaxParallelTasks:    sub.MaxParallelTasks,
		Tenant:              sub.Tenant,
	}
	for _, in := range sub.Inputs {
		p, err := ParseProgram(in.ProgramName, in.Program)
		if err != nil {
			return JobSpec{}, fmt.Errorf("manimal: journaled program %s: %w", in.ProgramName, err)
		}
		spec.Inputs = append(spec.Inputs, InputSpec{Path: in.Path, Program: p})
	}
	return spec, nil
}

// confToJournal encodes conf datums as kind-tagged strings — JSON alone
// cannot round-trip the datum types (every number decodes as float64).
func confToJournal(c Conf) map[string]journal.ConfValue {
	if len(c) == 0 {
		return nil
	}
	out := make(map[string]journal.ConfValue, len(c))
	for k, d := range c {
		cv := journal.ConfValue{Kind: "string", Value: d.String()}
		switch d.Kind {
		case serde.KindInt64:
			cv.Kind = "int"
		case serde.KindFloat64:
			cv.Kind = "float"
		case serde.KindBool:
			cv.Kind = "bool"
		}
		out[k] = cv
	}
	return out
}

// confFromJournal decodes what confToJournal wrote.
func confFromJournal(m map[string]journal.ConfValue) Conf {
	if len(m) == 0 {
		return nil
	}
	c := make(Conf, len(m))
	for k, cv := range m {
		switch cv.Kind {
		case "int":
			v, _ := strconv.ParseInt(cv.Value, 10, 64)
			c[k] = Int(v)
		case "float":
			v, _ := strconv.ParseFloat(cv.Value, 64)
			c[k] = Float(v)
		case "bool":
			c[k] = Bool(cv.Value == "true")
		default:
			c[k] = String(cv.Value)
		}
	}
	return c
}

// RecoveredJob reports one incomplete journal entry Recover acted on.
type RecoveredJob struct {
	ID         string
	Name       string
	OutputPath string
	// Handle tracks the resubmitted execution. Nil when resubmission
	// failed — Err then says why, and the journal records the failure.
	Handle *JobHandle
	Err    error
}

// Recover replays the job journal after a coordinator crash: jobs that
// died mid-flight (journaled as accepted but never terminal) are marked
// interrupted, their orphaned scratch space and partial-output temp files
// are removed, and each is resubmitted idempotently under its ORIGINAL
// journal ID. Replay is safe because execution is idempotent at both
// ends: the result cache serves a re-submission whose output already
// committed, and the engine's atomic per-task commit means a partial
// output from the crashed run was never visible at the final path.
// Completed and canceled entries are left untouched — a canceled job
// stays canceled.
//
// Recover must run on a fresh System, before any new submissions; the
// returned handles are waited on like any SubmitAsync handle.
func (s *System) Recover(ctx context.Context) ([]RecoveredJob, error) {
	if s.jnl == nil {
		return nil, errors.New("manimal: Recover needs the job journal (Options.Journal)")
	}
	s.mu.Lock()
	busy := len(s.liveOutputs)
	s.mu.Unlock()
	if busy > 0 {
		return nil, errors.New("manimal: Recover must run before new submissions")
	}
	entries, err := s.jnl.Replay()
	if err != nil {
		return nil, err
	}
	// Scrub scratch space wholesale: completed jobs remove their job-* and
	// idx-* dirs on the way out, so anything still under work/ is orphaned
	// spill space from the crashed run.
	if des, err := os.ReadDir(s.workDir); err == nil {
		for _, de := range des {
			os.RemoveAll(filepath.Join(s.workDir, de.Name()))
		}
	}
	var out []RecoveredJob
	for i := range entries {
		e := &entries[i]
		if e.Complete() {
			continue
		}
		rec := RecoveredJob{ID: e.Sub.ID, Name: e.Sub.Name, OutputPath: e.Sub.OutputPath}
		s.jnl.Mark(e.Sub.ID, "interrupted: coordinator died mid-flight; resubmitted by recovery")
		durable.RemoveTemps(e.Sub.OutputPath)
		spec, err := specFromJournal(e.Sub)
		if err != nil {
			// An unparseable program can never run: journal the failure so
			// the next recovery does not retry it forever. (A submission
			// refused later is journaled by its own finish.)
			s.jnl.End(e.Sub.ID, journal.StateFailed, err.Error(), 0)
		} else {
			rec.Handle, err = s.submitJournaled(ctx, spec, e.Sub.ID)
		}
		rec.Err = err
		out = append(out, rec)
	}
	return out, nil
}

// BuildIndex runs an index-generation program over inputPath, writes the
// index to indexPath, and registers it in the catalog (the CREATE INDEX of
// Manimal's world). Builds run with default tuning — B+Trees sharded
// across reducers, record files scanned with full task parallelism; use
// BuildIndexWith to tune. The build's jobs run on the System's scheduler,
// concurrently with any in-flight submissions.
func (s *System) BuildIndex(spec IndexSpec, inputPath, indexPath string) (CatalogEntry, error) {
	return s.BuildIndexWith(spec, inputPath, indexPath, BuildConfig{})
}

// BuildIndexWith is BuildIndex with explicit build tuning.
func (s *System) BuildIndexWith(spec IndexSpec, inputPath, indexPath string, cfg BuildConfig) (CatalogEntry, error) {
	return s.BuildIndexCtx(context.Background(), spec, inputPath, indexPath, cfg)
}

// BuildIndexCtx is BuildIndexWith with a cancellation context: canceling
// ctx aborts the build and removes its partial index files.
func (s *System) BuildIndexCtx(ctx context.Context, spec IndexSpec, inputPath, indexPath string, cfg BuildConfig) (CatalogEntry, error) {
	jobWork := s.scratchDir("idx")
	defer os.RemoveAll(jobWork)
	entry, err := indexgen.BuildWith(ctx, s.sched, spec, inputPath, indexPath, jobWork, cfg)
	if err != nil {
		return CatalogEntry{}, err
	}
	if err := s.cat.Add(entry); err != nil {
		return CatalogEntry{}, err
	}
	return entry, nil
}

// BuildBestIndexes analyzes the program against the input and builds every
// synthesized index (primary combined index plus alternatives), returning
// the catalog entries. Index files are placed next to the input file with
// a .idxN suffix.
func (s *System) BuildBestIndexes(p *Program, inputPath string) ([]CatalogEntry, error) {
	return s.BuildBestIndexesWith(p, inputPath, BuildConfig{})
}

// BuildBestIndexesWith is BuildBestIndexes with explicit build tuning.
func (s *System) BuildBestIndexesWith(p *Program, inputPath string, cfg BuildConfig) ([]CatalogEntry, error) {
	if p == nil {
		return nil, fmt.Errorf("manimal: no program to build indexes of %s for", inputPath)
	}
	schema, _, err := inputInfo(inputPath)
	if err != nil {
		return nil, err
	}
	desc, err := analyzer.Analyze(p.parsed, schema)
	if err != nil {
		return nil, err
	}
	specs := indexgen.Synthesize(desc, schema)
	var out []CatalogEntry
	for i, ispec := range specs {
		indexPath := fmt.Sprintf("%s.idx%d", inputPath, i)
		e, err := s.BuildIndexWith(ispec, inputPath, indexPath, cfg)
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
	return out, nil
}

// ReadOutput loads a job's KV output file.
func ReadOutput(path string) ([]mapreduce.KVPair, error) { return mapreduce.ReadKVFile(path) }

// lazyInput defers opening a plan's physical input until the execution's
// plan phase first needs it. A service may queue far more submissions
// than the scheduler runs, and every eager open would hold file
// descriptors for the whole queue wait; lazily, descriptors scale with
// the running jobs. Open errors surface from the plan phase (Splits)
// instead of from SubmitAsync.
type lazyInput struct {
	plan  *optimizer.Plan
	share *storage.ScanShare

	mu  sync.Mutex
	in  mapreduce.Input
	err error
}

func (l *lazyInput) open() (mapreduce.Input, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.in == nil && l.err == nil {
		l.in, l.err = fabric.InputForPlanShared(l.plan, l.share)
	}
	return l.in, l.err
}

// Schema implements mapreduce.Input.
func (l *lazyInput) Schema() *serde.Schema {
	in, err := l.open()
	if err != nil {
		return nil
	}
	return in.Schema()
}

// Splits implements mapreduce.Input.
func (l *lazyInput) Splits(target int) ([]mapreduce.Split, error) {
	in, err := l.open()
	if err != nil {
		return nil, err
	}
	return in.Splits(target)
}

// BytesRead implements mapreduce.Input.
func (l *lazyInput) BytesRead() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.in == nil {
		return 0
	}
	return l.in.BytesRead()
}

// ScanStats implements mapreduce.Input.
func (l *lazyInput) ScanStats() mapreduce.ScanStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.in == nil {
		return mapreduce.ScanStats{}
	}
	return l.in.ScanStats()
}

// Close implements mapreduce.Input; never-opened inputs have nothing to
// release.
func (l *lazyInput) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.in == nil {
		return nil
	}
	return l.in.Close()
}

// lazyKVOutput defers creating (and truncating) the output file until the
// first write: a job canceled while queued never touches its output path.
// Closing a never-written output still creates a valid empty KV file, so
// zero-output jobs keep their historical result shape.
type lazyKVOutput struct {
	path string

	mu  sync.Mutex
	out *mapreduce.KVFileOutput
	err error
}

func (l *lazyKVOutput) openLocked() error {
	if l.out == nil && l.err == nil {
		l.out, l.err = mapreduce.NewKVFileOutput(l.path)
	}
	return l.err
}

// Write implements mapreduce.Output (the engine already serializes
// writes; the mutex here only guards lazy creation).
func (l *lazyKVOutput) Write(k Datum, v interp.EmitValue) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.openLocked(); err != nil {
		return err
	}
	return l.out.Write(k, v)
}

// Close implements mapreduce.Output.
func (l *lazyKVOutput) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.openLocked(); err != nil {
		return err
	}
	return l.out.Close()
}

// Abort implements mapreduce.Abortable: an opened partial file is
// removed, a never-created one needs nothing.
func (l *lazyKVOutput) Abort() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.out == nil {
		return nil
	}
	return l.out.Abort()
}
