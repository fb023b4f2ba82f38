package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"manimal"
	"manimal/internal/mapreduce"
)

// leg is one side of a pass: the shipping configuration, or the same
// work with the optimization under test switched off.
type leg int

const (
	legOpt leg = iota
	legNoopt
)

func (l leg) String() string {
	if l == legNoopt {
		return "noopt"
	}
	return "opt"
}

// opResult is one executed operation of a pass.
type opResult struct {
	seconds  float64 // wall clock around the call into the system
	digest   string  // SHA-256 of the operation's sorted output
	counters map[string]int64
	attempts []mapreduce.AttemptRecord
	plan     string
}

// op is one named operation of a batch workload: a job or an index build.
// run executes it for a leg, timing only the call into the system; the
// output digest is computed after the clock stops.
type op struct {
	name string
	run  func(l leg, tr *tracer, parent int) (opResult, error)
}

// suite is a set-up batch workload: its operations in pass order plus the
// byte counts behind stored_bytes_per_input_byte.
type suite struct {
	ops        []op
	inputBytes int64 // original input files
	// indexBytes is read after the measured rounds: the index files built
	// over the inputs, in set-up or (index_build) by the optimized pass.
	indexBytes func() int64
}

// batchWorkload names a batch workload and how to set it up in a
// directory; set-up is what setup_s times.
type batchWorkload struct {
	name  string
	setup func(cfg *runConfig, dir string) (*suite, error)
}

// tracedRounds is how many rounds a traced run repeats with spans on.
const tracedRounds = 5

// runJob submits a job and waits for it: the clock runs around exactly
// what System.Submit does (analyze, plan, execute, fsync'd commit).
func runJob(sys *manimal.System, spec manimal.JobSpec, tr *tracer, parent int) (opResult, error) {
	id := tr.start("system.submit", parent, spec.Name)
	start := time.Now()
	h, err := sys.SubmitAsync(context.Background(), spec)
	var rep *manimal.JobReport
	if err == nil {
		rep, err = h.Wait()
	}
	secs := time.Since(start).Seconds()
	tr.end(id)
	if err != nil {
		return opResult{seconds: secs}, err
	}
	st := h.Status()
	tr.attempts(id, spec.Name, st.Attempts)
	res := opResult{seconds: secs, counters: st.Counters, attempts: st.Attempts}
	for _, in := range rep.Inputs {
		if res.plan != "" {
			res.plan += "+"
		}
		res.plan += in.Plan.Kind.String()
	}
	res.digest, err = kvDigest(spec.OutputPath)
	return res, err
}

// kvDigest hashes a KV output file independent of pair order: every pair
// is encoded, the encodings are sorted, and the sorted list is hashed.
func kvDigest(path string) (string, error) {
	pairs, err := mapreduce.ReadKVFile(path)
	if err != nil {
		return "", err
	}
	items := make([][]byte, len(pairs))
	for i, p := range pairs {
		b := p.Key.AppendTagged(nil)
		if p.Value.IsRecord() {
			b = append(b, 'R')
			b = append(b, p.Value.Rec.Schema().String()...)
			b = p.Value.Rec.AppendBinary(b)
		} else {
			b = append(b, 'D')
			b = p.Value.D.AppendTagged(b)
		}
		items[i] = b
	}
	return digestSorted(items), nil
}

func digestSorted(items [][]byte) string {
	sort.Slice(items, func(i, j int) bool { return bytes.Compare(items[i], items[j]) < 0 })
	h := sha256.New()
	var n [8]byte
	for _, it := range items {
		binary.LittleEndian.PutUint64(n[:], uint64(len(it)))
		h.Write(n[:])
		h.Write(it)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verifier holds the reference digest of every operation: the committed
// expectation when the seed has one, else the first digest this run
// produced. Every execution, optimized or not, must match it.
type verifier struct {
	expected map[string]string
	digests  map[string]string // first digest per operation; -write-expected records them
}

func newVerifier(expected map[string]string) *verifier {
	return &verifier{expected: expected, digests: make(map[string]string)}
}

func (v *verifier) check(out *runOutput, name string, l leg, digest string) {
	if _, ok := v.digests[name]; !ok {
		v.digests[name] = digest
	}
	want, ok := v.expected[name]
	if !ok {
		want = v.digests[name]
	}
	if digest != want {
		out.fail("%s (%s): output digest %.12s differs from reference %.12s", name, l, digest, want)
	}
}

// passResult is one pass of one leg: per-operation results in op order.
type passResult struct {
	ops   []opResult
	total float64
}

func runPass(s *suite, l leg, v *verifier, out *runOutput, tr *tracer) passResult {
	runtime.GC() // every pass starts from a collected heap
	parent := tr.start("pass."+l.String(), 0, "")
	pr := passResult{ops: make([]opResult, len(s.ops))}
	for i, o := range s.ops {
		out.attempted++
		res, err := o.run(l, tr, parent)
		if err != nil {
			out.fail("%s (%s): %v", o.name, l, err)
		} else {
			v.check(out, o.name, l, res.digest)
		}
		pr.ops[i] = res
		pr.total += res.seconds
	}
	tr.end(parent)
	return pr
}

// runBatch is the run shape shared by the batch workloads: set-up (timed,
// repeated), one discarded warm-up round, measured rounds until the
// window closes, and — in a traced run — a few more rounds with spans on,
// followed by the layer probes.
func runBatch(cfg *runConfig, wl batchWorkload) (*runOutput, map[string]string, error) {
	out := newOutput()
	work, err := os.MkdirTemp(cfg.outDir, "work-"+wl.name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(work)

	repeats := setupRepeats
	if cfg.trace {
		repeats = 1 // a traced run reports no setup_s
	}
	var s *suite
	var setupSecs []float64
	for i := 0; i < repeats; i++ {
		dir := filepath.Join(work, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		start := time.Now()
		s, err = wl.setup(cfg, dir)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		setupSecs = append(setupSecs, time.Since(start).Seconds())
		if i < repeats-1 {
			os.RemoveAll(dir)
		}
	}

	v := newVerifier(cfg.expected)
	runPass(s, legOpt, v, out, nil) // warm-up, discarded
	runPass(s, legNoopt, v, out, nil)

	var opt, noopt []passResult
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	window := time.Now()
	for len(opt) < 3 || time.Since(window).Seconds() < cfg.seconds {
		opt = append(opt, runPass(s, legOpt, v, out, nil))
		noopt = append(noopt, runPass(s, legNoopt, v, out, nil))
	}
	runtime.ReadMemStats(&ms1)
	indexBytes := s.indexBytes()

	optTotals, nooptTotals := totals(opt), totals(noopt)
	optMed, nooptMed := opMedians(opt), opMedians(noopt)
	out.values["setup_s"] = median(setupSecs)
	out.values["suite_s"] = median(optTotals)
	out.values["noopt_suite_s"] = median(nooptTotals)
	out.values["stored_bytes_per_input_byte"] = ratio(float64(indexBytes), float64(s.inputBytes))

	out.info["rounds"] = len(opt)
	out.info["setup_s_samples"] = setupSecs
	out.info["suite_s_rounds"] = optTotals
	out.info["noopt_suite_s_rounds"] = nooptTotals
	out.info["round_iqr_share"] = map[string]float64{"suite_s": iqrShare(optTotals), "noopt_suite_s": iqrShare(nooptTotals)}
	out.info["pass_input_records"] = counterSum(noopt[0], mapreduce.CtrMapInputRecords)
	out.info["pass_input_bytes"] = counterSum(noopt[0], mapreduce.CtrInputBytesRead)
	out.info["input_file_bytes"] = s.inputBytes
	out.info["index_bytes"] = indexBytes
	plans := make(map[string]string)
	for i, o := range s.ops {
		plans[o.name] = opt[len(opt)-1].ops[i].plan
	}
	out.info["plans"] = plans

	if cfg.trace {
		// A few traced rounds, not one: a single pass against a median of
		// passes would report the round-to-round noise as overhead.
		tr := newTracer()
		var traced []passResult
		var tnoopt passResult
		for i := 0; i < tracedRounds; i++ {
			traced = append(traced, runPass(s, legOpt, v, out, tr))
			tnoopt = runPass(s, legNoopt, v, out, tr)
		}
		topt := traced[len(traced)-1]
		for i, o := range s.ops {
			out.values["job."+o.name+".opt_s"] = optMed[i]
			out.values["job."+o.name+".noopt_s"] = nooptMed[i]
		}
		out.values["optimizer.speedup_vs_noopt"] = ratio(median(nooptTotals), median(optTotals))
		counterShares(out, topt, tnoopt)
		busyMetrics(out, topt, cfg.slots)
		rounds := float64(len(opt) + len(noopt))
		out.values["runtime.alloc_mb_per_pass"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / rounds
		out.values["runtime.allocs_per_pass"] = float64(ms1.Mallocs-ms0.Mallocs) / rounds
		out.values["runtime.gc_pause_total_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
		out.values["bench.trace_overhead_share"] = median(totals(traced))/median(optTotals) - 1
		out.values["bench.round_iqr_share"] = iqrShare(optTotals)
		if err := runProbes(cfg, out, tr, filepath.Join(work, "probe")); err != nil {
			return nil, nil, fmt.Errorf("layer probes: %w", err)
		}
		out.values["runtime.peak_rss_mb"] = peakRSSMB(os.Getpid())
		if err := tr.write(filepath.Join(cfg.outDir, "trace-"+wl.name+".json"), wl.name, cfg.seed); err != nil {
			return nil, nil, err
		}
	}
	return out, v.digests, nil
}

func totals(ps []passResult) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.total
	}
	return out
}

// opMedians is each operation's median seconds over the passes.
func opMedians(ps []passResult) []float64 {
	out := make([]float64, len(ps[0].ops))
	for i := range out {
		xs := make([]float64, len(ps))
		for j, p := range ps {
			xs[j] = p.ops[i].seconds
		}
		out[i] = median(xs)
	}
	return out
}

func counterSum(p passResult, name string) int64 {
	var t int64
	for _, o := range p.ops {
		t += o.counters[name]
	}
	return t
}

// counterShares reports what the optimizer's pruning did in the traced
// pass, from the exact job counters: blocks skipped and rows pre-filtered
// as a share of what the unoptimized pass touched, and bytes read as a
// share of the unoptimized bytes.
func counterShares(out *runOutput, opt, noopt passResult) {
	blocks := counterSum(noopt, mapreduce.CtrBlocksRead)
	out.values["optimizer.blocks_skipped_share"] = ratio(float64(counterSum(opt, mapreduce.CtrBlocksSkipped)), float64(blocks))
	out.values["optimizer.rows_prefiltered_share"] = ratio(float64(counterSum(opt, mapreduce.CtrRowsFiltered)), float64(counterSum(noopt, mapreduce.CtrMapInputRecords)))
	out.values["optimizer.input_bytes_read_share"] = ratio(float64(counterSum(opt, mapreduce.CtrInputBytesRead)), float64(counterSum(noopt, mapreduce.CtrInputBytesRead)))
	out.values["storage.scans_shared_share"] = ratio(float64(counterSum(opt, mapreduce.CtrScansShared)), float64(counterSum(opt, mapreduce.CtrMapTasks)))
	out.values["mapreduce.tasks_retried"] = float64(counterSum(opt, mapreduce.CtrTasksRetried) + counterSum(noopt, mapreduce.CtrTasksRetried))
	out.values["mapreduce.tasks_speculative"] = float64(counterSum(opt, mapreduce.CtrTasksSpeculative) + counterSum(noopt, mapreduce.CtrTasksSpeculative))
}

// busyMetrics sums task-attempt durations by phase over the traced
// optimized pass: where the pass's seconds were spent, and how much of
// the slot pool they filled.
func busyMetrics(out *runOutput, p passResult, slots int) {
	busy := make(map[mapreduce.Phase]float64)
	var all float64
	for _, o := range p.ops {
		for _, a := range o.attempts {
			busy[a.Phase] += a.Duration.Seconds()
			all += a.Duration.Seconds()
		}
	}
	out.values["mapreduce.plan_busy_s"] = busy[mapreduce.PhasePlan]
	out.values["mapreduce.map_busy_s"] = busy[mapreduce.PhaseMap]
	out.values["mapreduce.reduce_busy_s"] = busy[mapreduce.PhaseReduce]
	out.values["mapreduce.commit_busy_s"] = busy[mapreduce.PhaseCommit]
	out.values["mapreduce.slot_busy_share"] = ratio(all, float64(slots)*p.total)
}
