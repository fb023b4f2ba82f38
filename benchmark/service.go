package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"manimal"
	"manimal/internal/mapreduce"
	"manimal/internal/service"
	"manimal/internal/workload"
)

// The service_mix workload drives a real `manimal serve` process (journal,
// result cache and scan sharing on, as it ships) with tiny jobs, so the
// fixed per-submission chain — HTTP/JSON, parse, analyze, plan, cache
// probe, admission, journal and output fsyncs — is what the clock sees.

const (
	pollEvery     = 2 * time.Millisecond
	latencyLimit  = time.Second      // phase-A latency limit
	requestGiveUp = 20 * time.Second // a request not terminal by then failed
	// Request popularity is Zipf(s = 1.1) over the catalogue, offset by
	// zipfV so the head is flat enough that about half of the open-loop
	// requests repeat an earlier one.
	zipfS = 1.1
	zipfV = 16
	// openLoopShare of --seconds is phase A's measured window; the
	// closed-loop passes take about as long again.
	openLoopShare = 0.5
)

// windowCount sums adRevenue per country inside a visitDate window: the
// UserVisits template. Zone maps prune nearly every block of the
// date-ordered file.
const windowCount = `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("visitDate") >= ctx.ConfInt("dateLo") && v.Int("visitDate") < ctx.ConfInt("dateHi") {
		ctx.Emit(v.Str("countryCode"), v.Int("adRevenue"))
	}
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	sum := 0
	for values.Next() {
		sum = sum + values.Int()
	}
	ctx.Emit(key, sum)
}

func Combine(key Datum, values *Iter, ctx *Ctx) {
	sum := 0
	for values.Next() {
		sum = sum + values.Int()
	}
	ctx.Emit(key, sum)
}
`

// template is one (program, conf, input) triple of the job catalogue.
type template struct {
	prog    *manimal.Program
	input   string
	conf    map[string]any
	mapOnly bool
}

// catalogue builds the job templates over the instance's three files.
// Template i and i+3 share file and program and differ only in conf, so
// popular neighbours overlap on one scan; rank 0 is the most popular.
func catalogue(n int, paths map[string]string, visits int) []template {
	progWindow := mustProgram("window-count", windowCount)
	step := int64(15*visits) / int64(n/3+8)
	ts := make([]template, n)
	for i := range ts {
		j := i / 3
		switch i % 3 {
		case 0: // B+Tree range read over the indexed WebPages
			ts[i] = template{prog: progSelection, input: paths["webpages"],
				conf: map[string]any{"threshold": workload.RankMax - 2 - j}}
		case 1: // full vectorized scan of the un-indexed copy, map-only
			ts[i] = template{prog: progProjection, input: paths["webpages_plain"], mapOnly: true,
				conf: map[string]any{"threshold": workload.RankMax - 2 - j}}
		default: // zone-map pruned scan of UserVisits
			lo := 1_200_000_000 + int64(j)*step
			ts[i] = template{prog: progWindow, input: paths["uservisits"],
				conf: map[string]any{"dateLo": lo, "dateHi": lo + 8*step}}
		}
	}
	return ts
}

// instance is one set-up service: data, indexes, a running server.
type instance struct {
	dir        string
	cmd        *exec.Cmd
	client     *service.Client
	templates  []template
	inputBytes int64
	indexBytes int64
	reqSeq     int64
}

// buildServer builds cmd/manimal from the checkout (a no-op when the
// build cache is warm) and returns the binary the workload serves with.
func buildServer(cfg *runConfig) (string, error) {
	bin := filepath.Join(cfg.root, ".bench_build", "manimal")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/manimal")
	cmd.Dir = cfg.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/manimal: %v\n%s", err, out)
	}
	return bin, nil
}

// setupService is the workload's timed set-up: generate the inputs, build
// the B+Tree the selection templates use, start the server and wait until
// it answers.
func setupService(cfg *runConfig, bin, dir string) (*instance, error) {
	p := map[string]string{
		"webpages":       filepath.Join(dir, "webpages.rec"),
		"webpages_plain": filepath.Join(dir, "webpages_plain.rec"),
		"uservisits":     filepath.Join(dir, "uservisits.rec"),
	}
	if err := os.MkdirAll(filepath.Join(dir, "out"), 0o755); err != nil {
		return nil, err
	}
	gen := workload.NewGen(cfg.seed)
	if err := gen.WriteWebPages(p["webpages"], cfg.sz.SvcWebPages, cfg.sz.ContentBytes); err != nil {
		return nil, err
	}
	if err := copyFile(p["webpages"], p["webpages_plain"]); err != nil {
		return nil, err
	}
	if err := gen.WriteUserVisits(p["uservisits"], cfg.sz.SvcUserVisits, cfg.sz.SvcUserVisits/10); err != nil {
		return nil, err
	}
	sysDir := filepath.Join(dir, "sys")
	sys, err := manimal.NewSystemWith(sysDir, manimal.Options{SchedulerSlots: cfg.slots})
	if err != nil {
		return nil, err
	}
	entries, err := sys.BuildBestIndexes(progSelection, p["webpages"])
	if err != nil {
		return nil, err
	}
	in := &instance{dir: dir, indexBytes: entryBytes(entries),
		templates: catalogue(cfg.sz.SvcTemplates, p, cfg.sz.SvcUserVisits)}
	for _, path := range p {
		in.inputBytes += fileSize(path)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	in.cmd = exec.Command(bin, "serve", "-sys", sysDir, "-addr", addr, "-slots", fmt.Sprint(cfg.slots), "-drain", "5s")
	if err := in.cmd.Start(); err != nil {
		return nil, err
	}
	in.client = service.NewClientTimeout("http://"+addr, requestGiveUp)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := in.client.Health(); err == nil {
			return in, nil
		}
		if time.Now().After(deadline) {
			in.stop()
			return nil, fmt.Errorf("manimal serve did not answer on %s", addr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop ends the server (SIGTERM, then kill) and waits for it.
func (in *instance) stop() {
	if in.cmd == nil || in.cmd.Process == nil {
		return
	}
	in.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { in.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(8 * time.Second):
		in.cmd.Process.Kill()
		<-done
	}
	in.cmd = nil
}

// reqResult is one request as the client saw it.
type reqResult struct {
	tmpl      int
	noopt     bool
	dueNs     int64 // offset from the phase start the request was due at
	lagNs     int64 // how late the client sent it
	latencyNs int64 // from due to terminal
	submitNs  int64 // the submit round trip alone
	pollNs    []int64
	hit       bool
	output    string
	info      service.JobInfo
	err       error
}

// request submits template t and waits until the job is terminal.
func (in *instance) request(t int, noopt bool, tr *tracer, parent int) reqResult {
	tm := in.templates[t]
	n := atomic.AddInt64(&in.reqSeq, 1)
	r := reqResult{tmpl: t, noopt: noopt, output: filepath.Join(in.dir, "out", fmt.Sprintf("r%06d.kv", n))}
	req := service.SubmitRequest{
		Name:                fmt.Sprintf("r%06d-t%04d", n, t),
		Inputs:              []service.SubmitInput{{Path: tm.input, Program: tm.prog.Source, ProgramName: tm.prog.Name}},
		OutputPath:          r.output,
		Conf:                tm.conf,
		MapOnly:             tm.mapOnly,
		DisableOptimization: noopt,
	}
	span := tr.start("service.request", parent, req.Name)
	defer tr.end(span)
	sub := tr.start("client.submit", span, req.Name)
	start := time.Now()
	info, err := in.client.Submit(req)
	r.submitNs = time.Since(start).Nanoseconds()
	tr.end(sub)
	wait := tr.start("client.wait", span, req.Name)
	defer tr.end(wait)
	for err == nil && !mapreduce.Phase(info.Phase).Terminal() {
		if time.Since(start) > requestGiveUp {
			err = fmt.Errorf("job %s not terminal after %s (phase %s)", info.ID, requestGiveUp, info.Phase)
			break
		}
		time.Sleep(pollEvery)
		p0 := time.Now()
		info, err = in.client.Job(info.ID)
		r.pollNs = append(r.pollNs, time.Since(p0).Nanoseconds())
	}
	if err == nil && info.Phase != string(mapreduce.PhaseDone) {
		err = fmt.Errorf("job %s ended %s: %s", info.ID, info.Phase, info.Error)
	}
	r.info, r.err = info, err
	r.hit = info.Counters[mapreduce.CtrCacheHits] > 0
	return r
}

// pull runs f(0..n-1) on `clients` goroutines, each taking the next index
// as soon as it is free: the whole client side of both phases.
func pull(n, clients int, f func(i int)) {
	var next int64 = -1
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(atomic.AddInt64(&next, 1)); i < n; i = int(atomic.AddInt64(&next, 1)) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// closedLoop sends the request sequence as fast as the service answers:
// phase B. It returns the results and the wall seconds of the pass.
func (in *instance) closedLoop(seq []int, noopt bool, clients int, tr *tracer) ([]reqResult, float64) {
	name := "phase.closed_loop"
	if noopt {
		name += ".noopt"
	}
	parent := tr.start(name, 0, "")
	out := make([]reqResult, len(seq))
	start := time.Now()
	pull(len(seq), clients, func(i int) { out[i] = in.request(seq[i], noopt, tr, parent) })
	wall := time.Since(start).Seconds()
	tr.end(parent)
	return out, wall
}

// openLoop sends seq on a seeded Poisson schedule at a fixed rate,
// whatever the service does: phase A. Each request is timed from the
// moment it was due, so a stall charges every request queued behind it.
func (in *instance) openLoop(seq []int, dueNs []int64, clients int, tr *tracer) []reqResult {
	parent := tr.start("phase.open_loop", 0, "")
	out := make([]reqResult, len(seq))
	start := time.Now()
	pull(len(seq), clients, func(i int) {
		due := start.Add(time.Duration(dueNs[i]))
		time.Sleep(time.Until(due))
		sent := time.Now()
		r := in.request(seq[i], false, tr, parent)
		r.dueNs = dueNs[i]
		r.lagNs = sent.Sub(due).Nanoseconds()
		r.latencyNs = time.Since(due).Nanoseconds()
		out[i] = r
	})
	tr.end(parent)
	return out
}

// popularity is the request mix: Zipf(s, v) over the template ranks.
type popularity []float64 // cumulative distribution over ranks

func newPopularity(templates int) popularity {
	cdf := make(popularity, templates)
	var total float64
	for k := range cdf {
		total += math.Pow(zipfV+float64(k), -zipfS)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return cdf
}

// sample draws n template ranks as a stratified sample — the i-th request
// takes the (i+½)/n quantile — and shuffles them with the seed. Every seed
// therefore sends the same number of repeats and of cold templates, in
// another order; a plain random draw of a few hundred requests from a
// heavy-tailed mix would change the amount of work by a tenth from seed
// to seed.
func (p popularity) sample(n int, rng *rand.Rand) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = sort.SearchFloat64s(p, (float64(i)+0.5)/float64(n))
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// svcPhases is everything measured on one instance.
type svcPhases struct {
	setupSecs  float64
	optWall    float64
	nooptWall  float64
	opt, noopt []reqResult
	open       []reqResult // phase A; last instance only
	openEndNs  int64       // length of the phase-A schedule
	warmNs     int64
	stats      service.StatsInfo
	peakRSSMB  float64
	indexBytes int64
	inputBytes int64
}

// observation is one request's output digest, kept until the run's
// reference digests are known.
type observation struct {
	tmpl   int
	digest string
	what   string
}

// runInstance sets one instance up and runs the optimized closed-loop pass
// on it; on the last instance also the unoptimized pass and phase A.
// Outputs are digested after the clocks stop and the server is stopped
// before returning. ref collects the unoptimized digest of every template
// the last instance touched.
func runInstance(cfg *runConfig, bin, dir string, last bool, out *runOutput, tr *tracer, ref map[int]string) (*svcPhases, []observation, error) {
	start := time.Now()
	in, err := setupService(cfg, bin, dir)
	if err != nil {
		return nil, nil, err
	}
	defer in.stop()
	ph := &svcPhases{setupSecs: time.Since(start).Seconds(), indexBytes: in.indexBytes, inputBytes: in.inputBytes}

	// One request sequence per seed: the closed loop takes a prefix, the
	// open loop continues after it, so the head it asks for is warm.
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5e41ce))
	mix := newPopularity(len(in.templates))
	clients := cfg.slots
	prefix := mix.sample(cfg.sz.SvcPrefix, rng)
	ph.opt, ph.optWall = in.closedLoop(prefix, false, clients, tr)
	if last {
		ph.noopt, ph.nooptWall = in.closedLoop(prefix, true, clients, tr)
		ph.warmNs = int64(time.Second)
		if cfg.quick {
			ph.warmNs = int64(200 * time.Millisecond)
		}
		ph.openEndNs = ph.warmNs + int64(cfg.seconds*float64(time.Second)*openLoopShare)
		var due []int64
		for t := int64(0); ; {
			t += int64(rng.ExpFloat64() / cfg.sz.SvcRate * 1e9)
			if t >= ph.openEndNs {
				break
			}
			due = append(due, t)
		}
		ph.open = in.openLoop(mix.sample(len(due), rng), due, clients, tr)
	}
	if ph.stats, err = in.client.Stats(); err != nil {
		return nil, nil, err
	}
	ph.peakRSSMB = peakRSSMB(in.cmd.Process.Pid)

	var obs []observation
	observe := func(rs []reqResult, what string) {
		for _, r := range rs {
			out.attempted++
			d, err := "", r.err
			if err == nil {
				d, err = kvDigest(r.output)
			}
			if err != nil {
				out.fail("%s request, template %d: %v", what, r.tmpl, err)
				continue
			}
			if r.noopt {
				if _, ok := ref[r.tmpl]; !ok {
					ref[r.tmpl] = d
				}
			}
			obs = append(obs, observation{r.tmpl, d, what})
		}
	}
	observe(ph.noopt, "unoptimized closed-loop")
	if last {
		// Templates only the open loop touched get their unoptimized
		// reference run now, off the clock.
		var missing []int
		seen := make(map[int]bool)
		for _, r := range ph.open {
			if _, ok := ref[r.tmpl]; !ok && !seen[r.tmpl] {
				seen[r.tmpl] = true
				missing = append(missing, r.tmpl)
			}
		}
		refs, _ := in.closedLoop(missing, true, clients, nil)
		observe(refs, "reference")
	}
	observe(ph.opt, "closed-loop")
	observe(ph.open, "open-loop")
	return ph, obs, nil
}

// runServiceMix is the service_mix run shape: set-up repeated (each
// instance starts cold and has the same data, so the closed-loop pass does
// identical work every time); the optimized closed loop on every
// instance; the unoptimized closed loop and phase A on the last.
func runServiceMix(cfg *runConfig) (*runOutput, map[string]string, error) {
	out := newOutput()
	bin, err := buildServer(cfg)
	if err != nil {
		return nil, nil, err
	}
	work, err := os.MkdirTemp(cfg.outDir, "work-service_mix-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(work)

	// In a traced run only the last instance records spans, so its
	// closed-loop pass against the untraced ones is the tracing overhead.
	var tr *tracer
	var all []*svcPhases
	var obs []observation
	ref := make(map[int]string)
	for i := 0; i < setupRepeats; i++ {
		last := i == setupRepeats-1
		if last && cfg.trace {
			tr = newTracer()
		}
		dir := filepath.Join(work, fmt.Sprintf("inst%d", i))
		ph, o, err := runInstance(cfg, bin, dir, last, out, tr, ref)
		if err != nil {
			return nil, nil, fmt.Errorf("service_mix instance %d: %w", i, err)
		}
		all, obs = append(all, ph), append(obs, o...)
		os.RemoveAll(dir)
	}
	// Every output of every instance — optimized, cache-served, open or
	// closed loop — must equal its template's unoptimized output.
	for _, o := range obs {
		if want, ok := ref[o.tmpl]; !ok {
			out.fail("%s request, template %d: no unoptimized reference", o.what, o.tmpl)
		} else if o.digest != want {
			out.fail("%s request, template %d: output digest %.12s differs from reference %.12s", o.what, o.tmpl, o.digest, want)
		}
	}
	ph := all[len(all)-1]

	var setups, optWalls []float64
	for _, p := range all {
		setups = append(setups, p.setupSecs)
		optWalls = append(optWalls, p.optWall)
	}
	var cold, hits, lags []float64
	var measured, over, backlog int
	for _, r := range ph.open {
		if r.dueNs+r.latencyNs > ph.openEndNs {
			backlog++
		}
		if r.dueNs < ph.warmNs {
			continue
		}
		measured++
		lags = append(lags, float64(r.lagNs)/1e6)
		if r.err != nil || r.latencyNs > int64(latencyLimit) {
			over++
		}
		if r.err != nil {
			continue
		}
		if r.hit {
			hits = append(hits, float64(r.latencyNs)/1e6)
		} else {
			cold = append(cold, float64(r.latencyNs)/1e6)
		}
	}
	out.values["setup_s"] = median(setups)
	out.values["suite_s"] = median(optWalls)
	out.values["noopt_suite_s"] = ph.nooptWall
	out.values["stored_bytes_per_input_byte"] = ratio(float64(ph.indexBytes), float64(ph.inputBytes))
	out.info["closed_loop_requests"] = cfg.sz.SvcPrefix
	out.info["rate_jobs_per_s"] = cfg.sz.SvcRate
	out.info["open_loop_measured"] = measured
	out.info["open_loop_cold_n"] = len(cold)
	out.info["open_loop_hit_n"] = len(hits)
	out.info["cold_quantiles_ms"] = map[string]float64{"p50": quantile(cold, 0.5), "p75": quantile(cold, 0.75),
		"p90": quantile(cold, 0.9), "p95": quantile(cold, 0.95), "p99": quantile(cold, 0.99), "max": quantile(cold, 1)}
	out.info["setup_s_samples"] = setups
	out.info["suite_s_samples"] = optWalls
	out.info["input_file_bytes"] = ph.inputBytes
	out.info["index_bytes"] = ph.indexBytes

	if cfg.trace {
		serviceLayerMetrics(cfg, out, all, cold, hits, lags, measured, over, backlog)
		if err := runProbes(cfg, out, tr, filepath.Join(work, "probe")); err != nil {
			return nil, nil, fmt.Errorf("layer probes: %w", err)
		}
		if err := tr.write(filepath.Join(cfg.outDir, "trace-service_mix.json"), "service_mix", cfg.seed); err != nil {
			return nil, nil, err
		}
	}

	// The committed expectation is one digest over the closed-loop
	// prefix's reference outputs, in template order.
	var ts []int
	for _, r := range ph.noopt {
		ts = append(ts, r.tmpl)
	}
	sort.Ints(ts)
	h := sha256.New()
	for i, t := range ts {
		if i == 0 || t != ts[i-1] {
			fmt.Fprintf(h, "%d:%s\n", t, ref[t])
		}
	}
	digests := map[string]string{"closed_loop_prefix": hex.EncodeToString(h.Sum(nil))}
	newVerifier(cfg.expected).check(out, "closed_loop_prefix", legNoopt, digests["closed_loop_prefix"])
	return out, digests, nil
}

// serviceLayerMetrics fills the per-layer metrics a service run can see
// from outside the server: client round trips, cache and sharing
// counters, admission, and the server's memory high-water mark.
func serviceLayerMetrics(cfg *runConfig, out *runOutput, all []*svcPhases, cold, hits, lags []float64, measured, over, backlog int) {
	ph := all[len(all)-1]
	var submits, polls []float64
	for _, rs := range [][]reqResult{ph.opt, ph.noopt, ph.open} {
		for _, r := range rs {
			submits = append(submits, float64(r.submitNs)/1e6)
			for _, p := range r.pollNs {
				polls = append(polls, float64(p)/1e6)
			}
		}
	}
	out.values["service.submit_rtt_ms"] = median(submits)
	out.values["service.status_rtt_ms"] = median(polls)
	out.values["service.cold_p50_ms"] = quantile(cold, 0.5)
	out.values["service.cold_p95_ms"] = quantile(cold, 0.95)
	out.values["service.hit_p50_ms"] = median(hits)
	out.values["service.generator_lag_p95_ms"] = quantile(lags, 0.95)
	out.values["service.over_limit_share"] = ratio(float64(over), float64(measured))
	out.values["service.rejected_429"] = float64(ph.stats.RejectedFull)
	out.values["service.backlog_end"] = float64(backlog)
	out.values["service.saturation_jobs_per_s"] = ratio(float64(cfg.sz.SvcPrefix), ph.optWall)
	out.values["catalog.cache_hit_share"] = ratio(float64(len(hits)), float64(len(hits)+len(cold)))
	out.values["optimizer.speedup_vs_noopt"] = ratio(ph.nooptWall, ph.optWall)
	out.values["runtime.peak_rss_mb"] = ph.peakRSSMB
	var untraced []float64
	for _, p := range all[:len(all)-1] {
		untraced = append(untraced, p.optWall)
	}
	out.values["bench.trace_overhead_share"] = ph.optWall/median(untraced) - 1

	// Job counters and attempt durations as the status endpoint reports
	// them (durations in whole milliseconds).
	sumCtr := func(rs []reqResult, name string) float64 {
		var t int64
		for _, r := range rs {
			t += r.info.Counters[name]
		}
		return float64(t)
	}
	out.values["optimizer.blocks_skipped_share"] = ratio(sumCtr(ph.opt, mapreduce.CtrBlocksSkipped), sumCtr(ph.noopt, mapreduce.CtrBlocksRead))
	out.values["optimizer.rows_prefiltered_share"] = ratio(sumCtr(ph.opt, mapreduce.CtrRowsFiltered), sumCtr(ph.noopt, mapreduce.CtrMapInputRecords))
	out.values["optimizer.input_bytes_read_share"] = ratio(sumCtr(ph.opt, mapreduce.CtrInputBytesRead), sumCtr(ph.noopt, mapreduce.CtrInputBytesRead))
	executed := append(append([]reqResult(nil), ph.opt...), ph.open...)
	out.values["storage.scans_shared_share"] = ratio(sumCtr(executed, mapreduce.CtrScansShared), sumCtr(executed, mapreduce.CtrMapTasks))
	out.values["mapreduce.tasks_retried"] = sumCtr(executed, mapreduce.CtrTasksRetried)
	out.values["mapreduce.tasks_speculative"] = sumCtr(executed, mapreduce.CtrTasksSpeculative)
	busy := make(map[string]float64)
	var allBusy float64
	for _, r := range ph.opt {
		for _, a := range r.info.Attempts {
			busy[a.Phase] += float64(a.DurationMS) / 1e3
			allBusy += float64(a.DurationMS) / 1e3
		}
	}
	out.values["mapreduce.plan_busy_s"] = busy[string(mapreduce.PhasePlan)]
	out.values["mapreduce.map_busy_s"] = busy[string(mapreduce.PhaseMap)]
	out.values["mapreduce.reduce_busy_s"] = busy[string(mapreduce.PhaseReduce)]
	out.values["mapreduce.commit_busy_s"] = busy[string(mapreduce.PhaseCommit)]
	out.values["mapreduce.slot_busy_share"] = ratio(allBusy, float64(cfg.slots)*ph.optWall)
}
