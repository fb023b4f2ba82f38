// Package service exposes a manimal.System as a long-lived HTTP job
// service: jobs are submitted as JSON (program source inline), run
// concurrently on the System's shared scheduler, and are tracked by ID for
// status polling and cancellation — the `manimal serve` subcommand is a
// thin wrapper around Server, and the matching client commands
// (submit/jobs/status/cancel) around Client.
//
// Endpoints (all JSON):
//
//	POST /v1/jobs             submit a job        (SubmitRequest → JobInfo:
//	                          200 terminal if the job finished within
//	                          100 ms, else 202 live; "Prefer:
//	                          respond-async" gets the 202 at once)
//	GET  /v1/jobs             list known jobs     ([]JobInfo)
//	GET  /v1/jobs/{id}        one job's status    (JobInfo)
//	POST /v1/jobs/{id}/cancel cancel a job        (JobInfo)
//	GET  /v1/catalog          index catalog       ([]catalog.Entry)
//	GET  /v1/pool             scheduler pool stats (mapreduce.PoolStats)
//	GET  /v1/health           liveness + draining state (HealthInfo)
//	GET  /v1/stats            pool, queue, journal, FT counters (StatsInfo)
//
// # Answering a submission
//
// A service job is usually small, so POST /v1/jobs answers on completion:
// it holds the answer until the job is terminal, for at most submitHold
// (100 ms), and then answers 200 with the finished JobInfo — counters,
// plans, attempts, error — exactly what a GET would return; a cache hit is
// terminal at once. A job still running when the window closes is answered
// 202 with its live state, to be polled or canceled by ID as before. The
// wait ends early, with a 202 written to nobody, when the client goes
// away; either way the job runs on under the server's lifetime, not the
// request's. A client that wants the 202 at once sends the RFC 7240
// preference "Prefer: respond-async" (Client.SubmitAsync does).
//
// # Overload protection and resilience
//
// Submission is ADMISSION-CONTROLLED: with ServerConfig.MaxActiveJobs set,
// a full admission queue answers 429 with a Retry-After hint instead of
// accepting unboundedly, and a draining server (Drain, wired to
// SIGTERM/SIGINT by `manimal serve`) answers 503. Submissions may carry an
// X-Manimal-Tenant header; with ServerConfig.TenantSlots set, each
// tenant's jobs share a scheduler-slot quota, so one saturating tenant
// cannot crowd the others out of the pool. When the System's job journal
// is enabled, job IDs are the durable journal IDs: GET /v1/jobs/{id}
// answers from the journal even after the in-memory entry was evicted or
// the coordinator restarted.
//
// Input, output, and index paths in requests name files on the server's
// filesystem: the service runs where the data lives.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"manimal"
	"manimal/internal/faultinject"
	"manimal/internal/journal"
	"manimal/internal/mapreduce"
	"manimal/internal/serde"
)

// TenantHeader is the request header naming the submitting tenant.
const TenantHeader = "X-Manimal-Tenant"

// SubmitRequest describes one job submission over HTTP. Program source is
// carried inline, so clients need no filesystem shared with the server
// for programs (data paths, by contrast, are server-side).
type SubmitRequest struct {
	Name   string        `json:"name"`
	Inputs []SubmitInput `json:"inputs"`
	// OutputPath is the server-side path receiving the final KV output.
	OutputPath string `json:"output_path"`
	// Conf holds job parameters: JSON numbers become Int when integral
	// (Float otherwise), strings String, booleans Bool.
	Conf                map[string]any `json:"conf,omitempty"`
	MapOnly             bool           `json:"map_only,omitempty"`
	SortedOutput        bool           `json:"sorted_output,omitempty"`
	SafeMode            bool           `json:"safe_mode,omitempty"`
	DisableOptimization bool           `json:"disable_optimization,omitempty"`
	NumReducers         int            `json:"num_reducers,omitempty"`
	MaxParallelTasks    int            `json:"max_parallel_tasks,omitempty"`
	// StartupDelayMillis models cluster job-launch latency (admission
	// delay in the scheduler; cancellable).
	StartupDelayMillis int64 `json:"startup_delay_ms,omitempty"`
}

// SubmitInput is one input file and the program mapped over it.
type SubmitInput struct {
	Path        string `json:"path"`
	Program     string `json:"program"`
	ProgramName string `json:"program_name,omitempty"`
}

// PlanInfo summarizes the optimizer's decision for one input.
type PlanInfo struct {
	Input   string   `json:"input"`
	Kind    string   `json:"kind"`
	Applied []string `json:"applied,omitempty"`
	Notes   []string `json:"notes,omitempty"`
}

// AttemptInfo is one task attempt in a job's fault-tolerance history.
// Jobs where fault tolerance never engaged show one succeeded attempt per
// task; retries, speculative duplicates, and losers of speculative races
// each add a record.
type AttemptInfo struct {
	Phase       string `json:"phase"`
	Task        int    `json:"task"`
	Attempt     int    `json:"attempt"`
	Speculative bool   `json:"speculative,omitempty"`
	DurationMS  int64  `json:"duration_ms"`
	Outcome     string `json:"outcome"`
	Error       string `json:"error,omitempty"`
}

// JobInfo is the service's view of one job: identity, live status, and —
// once terminal — the outcome.
type JobInfo struct {
	ID          string           `json:"id"`
	Name        string           `json:"name"`
	OutputPath  string           `json:"output_path"`
	Tenant      string           `json:"tenant,omitempty"`
	SubmittedAt time.Time        `json:"submitted_at"`
	Phase       string           `json:"phase"`
	TasksDone   int              `json:"tasks_done"`
	TasksTotal  int              `json:"tasks_total"`
	DurationMS  int64            `json:"duration_ms"`
	Counters    map[string]int64 `json:"counters,omitempty"`
	Plans       []PlanInfo       `json:"plans,omitempty"`
	Attempts    []AttemptInfo    `json:"attempts,omitempty"`
	Error       string           `json:"error,omitempty"`
}

// DefaultMaxTerminalJobs bounds how many finished jobs the server
// remembers: the daemon is long-lived, so without eviction every
// submission's handle (plans, counters, synthesized index programs) would
// accumulate forever. The oldest terminal jobs are pruned first; running
// jobs are never evicted, and neither are jobs terminal for less than the
// grace window — a client that just saw its job finish can still poll the
// final status (so tracked jobs can briefly exceed the cap, bounded by
// the submission rate over one grace window). With the journal enabled,
// eviction loses nothing: GET /v1/jobs/{id} falls back to the journal.
const (
	DefaultMaxTerminalJobs = 256
	DefaultTerminalGrace   = time.Minute
	// defaultRetryAfter is the hint sent with 429 responses.
	defaultRetryAfter = time.Second
	// defaultDrainCancelGrace is how long Drain waits, after canceling the
	// jobs that outlived the drain deadline, for their terminal states to
	// land in the journal.
	defaultDrainCancelGrace = 10 * time.Second
)

// ServerConfig tunes the service's admission control and memory bounds.
// The zero value means: unbounded admission, no tenant quotas, default
// eviction bounds.
type ServerConfig struct {
	// MaxActiveJobs bounds the admission queue: submissions arriving while
	// this many jobs are non-terminal are answered 429 with a Retry-After
	// hint. 0 means unbounded.
	MaxActiveJobs int
	// TenantSlots, when > 0, gives every tenant named by a submission's
	// X-Manimal-Tenant header a scheduler-slot quota of that many slots
	// (see manimal.System.SetTenantQuota).
	TenantSlots int
	// MaxTerminalJobs / TerminalGrace override the eviction bounds
	// (DefaultMaxTerminalJobs / DefaultTerminalGrace); 0 means default.
	MaxTerminalJobs int
	TerminalGrace   time.Duration
}

func (c *ServerConfig) maxTerminal() int {
	if c.MaxTerminalJobs > 0 {
		return c.MaxTerminalJobs
	}
	return DefaultMaxTerminalJobs
}

func (c *ServerConfig) terminalGrace() time.Duration {
	if c.TerminalGrace > 0 {
		return c.TerminalGrace
	}
	return DefaultTerminalGrace
}

// Server tracks submitted jobs by ID on top of one System.
type Server struct {
	sys *manimal.System
	cfg ServerConfig

	mu               sync.Mutex
	jobs             map[string]*tracked
	seq              int
	draining         bool
	rejectedFull     int64 // submissions answered 429 (queue full)
	rejectedDraining int64 // submissions answered 503 (draining)
}

type tracked struct {
	id          string
	seq         int
	handle      *manimal.JobHandle
	outputPath  string
	tenant      string
	submittedAt time.Time
	terminalAt  time.Time // zero while the job runs; set when Done closes
}

// New wraps a System in a job service with default (unbounded) admission.
func New(sys *manimal.System) *Server {
	return NewWith(sys, ServerConfig{})
}

// NewWith is New with explicit admission-control configuration.
func NewWith(sys *manimal.System, cfg ServerConfig) *Server {
	return &Server{sys: sys, cfg: cfg, jobs: make(map[string]*tracked)}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/v1/catalog", s.handleCatalog)
	mux.HandleFunc("/v1/pool", s.handlePool)
	mux.HandleFunc("/v1/health", s.handleHealth)
	mux.HandleFunc("/v1/stats", s.handleStats)
	return mux
}

// Adopt registers jobs resubmitted by System.Recover under their durable
// journal IDs, so clients can poll recovered jobs exactly like their
// original submissions. Called by `manimal serve -recover` before the
// listener opens.
func (s *Server) Adopt(recovered []manimal.RecoveredJob) {
	for _, r := range recovered {
		if r.Handle == nil {
			continue // journaled as failed; served from the journal fallback
		}
		s.mu.Lock()
		s.seq++
		t := &tracked{
			id:          r.ID,
			seq:         s.seq,
			handle:      r.Handle,
			outputPath:  r.OutputPath,
			submittedAt: time.Now(),
		}
		s.jobs[t.id] = t
		s.mu.Unlock()
		s.watchTerminal(t)
	}
}

// watchTerminal stamps the tracked entry when its job becomes terminal
// (the stamp drives both eviction and the active-jobs admission count).
func (s *Server) watchTerminal(t *tracked) {
	go func() {
		<-t.handle.Done()
		s.mu.Lock()
		t.terminalAt = time.Now()
		s.mu.Unlock()
	}()
}

// Draining reports whether Drain has been called: new submissions are
// being refused with 503 while running jobs finish.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// DrainReport summarizes a graceful drain.
type DrainReport struct {
	// Finished jobs completed (or were already terminal) within the
	// drain deadline; Canceled ones outlived it and were canceled.
	Finished int `json:"finished"`
	Canceled int `json:"canceled"`
	// Aborted is set when the faultinject drain point fired — the
	// simulated crash-mid-drain for recovery tests.
	Aborted bool `json:"aborted,omitempty"`
}

// Drain gracefully shuts the service down: admission stops immediately
// (new submits answer 503), running jobs may finish until ctx is done
// (the drain deadline), and whatever outlives the deadline is canceled
// and briefly awaited so every terminal state reaches the job journal.
// The HTTP listener itself is closed by the caller (http.Server.Shutdown)
// after Drain returns.
func (s *Server) Drain(ctx context.Context) DrainReport {
	s.mu.Lock()
	s.draining = true
	live := make([]*tracked, 0, len(s.jobs))
	for _, t := range s.jobs {
		if t.terminalAt.IsZero() {
			live = append(live, t)
		}
	}
	s.mu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].seq < live[j].seq })

	var rep DrainReport
	for len(live) > 0 {
		t := live[0]
		// The drain point models a coordinator crash mid-drain: abandon the
		// drain on the spot, leaving still-running jobs incomplete in the
		// journal for the next recovery — exactly what a real crash leaves.
		if err := faultinject.Fail(faultinject.PointDrain, t.id); err != nil {
			rep.Aborted = true
			return rep
		}
		select {
		case <-t.handle.Done():
			rep.Finished++
			live = live[1:]
		case <-ctx.Done():
			// Deadline passed: cancel the stragglers, then wait them out
			// within the cancel grace so their canceled states are
			// journaled before the process exits.
			for _, t := range live {
				t.handle.Cancel()
			}
			graceCtx, cancel := context.WithTimeout(context.Background(), defaultDrainCancelGrace)
			defer cancel()
			for _, t := range live {
				select {
				case <-t.handle.Done():
					rep.Canceled++
				case <-graceCtx.Done():
					return rep
				}
			}
			return rep
		}
	}
	return rep
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleSubmit(w, r)
	case http.MethodGet:
		s.handleList(w, r)
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET to list or POST to submit")
	}
}

// Submit hardening bounds: the endpoint is reachable by anything that can
// reach the port, so request size and engine fan-out parameters are
// capped before they allocate.
const (
	maxSubmitBodyBytes = 8 << 20
	maxEngineFanOut    = 4096 // reducers / parallel-task cap per job
	// maxStartupDelayMillis caps the modeled launch latency (the paper
	// observes up to 15 s; beyond minutes a job would just squat in
	// pending, holding its output-path claim and tracked entry).
	maxStartupDelayMillis = 5 * 60 * 1000
)

// maxTenantLen bounds the X-Manimal-Tenant header (it becomes a map key
// in scheduler accounting and journal records).
const maxTenantLen = 64

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := r.Header.Get(TenantHeader)
	if len(tenant) > maxTenantLen {
		httpError(w, http.StatusBadRequest, "tenant name longer than %d bytes", maxTenantLen)
		return
	}

	// Admission control, cheapest checks first: a draining server refuses
	// outright (503 — the process is going away, retrying here is futile);
	// a full admission queue sheds load (429 + Retry-After — backpressure,
	// not failure).
	s.mu.Lock()
	if s.draining {
		s.rejectedDraining++
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server is draining: not accepting new jobs")
		return
	}
	if max := s.cfg.MaxActiveJobs; max > 0 && s.activeLocked() >= max {
		s.rejectedFull++
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(int(defaultRetryAfter/time.Second)))
		httpError(w, http.StatusTooManyRequests, "admission queue full (%d active jobs); retry later", max)
		return
	}
	s.mu.Unlock()

	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBodyBytes))
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad submit body: %v", err)
		return
	}
	spec, err := req.toSpec()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec.Tenant = tenant
	if tenant != "" && s.cfg.TenantSlots > 0 {
		s.sys.SetTenantQuota(tenant, s.cfg.TenantSlots)
	}
	// The job outlives this request, so it runs under the server's
	// lifetime (context.Background), not the HTTP request context, even
	// while the answer waits for it; clients stop it through the cancel
	// endpoint.
	h, err := s.sys.SubmitAsync(context.Background(), spec)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	s.mu.Lock()
	s.seq++
	id := h.JournalID() // durable ID when the journal is on...
	if id == "" {
		id = fmt.Sprintf("j%04d", s.seq) // ...ephemeral otherwise
	}
	t := &tracked{
		id:          id,
		seq:         s.seq,
		handle:      h,
		outputPath:  spec.OutputPath,
		tenant:      tenant,
		submittedAt: time.Now(),
	}
	s.jobs[t.id] = t
	s.pruneLocked()
	s.mu.Unlock()
	s.watchTerminal(t)
	code := http.StatusAccepted
	if preferAsync(r) {
		w.Header().Set("Preference-Applied", "respond-async")
	} else if awaitDone(r.Context(), h.Done(), submitHold) {
		code = http.StatusOK
	}
	writeJSON(w, code, t.info())
}

// submitHold is how long a submission's answer waits for its job to
// finish (see "Answering a submission" in the package doc).
const submitHold = 100 * time.Millisecond

// awaitDone waits up to hold for done to close, or for ctx (the request)
// to end, and reports whether done closed.
func awaitDone(ctx context.Context, done <-chan struct{}, hold time.Duration) bool {
	t := time.NewTimer(hold)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
	case <-ctx.Done():
	}
	return false
}

// preferAsync reports whether the request carries the RFC 7240
// "Prefer: respond-async" preference: the client wants the 202 at once.
func preferAsync(r *http.Request) bool {
	for _, h := range r.Header.Values("Prefer") {
		for _, pref := range strings.Split(h, ",") {
			token, _, _ := strings.Cut(pref, ";")
			if strings.EqualFold(strings.TrimSpace(token), "respond-async") {
				return true
			}
		}
	}
	return false
}

// activeLocked counts tracked jobs that are not yet terminal — the
// admission queue depth.
func (s *Server) activeLocked() int {
	n := 0
	for _, t := range s.jobs {
		if t.terminalAt.IsZero() {
			n++
		}
	}
	return n
}

// pruneLocked evicts the oldest long-terminal jobs once the register
// outgrows the configured cap.
func (s *Server) pruneLocked() {
	max := s.cfg.maxTerminal()
	if len(s.jobs) <= max {
		return
	}
	cutoff := time.Now().Add(-s.cfg.terminalGrace())
	var evictable []*tracked
	for _, t := range s.jobs {
		if !t.terminalAt.IsZero() && t.terminalAt.Before(cutoff) {
			evictable = append(evictable, t)
		}
	}
	sort.Slice(evictable, func(i, j int) bool { return evictable[i].seq < evictable[j].seq })
	for _, t := range evictable {
		if len(s.jobs) <= max {
			return
		}
		delete(s.jobs, t.id)
	}
}

// toSpec converts the wire request into a JobSpec (parsing each program).
func (r *SubmitRequest) toSpec() (manimal.JobSpec, error) {
	if len(r.Inputs) == 0 {
		return manimal.JobSpec{}, fmt.Errorf("submit: no inputs")
	}
	if r.OutputPath == "" {
		return manimal.JobSpec{}, fmt.Errorf("submit: no output_path")
	}
	if r.NumReducers < 0 || r.NumReducers > maxEngineFanOut {
		return manimal.JobSpec{}, fmt.Errorf("submit: num_reducers %d out of range [0, %d]", r.NumReducers, maxEngineFanOut)
	}
	if r.MaxParallelTasks < 0 || r.MaxParallelTasks > maxEngineFanOut {
		return manimal.JobSpec{}, fmt.Errorf("submit: max_parallel_tasks %d out of range [0, %d]", r.MaxParallelTasks, maxEngineFanOut)
	}
	if r.StartupDelayMillis < 0 || r.StartupDelayMillis > maxStartupDelayMillis {
		return manimal.JobSpec{}, fmt.Errorf("submit: startup_delay_ms %d out of range [0, %d]", r.StartupDelayMillis, maxStartupDelayMillis)
	}
	name := r.Name
	if name == "" {
		name = "job"
	}
	spec := manimal.JobSpec{
		Name:                name,
		OutputPath:          r.OutputPath,
		MapOnly:             r.MapOnly,
		SortedOutput:        r.SortedOutput,
		SafeMode:            r.SafeMode,
		DisableOptimization: r.DisableOptimization,
		NumReducers:         r.NumReducers,
		MaxParallelTasks:    r.MaxParallelTasks,
		StartupDelay:        time.Duration(r.StartupDelayMillis) * time.Millisecond,
	}
	for i, in := range r.Inputs {
		pname := in.ProgramName
		if pname == "" {
			pname = fmt.Sprintf("%s-input%d", name, i)
		}
		prog, err := manimal.ParseProgram(pname, in.Program)
		if err != nil {
			return manimal.JobSpec{}, fmt.Errorf("submit: program for input %q: %w", in.Path, err)
		}
		spec.Inputs = append(spec.Inputs, manimal.InputSpec{Path: in.Path, Program: prog})
	}
	if len(r.Conf) > 0 {
		conf, err := confFromJSON(r.Conf)
		if err != nil {
			return manimal.JobSpec{}, err
		}
		spec.Conf = conf
	}
	return spec, nil
}

// ConfToJSON maps Manimal scalars onto the wire conf shape — the inverse
// of the submit handler's decoding, so CLI clients can reuse one k=v
// parser for both local runs and service submissions.
func ConfToJSON(conf manimal.Conf) map[string]any {
	if len(conf) == 0 {
		return nil
	}
	out := make(map[string]any, len(conf))
	for k, d := range conf {
		switch d.Kind {
		case serde.KindInt64:
			out[k] = d.Int()
		case serde.KindFloat64:
			if math.IsInf(d.Float(), 0) || math.IsNaN(d.Float()) {
				out[k] = d.Float() // json.Marshal rejects it, as for any JSON payload
				continue
			}
			// Keep a decimal marker on integral floats: a bare "2" would
			// come back from confFromJSON as Int and flip the datum's
			// kind across the wire (ConfFloat programs would then fail).
			num := strconv.FormatFloat(d.Float(), 'g', -1, 64)
			if !strings.ContainsAny(num, ".eE") {
				num += ".0"
			}
			out[k] = json.Number(num)
		case serde.KindBool:
			out[k] = d.Flag()
		default:
			out[k] = d.Str()
		}
	}
	return out
}

// confFromJSON maps JSON values onto Manimal scalars.
func confFromJSON(m map[string]any) (manimal.Conf, error) {
	conf := manimal.Conf{}
	for k, v := range m {
		switch x := v.(type) {
		case json.Number:
			if i, err := strconv.ParseInt(x.String(), 10, 64); err == nil {
				conf[k] = manimal.Int(i)
			} else if f, err := x.Float64(); err == nil {
				conf[k] = manimal.Float(f)
			} else {
				return nil, fmt.Errorf("submit: conf %q: bad number %q", k, x.String())
			}
		case string:
			conf[k] = manimal.String(x)
		case bool:
			conf[k] = manimal.Bool(x)
		default:
			return nil, fmt.Errorf("submit: conf %q: unsupported value type %T", k, v)
		}
	}
	return conf, nil
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	all := make([]*tracked, 0, len(s.jobs))
	for _, t := range s.jobs {
		all = append(all, t)
	}
	s.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make([]JobInfo, 0, len(all))
	for _, t := range all {
		out = append(out, t.info())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(path.Clean(r.URL.Path), "/v1/jobs/")
	id, action, _ := strings.Cut(rest, "/")
	s.mu.Lock()
	t := s.jobs[id]
	s.mu.Unlock()
	if t == nil {
		// An evicted (or pre-restart) terminal job is not lost: with the
		// journal on, its outcome is answered from the durable record.
		if jnl := s.sys.Journal(); jnl != nil && action == "" && r.Method == http.MethodGet {
			if e, ok, err := jnl.Lookup(id); err == nil && ok {
				writeJSON(w, http.StatusOK, journalInfo(e))
				return
			}
		}
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	switch {
	case action == "" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, t.info())
	case action == "cancel" && r.Method == http.MethodPost:
		t.handle.Cancel()
		writeJSON(w, http.StatusOK, t.info())
	default:
		httpError(w, http.StatusMethodNotAllowed, "unsupported %s %s", r.Method, r.URL.Path)
	}
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, s.sys.Catalog().All())
}

func (s *Server) handlePool(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, s.sys.PoolStats())
}

// HealthInfo is the liveness answer: status is "ok" while accepting work
// and "draining" once a graceful shutdown started.
type HealthInfo struct {
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	h := HealthInfo{Status: "ok"}
	if s.Draining() {
		h.Status, h.Draining = "draining", true
	}
	writeJSON(w, http.StatusOK, h)
}

// StatsInfo is the operational snapshot served by /v1/stats: pool and
// queue depth, admission-control rejections, journal totals, and the
// fault-tolerance / multi-query-optimization counters summed across every
// tracked job.
type StatsInfo struct {
	Pool             manimal.PoolStats `json:"pool"`
	Draining         bool              `json:"draining"`
	JobsTracked      int               `json:"jobs_tracked"`
	JobsActive       int               `json:"jobs_active"`
	JobsTerminal     int               `json:"jobs_terminal"`
	MaxActiveJobs    int               `json:"max_active_jobs,omitempty"`
	RejectedFull     int64             `json:"rejected_full"`
	RejectedDraining int64             `json:"rejected_draining"`
	Journal          *journal.Stats    `json:"journal,omitempty"`
	Counters         map[string]int64  `json:"counters,omitempty"`
}

// statsCounters is the counter subset /v1/stats aggregates across jobs:
// what fault tolerance and the result cache did service-wide.
var statsCounters = []string{
	mapreduce.CtrTasksRetried,
	mapreduce.CtrTasksSpeculative,
	mapreduce.CtrCorruptBlocks,
	mapreduce.CtrCacheHits,
	mapreduce.CtrCacheMisses,
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats assembles the /v1/stats snapshot (exported for the CLI's offline
// reuse in `manimal jobs`).
func (s *Server) Stats() StatsInfo {
	s.mu.Lock()
	st := StatsInfo{
		Draining:         s.draining,
		JobsTracked:      len(s.jobs),
		JobsActive:       s.activeLocked(),
		MaxActiveJobs:    s.cfg.MaxActiveJobs,
		RejectedFull:     s.rejectedFull,
		RejectedDraining: s.rejectedDraining,
	}
	st.JobsTerminal = st.JobsTracked - st.JobsActive
	all := make([]*tracked, 0, len(s.jobs))
	for _, t := range s.jobs {
		all = append(all, t)
	}
	s.mu.Unlock()
	st.Pool = s.sys.PoolStats()
	agg := make(map[string]int64)
	for _, t := range all {
		ctrs := t.handle.Status().Counters
		for _, name := range statsCounters {
			if v := ctrs[name]; v != 0 {
				agg[name] += v
			}
		}
	}
	if len(agg) > 0 {
		st.Counters = agg
	}
	if jnl := s.sys.Journal(); jnl != nil {
		js := jnl.Stats()
		st.Journal = &js
	}
	return st
}

// journalInfo synthesizes a JobInfo from a journal entry — the fallback
// view for jobs evicted from memory or belonging to a previous run of the
// coordinator. An entry with no terminal record reports phase
// "incomplete" (the job died with a coordinator that has not run recovery
// under this server).
func journalInfo(e journal.Entry) JobInfo {
	info := JobInfo{
		ID:          e.Sub.ID,
		Name:        e.Sub.Name,
		OutputPath:  e.Sub.OutputPath,
		Tenant:      e.Sub.Tenant,
		SubmittedAt: e.Sub.SubmittedAt,
		Phase:       e.State(),
	}
	if e.End != nil {
		info.Error = e.End.Error
		if e.End.OutputRecords != 0 {
			info.Counters = map[string]int64{mapreduce.CtrOutputRecords: e.End.OutputRecords}
		}
	}
	return info
}

// info snapshots a tracked job for the wire.
func (t *tracked) info() JobInfo {
	st := t.handle.Status()
	info := JobInfo{
		ID:          t.id,
		Name:        t.handle.Name(),
		OutputPath:  t.outputPath,
		Tenant:      t.tenant,
		SubmittedAt: t.submittedAt,
		Phase:       string(st.Phase),
		TasksDone:   st.TasksDone,
		TasksTotal:  st.TasksTotal,
		DurationMS:  st.Duration.Milliseconds(),
		Counters:    st.Counters,
	}
	for _, a := range st.Attempts {
		info.Attempts = append(info.Attempts, AttemptInfo{
			Phase:       string(a.Phase),
			Task:        a.Task,
			Attempt:     a.Attempt,
			Speculative: a.Speculative,
			DurationMS:  a.Duration.Milliseconds(),
			Outcome:     a.Outcome,
			Error:       a.Error,
		})
	}
	for _, ir := range t.handle.Inputs() {
		pi := PlanInfo{Input: ir.Path}
		if ir.Plan != nil {
			pi.Kind = ir.Plan.Kind.String()
			pi.Applied = ir.Plan.Applied
			pi.Notes = ir.Plan.Notes
		}
		info.Plans = append(info.Plans, pi)
	}
	if st.Err != nil {
		info.Error = st.Err.Error()
	}
	return info
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
