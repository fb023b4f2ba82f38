package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"manimal"
	"manimal/internal/faultinject"
	"manimal/internal/workload"
)

// newRobustService builds a service with explicit System options and
// server config — the knobs the admission/drain/journal tests turn.
func newRobustService(t *testing.T, opts manimal.Options, cfg ServerConfig) (*Client, *Server, *manimal.System, string, string) {
	t.Helper()
	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(21).WriteWebPages(data, 2000, 64); err != nil {
		t.Fatal(err)
	}
	if opts.SchedulerSlots == 0 {
		opts.SchedulerSlots = 2
	}
	sys, err := manimal.NewSystemWith(filepath.Join(dir, "sys"), opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWith(sys, cfg)
	// Registered after t.TempDir(), so it runs before the directory is
	// removed: a job the test canceled or abandoned may still be writing
	// its journal end segment or scrubbing its scratch directory. The test
	// is over, so the drain deadline has already passed — stragglers are
	// canceled at once — and Done is observable only after those writes.
	t.Cleanup(func() {
		over, cancel := context.WithCancel(context.Background())
		cancel()
		srv.Drain(over)
		// Drain gives up after its cancel grace, or at once when a test's
		// drain fault point is still armed; every job must be terminal.
		srv.mu.Lock()
		jobs := make([]*tracked, 0, len(srv.jobs))
		for _, j := range srv.jobs {
			jobs = append(jobs, j)
		}
		srv.mu.Unlock()
		deadline := time.After(30 * time.Second)
		for _, j := range jobs {
			j.handle.Cancel()
			select {
			case <-j.handle.Done():
			case <-deadline:
				t.Errorf("job %s still running 30s after the test ended", j.id)
				return
			}
		}
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return NewClient(ts.URL), srv, sys, data, ts.URL
}

func submitReq(data, out string, delayMillis int64) SubmitRequest {
	return SubmitRequest{
		Name:               "count",
		Inputs:             []SubmitInput{{Path: data, Program: countProgram}},
		OutputPath:         out,
		Conf:               map[string]any{"threshold": 5000},
		StartupDelayMillis: delayMillis,
	}
}

// rawSubmit posts a submission without the client's error folding, so
// tests can assert on status codes and headers.
func rawSubmit(t *testing.T, url string, req SubmitRequest, tenant string) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		hr.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// waitStats polls /v1/stats until pred holds (the terminal stamp is
// written by a watcher goroutine, so "job finished" lags WaitJob briefly).
func waitStats(t *testing.T, c *Client, pred func(StatsInfo) bool) StatsInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never converged; last = %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdmissionBackpressure: with a 1-job admission queue, the second
// submission is shed with 429 + Retry-After, and a retrying client gets
// in once capacity frees.
func TestAdmissionBackpressure(t *testing.T) {
	c, _, _, data, url := newRobustService(t,
		manimal.Options{}, ServerConfig{MaxActiveJobs: 1})
	dir := filepath.Dir(data)

	held, err := c.Submit(submitReq(data, filepath.Join(dir, "held.kv"), 60_000))
	if err != nil {
		t.Fatal(err)
	}
	resp := rawSubmit(t, url, submitReq(data, filepath.Join(dir, "shed.kv"), 0), "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit = HTTP %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 without a usable Retry-After (got %q)", ra)
	}

	// A client honoring the hint succeeds once the held job is canceled.
	go func() {
		time.Sleep(300 * time.Millisecond)
		c.Cancel(held.ID)
	}()
	rc := NewClient(url)
	rc.SetRetry(5, 50*time.Millisecond)
	info, err := rc.Submit(submitReq(data, filepath.Join(dir, "retried.kv"), 0))
	if err != nil {
		t.Fatalf("retrying submit failed: %v", err)
	}
	if _, err := c.WaitJob(info.ID, 30*time.Second, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := waitStats(t, c, func(st StatsInfo) bool { return st.RejectedFull >= 1 })
	if st.MaxActiveJobs != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDrainDeadline: a drain whose deadline passes cancels the straggler,
// reports it, flips health to draining, and refuses new submissions with
// 503.
func TestDrainDeadline(t *testing.T) {
	c, srv, _, data, url := newRobustService(t, manimal.Options{}, ServerConfig{})
	dir := filepath.Dir(data)

	if h, err := c.Health(); err != nil || h.Status != "ok" || h.Draining {
		t.Fatalf("pre-drain health = %+v, %v", h, err)
	}
	held, err := c.Submit(submitReq(data, filepath.Join(dir, "held.kv"), 60_000))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	rep := srv.Drain(ctx)
	if rep.Canceled != 1 || rep.Finished != 0 || rep.Aborted {
		t.Fatalf("drain report = %+v", rep)
	}
	final, err := c.Job(held.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Phase != "canceled" {
		t.Fatalf("straggler ended in phase %s", final.Phase)
	}

	if h, err := c.Health(); err != nil || h.Status != "draining" || !h.Draining {
		t.Fatalf("post-drain health = %+v, %v", h, err)
	}
	resp := rawSubmit(t, url, submitReq(data, filepath.Join(dir, "late.kv"), 0), "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = HTTP %d, want 503", resp.StatusCode)
	}
	if st, err := c.Stats(); err != nil || !st.Draining || st.RejectedDraining != 1 {
		t.Fatalf("stats = %+v, %v", st, err)
	}
}

// TestDrainFinishesFastJobs: jobs that complete within the deadline are
// reported finished, not canceled.
func TestDrainFinishesFastJobs(t *testing.T) {
	c, srv, _, data, _ := newRobustService(t, manimal.Options{}, ServerConfig{})
	info, err := c.Submit(submitReq(data, filepath.Join(filepath.Dir(data), "fast.kv"), 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep := srv.Drain(ctx)
	if rep.Canceled != 0 || rep.Finished > 1 || rep.Aborted {
		t.Fatalf("drain report = %+v", rep)
	}
	final, err := c.Job(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Phase != "done" {
		t.Fatalf("job ended in phase %s (%s)", final.Phase, final.Error)
	}
}

// TestDrainAborts: the drain fault point models a coordinator crash
// mid-drain — Drain must return immediately with Aborted set, leaving the
// straggler incomplete for the next recovery.
func TestDrainAborts(t *testing.T) {
	faultinject.Set(faultinject.MustParse("drain=1.0;seed=5"))
	defer faultinject.Reset()
	c, srv, _, data, _ := newRobustService(t, manimal.Options{}, ServerConfig{})
	if _, err := c.Submit(submitReq(data, filepath.Join(filepath.Dir(data), "held.kv"), 60_000)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep := srv.Drain(ctx)
	if !rep.Aborted || rep.Finished != 0 || rep.Canceled != 0 {
		t.Fatalf("drain report = %+v, want aborted", rep)
	}
}

// TestStatsAndJournalLifecycle: /v1/stats folds pool, queue, and journal
// state together; a completed job shows up as one terminal tracked job and
// one complete journal entry.
func TestStatsAndJournalLifecycle(t *testing.T) {
	c, _, _, data, _ := newRobustService(t,
		manimal.Options{Journal: true}, ServerConfig{})
	info, err := c.Submit(submitReq(data, filepath.Join(filepath.Dir(data), "out.kv"), 0))
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "j00000001" {
		t.Fatalf("journaled submission got ID %s", info.ID)
	}
	if _, err := c.WaitJob(info.ID, 30*time.Second, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := waitStats(t, c, func(st StatsInfo) bool { return st.JobsTerminal == 1 })
	if st.Pool.Slots != 2 || st.JobsTracked != 1 || st.JobsActive != 0 || st.Draining {
		t.Fatalf("stats = %+v", st)
	}
	if st.Journal == nil || st.Journal.Jobs != 1 || st.Journal.Incomplete != 0 {
		t.Fatalf("journal stats = %+v", st.Journal)
	}
}

// TestEvictedJobServedFromJournal: once the terminal-job register evicts a
// finished job, its status answer comes from the durable journal instead
// of 404.
func TestEvictedJobServedFromJournal(t *testing.T) {
	c, _, _, data, _ := newRobustService(t,
		manimal.Options{Journal: true},
		ServerConfig{MaxTerminalJobs: 1, TerminalGrace: time.Nanosecond})
	dir := filepath.Dir(data)

	first, err := c.Submit(submitReq(data, filepath.Join(dir, "first.kv"), 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitJob(first.ID, 30*time.Second, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	waitStats(t, c, func(st StatsInfo) bool { return st.JobsActive == 0 })

	// The next submission prunes: 2 tracked > cap 1, and the first job has
	// been terminal longer than the (nanosecond) grace.
	second, err := c.Submit(submitReq(data, filepath.Join(dir, "second.kv"), 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitJob(second.ID, 30*time.Second, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	jobs, err := c.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != second.ID {
		t.Fatalf("tracked jobs after eviction = %+v", jobs)
	}

	got, err := c.Job(first.ID)
	if err != nil {
		t.Fatalf("evicted job lookup: %v", err)
	}
	if got.ID != first.ID || got.Phase != "done" {
		t.Fatalf("journal-served info = %+v", got)
	}
	if got.Counters["output.records"] == 0 {
		t.Fatalf("journal-served info lost the output count: %+v", got.Counters)
	}
	if _, err := c.Job("j99999999"); err == nil {
		t.Fatal("never-submitted ID did not 404")
	}
}

// TestTenantQuotaOverHTTP: the X-Manimal-Tenant header ties a submission
// to a slot quota; a saturating tenant never exceeds it while an
// unquotaed job completes alongside.
func TestTenantQuotaOverHTTP(t *testing.T) {
	c, _, sys, data, url := newRobustService(t,
		manimal.Options{SchedulerSlots: 2}, ServerConfig{TenantSlots: 1})
	dir := filepath.Dir(data)

	tc := NewClient(url)
	tc.SetTenant("big")
	bigInfo, err := tc.Submit(submitReq(data, filepath.Join(dir, "big.kv"), 0))
	if err != nil {
		t.Fatal(err)
	}
	if bigInfo.Tenant != "big" {
		t.Fatalf("submit info lost the tenant: %+v", bigInfo)
	}
	smallInfo, err := c.Submit(submitReq(data, filepath.Join(dir, "small.kv"), 0))
	if err != nil {
		t.Fatal(err)
	}
	small, err := c.WaitJob(smallInfo.ID, 30*time.Second, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if small.Phase != "done" {
		t.Fatalf("unquotaed job ended %s (%s)", small.Phase, small.Error)
	}
	big, err := c.WaitJob(bigInfo.ID, 30*time.Second, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if big.Phase != "done" {
		t.Fatalf("tenant job ended %s (%s)", big.Phase, big.Error)
	}
	ts, ok := sys.PoolStats().Tenants["big"]
	if !ok || ts.Quota != 1 {
		t.Fatalf("tenant pool stats = %+v (present %v)", ts, ok)
	}
	if ts.HighWater > 1 {
		t.Fatalf("tenant held %d slots with a quota of 1", ts.HighWater)
	}

	tooLong := make([]byte, maxTenantLen+1)
	for i := range tooLong {
		tooLong[i] = 'x'
	}
	resp := rawSubmit(t, url, submitReq(data, filepath.Join(dir, "x.kv"), 0), string(tooLong))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized tenant header = HTTP %d, want 400", resp.StatusCode)
	}
}

// TestJournalFaultRefusesSubmission: when the journal cannot record a
// submission, the submission must be refused — accepted-but-unjournaled
// jobs would vanish in a crash.
func TestJournalFaultRefusesSubmission(t *testing.T) {
	c, _, sys, data, _ := newRobustService(t,
		manimal.Options{Journal: true}, ServerConfig{})
	out := filepath.Join(filepath.Dir(data), "out.kv")

	faultinject.Set(faultinject.MustParse("journal=1.0;seed=3"))
	if _, err := c.Submit(submitReq(data, out, 0)); err == nil {
		faultinject.Reset()
		t.Fatal("submission accepted while its journal write failed")
	}
	faultinject.Reset()

	if jobs, err := c.Jobs(); err != nil || len(jobs) != 0 {
		t.Fatalf("refused submission left tracked jobs: %+v, %v", jobs, err)
	}
	if st := sys.Journal().Stats(); st.Jobs != 0 {
		t.Fatalf("refused submission left %d journal entries", st.Jobs)
	}

	// The same submission goes through once journal writes heal.
	info, err := c.Submit(submitReq(data, out, 0))
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c.WaitJob(info.ID, 30*time.Second, 20*time.Millisecond); err != nil || final.Phase != "done" {
		t.Fatalf("post-fault submit: %+v, %v", final, err)
	}
}
