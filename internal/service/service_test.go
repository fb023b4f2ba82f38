package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"manimal"
	"manimal/internal/mapreduce"
	"manimal/internal/workload"
)

const countProgram = `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("rank") > ctx.ConfInt("threshold") {
		ctx.Emit(v.Int("rank") % 10, 1)
	}
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	count := 0
	for values.Next() {
		count = count + values.Int()
	}
	ctx.Emit(key, count)
}
`

func newTestService(t *testing.T) (*Client, string) {
	t.Helper()
	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(21).WriteWebPages(data, 3000, 64); err != nil {
		t.Fatal(err)
	}
	sys, err := manimal.NewSystemWith(filepath.Join(dir, "sys"), manimal.Options{SchedulerSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sys).Handler())
	t.Cleanup(ts.Close)
	return NewClient(ts.URL), data
}

// TestServeEndToEnd drives the full HTTP surface: submit, status polling
// to completion, list, catalog, pool — and verifies the job really wrote
// its output.
func TestServeEndToEnd(t *testing.T) {
	c, data := newTestService(t)
	out := filepath.Join(filepath.Dir(data), "out.kv")

	info, err := c.Submit(SubmitRequest{
		Name:       "count",
		Inputs:     []SubmitInput{{Path: data, Program: countProgram}},
		OutputPath: out,
		Conf:       map[string]any{"threshold": 5000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID == "" || info.Phase == "" {
		t.Fatalf("submit returned %+v", info)
	}
	if len(info.Plans) != 1 || info.Plans[0].Kind == "" {
		t.Fatalf("submit reported no plan: %+v", info.Plans)
	}

	final, err := c.WaitJob(info.ID, 30*time.Second, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Phase != "done" {
		t.Fatalf("job finished in phase %s (error %q)", final.Phase, final.Error)
	}
	// The scan pushdown drops provably non-matching rows before the
	// interpreter: surviving map inputs plus prefiltered rows cover the file.
	if got := final.Counters["map.input.records"] + final.Counters["manimal.rows.prefiltered"]; got != 3000 {
		t.Fatalf("final counters = %v", final.Counters)
	}
	if final.Counters["manimal.rows.prefiltered"] == 0 {
		t.Fatalf("expected residual row filtering on a selective scan; counters = %v", final.Counters)
	}
	pairs, err := manimal.ReadOutput(out)
	if err != nil {
		t.Fatalf("reading job output: %v", err)
	}
	if len(pairs) == 0 {
		t.Fatal("job wrote no output pairs")
	}

	jobs, err := c.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != info.ID {
		t.Fatalf("jobs list = %+v", jobs)
	}
	if _, err := c.Catalog(); err != nil {
		t.Fatalf("catalog: %v", err)
	}
	pool, err := c.Pool()
	if err != nil {
		t.Fatal(err)
	}
	if pool.Slots != 2 {
		t.Fatalf("pool slots = %d, want 2", pool.Slots)
	}
}

// TestSubmitAnswersOnCompletion: a tiny job's submission is answered 200
// with its terminal state — the same counters, plans and attempts the
// next GET reports — so the client needs no status poll. Each try is a
// distinct job (its own threshold), so no answer comes from the result
// cache; five tiny jobs all outliving the hold window fails the test.
func TestSubmitAnswersOnCompletion(t *testing.T) {
	c, _, _, data, url := newRobustService(t, manimal.Options{}, ServerConfig{})
	var info JobInfo
	for try := 0; ; try++ {
		req := submitReq(data, filepath.Join(filepath.Dir(data), fmt.Sprintf("tiny%d.kv", try)), 0)
		req.Conf["threshold"] = 5000 + try
		resp := rawSubmit(t, url, req, "")
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			break
		}
		if resp.StatusCode != http.StatusAccepted || try == 4 {
			t.Fatalf("tiny submission %d answered HTTP %d, phase %s", try, resp.StatusCode, info.Phase)
		}
	}
	if info.Phase != "done" || info.Counters["output.records"] == 0 || len(info.Plans) != 1 || len(info.Attempts) == 0 {
		t.Fatalf("200 answer is not the finished job: %+v", info)
	}
	got, err := c.Job(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Counters, info.Counters) || !reflect.DeepEqual(got.Plans, info.Plans) ||
		!reflect.DeepEqual(got.Attempts, info.Attempts) {
		t.Fatalf("submit answer and status disagree:\nsubmit %+v\nstatus %+v", info, got)
	}
}

// TestSubmitPreferRespondAsync: "Prefer: respond-async" gets the 202 at
// once, even for a job the server would otherwise have answered finished.
func TestSubmitPreferRespondAsync(t *testing.T) {
	c, _, _, data, url := newRobustService(t, manimal.Options{}, ServerConfig{})
	dir := filepath.Dir(data)
	body, err := json.Marshal(submitReq(data, filepath.Join(dir, "async.kv"), 0))
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Prefer", "wait=5, Respond-Async")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("Preference-Applied") != "respond-async" {
		t.Fatalf("respond-async submission answered HTTP %d, Preference-Applied %q",
			resp.StatusCode, resp.Header.Get("Preference-Applied"))
	}

	held := submitReq(data, filepath.Join(dir, "held.kv"), 60_000)
	held.Conf["threshold"] = 6000 // not a cache hit on the first job
	info, err := c.SubmitAsync(held)
	if err != nil {
		t.Fatal(err)
	}
	if mapreduce.Phase(info.Phase).Terminal() {
		t.Fatalf("SubmitAsync of a held job answered terminal: %+v", info)
	}
}

// TestSubmitHoldIsBounded: a job that cannot finish soon (a minute of
// modeled launch latency) is answered 202, live, well within the HTTP
// timeout — the hold window is short and fixed.
func TestSubmitHoldIsBounded(t *testing.T) {
	c, _, _, data, url := newRobustService(t, manimal.Options{}, ServerConfig{})
	start := time.Now()
	resp := rawSubmit(t, url, submitReq(data, filepath.Join(filepath.Dir(data), "slow.kv"), 60_000), "")
	if took := time.Since(start); took > 20*time.Second {
		t.Fatalf("submission of a long job took %s to answer", took)
	}
	var info JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || mapreduce.Phase(info.Phase).Terminal() {
		t.Fatalf("long job answered HTTP %d, phase %s", resp.StatusCode, info.Phase)
	}
	if _, err := c.Cancel(info.ID); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitClientGoneMidHold: a client that gives up while its answer is
// held does not take the job with it — the job runs to completion.
func TestSubmitClientGoneMidHold(t *testing.T) {
	c, _, _, data, url := newRobustService(t, manimal.Options{}, ServerConfig{})
	body, err := json.Marshal(submitReq(data, filepath.Join(filepath.Dir(data), "orphan.kv"), 300))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(hr)
		if err == nil {
			resp.Body.Close()
		}
		sent <- err
	}()
	// Hang up as soon as the server has accepted the job.
	var jobs []JobInfo
	for deadline := time.Now().Add(10 * time.Second); len(jobs) == 0; {
		if jobs, err = c.Jobs(); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("the submission never registered a job")
		}
	}
	cancel()
	<-sent
	final, err := c.WaitJob(jobs[0].ID, 30*time.Second, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Phase != "done" {
		t.Fatalf("job whose client hung up ended %s (%s)", final.Phase, final.Error)
	}
}

// TestServeCancel submits a job held in admission and cancels it over
// HTTP; the job must end canceled with its partial output cleaned up.
func TestServeCancel(t *testing.T) {
	c, data := newTestService(t)
	out := filepath.Join(filepath.Dir(data), "out.kv")
	info, err := c.Submit(SubmitRequest{
		Name:               "doomed",
		Inputs:             []SubmitInput{{Path: data, Program: countProgram}},
		OutputPath:         out,
		Conf:               map[string]any{"threshold": 5000},
		StartupDelayMillis: 60_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(info.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitJob(info.ID, 10*time.Second, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.Phase != "canceled" {
		t.Fatalf("canceled job ended in phase %s", final.Phase)
	}
	if final.Error == "" {
		t.Fatal("canceled job reports no error")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("partial output survived cancellation (stat err = %v)", err)
	}
}

// TestConfRoundTrip: every scalar kind must survive client encoding →
// JSON wire → server decoding with its kind intact. Integral floats are
// the trap: a bare "2" on the wire would come back as Int and break
// ConfFloat programs.
func TestConfRoundTrip(t *testing.T) {
	orig := manimal.Conf{
		"ints":    manimal.Int(5),
		"flt":     manimal.Float(0.5),
		"fltint":  manimal.Float(2.0),
		"fltbig":  manimal.Float(1e21),
		"text":    manimal.String("abc"),
		"numtext": manimal.String("17"),
		"flag":    manimal.Bool(true),
	}
	raw, err := json.Marshal(ConfToJSON(orig))
	if err != nil {
		t.Fatal(err)
	}
	var wire map[string]any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&wire); err != nil {
		t.Fatal(err)
	}
	got, err := confFromJSON(wire)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range orig {
		// Strings deliberately stay strings even when they look numeric:
		// JSON string tokens never enter the number path.
		if d := got[k]; d.Kind != want.Kind || !d.Equal(want) {
			t.Errorf("%s: %v (kind %v) != %v (kind %v)", k, d, d.Kind, want, want.Kind)
		}
	}
}

// TestServeRejects exercises the error envelope: bad body, bad program,
// unknown job.
func TestServeRejects(t *testing.T) {
	c, data := newTestService(t)
	if _, err := c.Submit(SubmitRequest{OutputPath: "x.kv"}); err == nil {
		t.Error("submit with no inputs accepted")
	}
	if _, err := c.Submit(SubmitRequest{
		Inputs:     []SubmitInput{{Path: data, Program: "func Map(k, v *Record"}},
		OutputPath: "x.kv",
	}); err == nil {
		t.Error("submit with unparsable program accepted")
	}
	if _, err := c.Submit(SubmitRequest{
		Inputs:      []SubmitInput{{Path: data, Program: countProgram}},
		OutputPath:  "x.kv",
		NumReducers: 1 << 30,
	}); err == nil {
		t.Error("submit with absurd num_reducers accepted")
	}
	if _, err := c.Job("j9999"); err == nil {
		t.Error("unknown job id did not 404")
	}
}
