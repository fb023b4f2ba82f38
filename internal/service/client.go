package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"manimal/internal/catalog"
	"manimal/internal/mapreduce"
)

// Client talks to a running `manimal serve` instance.
type Client struct {
	base string
	hc   *http.Client

	// Client-side resilience, off by default (SetRetry): bounded retries
	// with exponential backoff + jitter for idempotent GETs on transient
	// failures, and Retry-After-honoring retries for 429-rejected submits.
	retries int
	backoff time.Duration
	// tenant is sent as the X-Manimal-Tenant header on submits (SetTenant).
	tenant string
}

// NewClient creates a client for the service at base (e.g.
// "http://127.0.0.1:7070") with a 30-second per-request timeout.
func NewClient(base string) *Client {
	return NewClientTimeout(base, 30*time.Second)
}

// NewClientTimeout is NewClient with an explicit per-request timeout; a
// non-positive timeout disables the limit (callers waiting on long jobs
// should prefer WaitJob's polling over one unbounded request).
func NewClientTimeout(base string, timeout time.Duration) *Client {
	if timeout < 0 {
		timeout = 0
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{Timeout: timeout}}
}

// SetRetry enables bounded client-side retries: up to retries extra
// attempts after the first, with exponential backoff and jitter.
// Idempotent GETs retry on transport errors and gateway-style transient
// answers (502/503/504); submits retry ONLY on 429 backpressure, honoring
// the server's Retry-After hint. Non-idempotent cancels never retry.
// Retries are off by default — the CLI turns them on per -retries flag.
func (c *Client) SetRetry(retries int, backoff time.Duration) {
	if retries < 0 {
		retries = 0
	}
	if backoff <= 0 {
		backoff = 200 * time.Millisecond
	}
	c.retries, c.backoff = retries, backoff
}

// SetTenant names the tenant sent with every submission (the
// X-Manimal-Tenant header), tying the job to that tenant's pool-share
// quota on the server.
func (c *Client) SetTenant(tenant string) { c.tenant = tenant }

// Submit posts a job and returns its service-side record. The server
// answers on completion: a job that finishes within its short hold window
// comes back terminal, with its outcome; a longer one comes back live, to
// be polled with Job or WaitJob.
func (c *Client) Submit(req SubmitRequest) (JobInfo, error) {
	var out JobInfo
	err := c.do(http.MethodPost, "/v1/jobs", nil, req, &out)
	return out, err
}

// SubmitAsync is Submit answered at once ("Prefer: respond-async"): the
// record usually comes back live, whatever the job's size.
func (c *Client) SubmitAsync(req SubmitRequest) (JobInfo, error) {
	var out JobInfo
	err := c.do(http.MethodPost, "/v1/jobs", http.Header{"Prefer": {"respond-async"}}, req, &out)
	return out, err
}

// Health fetches the service's liveness and draining state.
func (c *Client) Health() (HealthInfo, error) {
	var out HealthInfo
	err := c.do(http.MethodGet, "/v1/health", nil, nil, &out)
	return out, err
}

// Stats fetches the service's operational snapshot (pool, queue depth,
// journal totals, aggregated fault-tolerance counters).
func (c *Client) Stats() (StatsInfo, error) {
	var out StatsInfo
	err := c.do(http.MethodGet, "/v1/stats", nil, nil, &out)
	return out, err
}

// Jobs lists every job the service knows, oldest first.
func (c *Client) Jobs() ([]JobInfo, error) {
	var out []JobInfo
	err := c.do(http.MethodGet, "/v1/jobs", nil, nil, &out)
	return out, err
}

// Job fetches one job's live status.
func (c *Client) Job(id string) (JobInfo, error) {
	var out JobInfo
	err := c.do(http.MethodGet, "/v1/jobs/"+id, nil, nil, &out)
	return out, err
}

// Cancel asks the service to stop a job and returns its status.
func (c *Client) Cancel(id string) (JobInfo, error) {
	var out JobInfo
	err := c.do(http.MethodPost, "/v1/jobs/"+id+"/cancel", nil, nil, &out)
	return out, err
}

// Catalog fetches the service's index catalog.
func (c *Client) Catalog() ([]catalog.Entry, error) {
	var out []catalog.Entry
	err := c.do(http.MethodGet, "/v1/catalog", nil, nil, &out)
	return out, err
}

// Pool fetches the scheduler pool stats.
func (c *Client) Pool() (mapreduce.PoolStats, error) {
	var out mapreduce.PoolStats
	err := c.do(http.MethodGet, "/v1/pool", nil, nil, &out)
	return out, err
}

// WaitJob polls the job until it reaches a terminal phase (or the timeout
// elapses; timeout <= 0 waits forever), returning the final status.
func (c *Client) WaitJob(id string, timeout, poll time.Duration) (JobInfo, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	deadline := time.Time{}
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		info, err := c.Job(id)
		if err != nil {
			return info, err
		}
		if mapreduce.Phase(info.Phase).Terminal() {
			return info, nil
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return info, fmt.Errorf("service: job %s not terminal after %s (phase %s)", id, timeout, info.Phase)
		}
		time.Sleep(poll)
	}
}

// maxClientBackoff caps the exponential growth of client retry delays.
const maxClientBackoff = 5 * time.Second

// do runs one JSON round trip, decoding the service's error envelope on
// non-2xx responses. With SetRetry enabled, transiently failed attempts
// are retried within the configured budget: idempotent GETs on transport
// errors and 502/503/504, submits only on 429 backpressure (sleeping at
// least the server's Retry-After hint). Everything else fails fast — a
// cancel must never be replayed blindly, and a 4xx will not improve by
// repetition.
func (c *Client) do(method, path string, header http.Header, in, out any) error {
	submit := method == http.MethodPost && path == "/v1/jobs"
	idempotent := method == http.MethodGet
	for attempt := 0; ; attempt++ {
		status, retryAfter, err := c.doOnce(method, path, header, in, out)
		if err == nil {
			return nil
		}
		if attempt >= c.retries {
			return err
		}
		var floor time.Duration
		switch {
		case submit && status == http.StatusTooManyRequests:
			floor = retryAfter // honor the server's backpressure hint
		case idempotent && (status == 0 || status == http.StatusBadGateway ||
			status == http.StatusServiceUnavailable || status == http.StatusGatewayTimeout):
			// transport error or transient gateway answer
		default:
			return err
		}
		base := c.backoff << attempt
		if base > maxClientBackoff || base <= 0 {
			base = maxClientBackoff
		}
		wait := base/2 + time.Duration(rand.Int63n(int64(base))) // ±50% jitter
		if wait < floor {
			wait = floor
		}
		time.Sleep(wait)
	}
}

// doOnce is one attempt of do: status is the HTTP status (0 when the
// request never got an answer), retryAfter the parsed Retry-After hint.
func (c *Client) doOnce(method, path string, header http.Header, in, out any) (status int, retryAfter time.Duration, _ error) {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return 0, 0, fmt.Errorf("service: encode request: %w", err)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return 0, 0, fmt.Errorf("service: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range header {
		req.Header[k] = v
	}
	if c.tenant != "" && method == http.MethodPost {
		req.Header.Set(TenantHeader, c.tenant)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, fmt.Errorf("service: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return resp.StatusCode, 0, fmt.Errorf("service: read response: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			return resp.StatusCode, retryAfter, fmt.Errorf("service: %s %s: %s", method, path, e.Error)
		}
		return resp.StatusCode, retryAfter, fmt.Errorf("service: %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return resp.StatusCode, 0, nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return resp.StatusCode, 0, fmt.Errorf("service: decode response: %w", err)
	}
	return resp.StatusCode, 0, nil
}
