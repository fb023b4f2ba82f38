package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"manimal/internal/mapreduce"
)

// span is one timed call from the harness into a layer. Times are
// nanoseconds since the tracer started. Parent 0 marks a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Job     string `json:"job,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer
// records nothing, which is how the untraced measurement runs.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent int, job string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job, StartNs: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// attempts turns a job's task-attempt history into child spans of the
// job's span, named "task.<phase>".
func (t *tracer) attempts(parent int, job string, recs []mapreduce.AttemptRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, a := range recs {
		s := a.Start.Sub(t.t0).Nanoseconds()
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent,
			Name: "task." + string(a.Phase), Job: job, StartNs: s, EndNs: s + a.Duration.Nanoseconds()})
	}
}

// selfMillis sums, per span name, each span's duration minus the part of
// it that its children cover (overlapping children counted once).
func selfMillis(spans []span) map[string]float64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].StartNs < ch[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, c := range ch {
			lo, hi := c.StartNs, c.EndNs
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += float64(s.EndNs-s.StartNs-covered) / 1e6
	}
	return out
}

// traceFile is the layout of out/trace-<workload>.json.
type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Spans      []span             `json:"spans"`
	SelfMillis map[string]float64 `json:"self_ms_by_name"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	tf := traceFile{Workload: workload, Seed: seed, Spans: t.spans, SelfMillis: selfMillis(t.spans)}
	t.mu.Unlock()
	raw, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
