package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The smoke test runs every workload at -quick sizes, untraced and traced,
// and checks structure only: declared names are emitted, outputs verify,
// trace files parse. It asserts nothing about wall-clock values.

func quickRun(t *testing.T, out string, args ...string) (*detail, error) {
	t.Helper()
	base := []string{"-quick", "-out", out}
	err := run(append(base, args...))
	workload, trace := "", false
	for i, a := range args {
		if a == "-workload" {
			workload = args[i+1]
		}
		if a == "-trace" {
			trace = args[i+1] == "1"
		}
	}
	raw, rerr := os.ReadFile(detailPath(out, workload, trace))
	if rerr != nil {
		return nil, err
	}
	var d detail
	if jerr := json.Unmarshal(raw, &d); jerr != nil {
		t.Fatalf("detail file: %v", jerr)
	}
	return &d, err
}

func TestQuickBenchmarkStructure(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) < 2 || len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		t.Fatalf("BENCHMARK.json declares %d workloads, %d end-to-end and %d per-layer metrics",
			len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer))
	}
	out := t.TempDir()
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			d, err := quickRun(t, out, "-workload", w.Name, "-trace", trace)
			if err != nil {
				t.Fatalf("%s trace %s: %v", w.Name, trace, err)
			}
			v := d.Verdict
			if !v.Correct || v.Failed != 0 || v.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d (%v)", w.Name, trace, v.Correct, v.Attempted, v.Failed, d.Failures)
			}
			declared := spec.EndToEnd
			if trace == "1" {
				declared = spec.PerLayer
			}
			if len(v.Metrics) != len(declared) {
				t.Errorf("%s trace %s: %d metrics emitted, %d declared", w.Name, trace, len(v.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := v.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %s: declared metric %s not emitted", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, declared %q", w.Name, m.Name, got.Unit, m.Unit)
				case trace == "0" && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
			}
		}
		checkTrace(t, filepath.Join(out, "trace-"+w.Name+".json"), w.Name)
	}
}

// checkTrace parses a span file: ids are unique, every span is a root or
// names an existing parent, and no span ends before it starts.
func checkTrace(t *testing.T, path, workload string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if tf.Workload != workload || len(tf.Spans) == 0 {
		t.Fatalf("%s: workload %q with %d spans", path, tf.Workload, len(tf.Spans))
	}
	ids := make(map[int]bool)
	for _, s := range tf.Spans {
		if ids[s.ID] {
			t.Errorf("%s: span id %d used twice", path, s.ID)
		}
		ids[s.ID] = true
	}
	for _, s := range tf.Spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("%s: span %d (%s) names missing parent %d", path, s.ID, s.Name, s.Parent)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("%s: span %d (%s) ends before it starts", path, s.ID, s.Name)
		}
		if !nameRE.MatchString(s.Name) {
			t.Errorf("%s: span name %q", path, s.Name)
		}
	}
	for name, ms := range tf.SelfMillis {
		if ms < 0 {
			t.Errorf("%s: negative self time %g ms for %s", path, ms, name)
		}
	}
}

// A committed expectation that no longer matches the program's output
// must fail the run, not pass silently.
func TestTamperedExpectationIsCaught(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := loadExpected(filepath.Join(root, spec.Paths[0], "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	good := exp.Quick["select_scan"]["sel30"]
	if len(good) != 64 {
		t.Fatalf("expected.json has no quick select_scan/sel30 digest (got %q)", good)
	}
	exp.Quick["select_scan"]["sel30"] = strings.Repeat("0", 64)
	raw, err := json.Marshal(exp)
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	tampered := filepath.Join(out, "expected.json")
	if err := os.WriteFile(tampered, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := quickRun(t, out, "-workload", "select_scan", "-expected", tampered)
	if err == nil {
		t.Fatal("run with a tampered expectation exited clean")
	}
	if d == nil || d.Verdict.Correct || d.Verdict.Failed == 0 {
		t.Fatalf("tampered expectation not counted as failures: %+v", d)
	}
}

func TestSelfTimeSubtractsOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", StartNs: 0, EndNs: 100e6},
		{ID: 2, Parent: 1, Name: "task", StartNs: 10e6, EndNs: 60e6},
		{ID: 3, Parent: 1, Name: "task", StartNs: 40e6, EndNs: 90e6}, // overlaps span 2
	}
	self := selfMillis(spans)
	if self["job"] != 20 || self["task"] != 100 {
		t.Fatalf("self times %v, want job 20 ms and task 100 ms", self)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{
		Workloads: []workloadSpec{{Name: "w"}},
		EndToEnd:  []metricSpec{{Name: "t", Unit: "s", Better: "lower", Bound: 0.1}},
	}
	mk := func(vals ...float64) *results {
		wr := &workloadResults{}
		for _, v := range vals {
			wr.Runs = append(wr.Runs, runRecord{EndToEnd: map[string]metric{"t": {Value: v, Unit: "s"}}})
		}
		return &results{Workloads: map[string]*workloadResults{"w": wr}}
	}
	base := mk(1.00, 1.01, 0.99, 1.00, 1.02)
	for _, c := range []struct {
		b    *results
		want string
	}{
		{mk(1.01, 1.00, 1.02, 0.99, 1.00), "same"},
		{mk(1.20, 1.21, 1.19, 1.20, 1.22), "worse"},
		{mk(0.80, 0.81, 0.79, 0.80, 0.82), "better"},
		{mk(0.70, 1.40, 0.90, 1.30, 1.00), "unresolved"},
	} {
		rows := compareResults(spec, base, c.b)
		if len(rows) != 1 || rows[0].verdict != c.want {
			t.Errorf("verdict %+v, want %s", rows, c.want)
		}
	}
}
