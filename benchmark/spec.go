package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
)

// benchSpec mirrors BENCHMARK.json at the repo root: the one place that
// declares workloads, metric names, units, directions and bounds. The
// harness reads it so that what a run emits and what the file declares
// cannot drift apart.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// findRoot walks up from the working directory to the directory holding
// BENCHMARK.json: `go run -C benchmark .` and `go test` start inside
// benchmark/, the committed command starts at the repo root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		dir = filepath.Dir(dir)
	}
	return "", fmt.Errorf("BENCHMARK.json not found in the working directory or its parents")
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	seen := make(map[string]bool)
	check := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("BENCHMARK.json: bad name %q", n)
		}
		if seen[n] {
			return fmt.Errorf("BENCHMARK.json: name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := check(w.Name); err != nil {
			return nil, err
		}
	}
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if err := check(m.Name); err != nil {
			return nil, err
		}
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("BENCHMARK.json: metric %s: better must be lower or higher", m.Name)
		}
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metric is one emitted value with its declared unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit maps the values a run computed onto the declared metric list. Every
// value must be declared; a declared end-to-end metric must be present; a
// declared per-layer metric the workload never touches reads 0.
func emit(declared []metricSpec, values map[string]float64, all *benchSpec, requireAll bool) (map[string]metric, error) {
	known := make(map[string]bool)
	for _, m := range append(append([]metricSpec(nil), all.EndToEnd...), all.PerLayer...) {
		known[m.Name] = true
	}
	var undeclared []string
	for name := range values {
		if !known[name] {
			undeclared = append(undeclared, name)
		}
	}
	if len(undeclared) > 0 {
		sort.Strings(undeclared)
		return nil, fmt.Errorf("metrics computed but not declared in BENCHMARK.json: %v", undeclared)
	}
	out := make(map[string]metric, len(declared))
	for _, m := range declared {
		v, ok := values[m.Name]
		if !ok && requireAll {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		out[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	return out, nil
}
