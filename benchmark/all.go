package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// runRecord is one untraced run of one workload.
type runRecord struct {
	Seed      int64             `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	Info      map[string]any    `json:"info"`
}

// workloadResults is everything measured for one workload.
type workloadResults struct {
	Why       string            `json:"why"`
	Runs      []runRecord       `json:"runs"`
	PerLayer  map[string]metric `json:"per_layer"`
	TraceInfo map[string]any    `json:"trace_info"`
	TraceFile string            `json:"trace_file"`
}

// results is out/results.json. Claim is last and always null: this
// benchmark defines names and baselines, it claims no gain.
type results struct {
	Env       environment                 `json:"env"`
	Workloads map[string]*workloadResults `json:"workloads"`
	Failed    int                         `json:"failed"`
	Claim     *string                     `json:"claim"`
}

// child runs one workload in a fresh process of this binary, so a
// workload's heap, page cache use and goroutines never leak into the
// next, and returns the detail file it left.
func child(cfg *runConfig, workload string, seed int64, trace bool) (*detail, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-expected", cfg.expectedPath, "-out", cfg.outDir}
	if trace {
		args = append(args, "-trace", "1")
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = cfg.root
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	raw, err := os.ReadFile(detailPath(cfg.outDir, workload, trace))
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, err
	}
	var d detail
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, err
	}
	os.Remove(detailPath(cfg.outDir, workload, trace))
	// A run that counted failures still left its numbers; the failure is
	// carried in the record and fails the whole benchmark at the end.
	return &d, nil
}

// runAll measures every workload — `runs` untraced runs each (seeds seed,
// seed+1, ...) and one traced run on the first seed — and writes the
// results file.
func runAll(cfg *runConfig, runs int, path string) (*results, error) {
	res := &results{Env: describeEnv(cfg), Workloads: make(map[string]*workloadResults)}
	for _, w := range cfg.spec.Workloads {
		wr := &workloadResults{Why: w.Why, TraceFile: filepath.Join(cfg.outDir, "trace-"+w.Name+".json")}
		res.Workloads[w.Name] = wr
		for r := 0; r < runs; r++ {
			d, err := child(cfg, w.Name, cfg.seed+int64(r), false)
			if err != nil {
				return nil, err
			}
			wr.Runs = append(wr.Runs, runRecord{Seed: d.Env.Seed, Correct: d.Verdict.Correct, Attempted: d.Verdict.Attempted,
				Failed: d.Verdict.Failed, EndToEnd: d.Verdict.Metrics, Info: d.Info})
			res.Failed += d.Verdict.Failed
		}
		d, err := child(cfg, w.Name, cfg.seed, true)
		if err != nil {
			return nil, err
		}
		wr.PerLayer, wr.TraceInfo = d.Verdict.Metrics, d.Info
		res.Failed += d.Verdict.Failed
	}
	raw, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("\nresults: %s\n", path)
	printSummary(cfg.spec, res, os.Stdout)
	if res.Failed > 0 {
		return res, fmt.Errorf("%d operations failed", res.Failed)
	}
	return res, nil
}

// values collects one end-to-end metric over a workload's runs.
func (wr *workloadResults) values(name string) []float64 {
	var xs []float64
	for _, r := range wr.Runs {
		if m, ok := r.EndToEnd[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// printSummary prints the end-to-end medians per workload and the JSON
// summary line, which ends with "claim": null.
func printSummary(spec *benchSpec, res *results, w io.Writer) {
	fmt.Fprintf(w, "%-14s %-30s %14s %-6s %s\n", "workload", "metric", "median", "unit", "runs")
	e2e := make(map[string]map[string]float64)
	for _, wl := range spec.Workloads {
		wr := res.Workloads[wl.Name]
		if wr == nil {
			continue
		}
		e2e[wl.Name] = make(map[string]float64)
		for _, m := range spec.EndToEnd {
			xs := wr.values(m.Name)
			e2e[wl.Name][m.Name] = median(xs)
			fmt.Fprintf(w, "%-14s %-30s %14.6g %-6s %d\n", wl.Name, m.Name, median(xs), m.Unit, len(xs))
		}
	}
	line, _ := json.Marshal(struct {
		Env      environment                   `json:"env"`
		EndToEnd map[string]map[string]float64 `json:"end_to_end_medians"`
		Failed   int                           `json:"failed"`
		Claim    *string                       `json:"claim"`
	}{res.Env, e2e, res.Failed, nil})
	fmt.Fprintln(w, string(line))
}

func loadResults(path string) (*results, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// row is one end-to-end metric on one workload, compared across two
// results files. Base is the first file.
type row struct {
	workload, metric string
	a, b             float64 // medians
	ratio            float64 // b / a
	spread           float64 // widest quartile distance of either side, as a share of its median
	bound            float64
	verdict          string
}

// compareResults judges every end-to-end metric x workload pair: worse or
// better when the medians differ by more than the metric's bound,
// unresolved when the run-to-run spread is itself wider than the bound.
func compareResults(spec *benchSpec, a, b *results) []row {
	var rows []row
	for _, wl := range spec.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			xa, xb := wa.values(m.Name), wb.values(m.Name)
			r := row{workload: wl.Name, metric: m.Name, a: median(xa), b: median(xb), bound: m.Bound}
			r.ratio = ratio(r.b, r.a)
			r.spread = iqrShare(xa)
			if s := iqrShare(xb); s > r.spread {
				r.spread = s
			}
			change := r.ratio - 1 // >0: b is larger
			if m.Better == "higher" {
				change = -change
			}
			switch {
			case r.spread > m.Bound:
				r.verdict = "unresolved"
			case change > m.Bound:
				r.verdict = "worse"
			case change < -m.Bound:
				r.verdict = "better"
			default:
				r.verdict = "same"
			}
			rows = append(rows, r)
		}
	}
	return rows
}

func printRows(rows []row, w io.Writer) {
	fmt.Fprintf(w, "%-14s %-30s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "a (base)", "b", "b/a", "spread", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-30s %14.6g %14.6g %9.4f %7.2f%% %6.1f%%  %s\n",
			r.workload, r.metric, r.a, r.b, r.ratio, 100*r.spread, 100*r.bound, r.verdict)
	}
}

func compareFiles(spec *benchSpec, pathA, pathB string, w io.Writer) error {
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a = %s (commit %.12s)\nb = %s (commit %.12s)\n", pathA, a.Env.Commit, pathB, b.Env.Commit)
	printRows(compareResults(spec, a, b), w)
	return nil
}

// exactMetric names the counts, not times: two runs of one commit on one seed
// must report them identically.
func exactMetric(name string) bool {
	return name == "btree.seek_bytes_read" || name == "analyzer.detected_share" || name == "interp.compiled_share" ||
		strings.HasPrefix(name, "indexgen.bytes_per_input_byte.") ||
		(strings.HasPrefix(name, "optimizer.") && strings.HasSuffix(name, "_share"))
}

// runAA is the A/A check: two full sets of the same code, back to back,
// must agree within the benchmark's own bounds, fail nothing, and repeat
// every exact count.
func runAA(cfg *runConfig, runs int) error {
	if runs < 4 {
		runs = 4 // quartiles need four runs a side
	}
	a, err := runAll(cfg, runs, filepath.Join(cfg.outDir, "aa-a.json"))
	if err != nil {
		return err
	}
	b, err := runAll(cfg, runs, filepath.Join(cfg.outDir, "aa-b.json"))
	if err != nil {
		return err
	}
	rows := compareResults(cfg.spec, a, b)
	printRows(rows, os.Stdout)
	var bad []string
	for _, r := range rows {
		if r.verdict == "worse" || r.verdict == "unresolved" {
			bad = append(bad, fmt.Sprintf("%s@%s %s", r.metric, r.workload, r.verdict))
		}
	}
	for name, wa := range a.Workloads {
		wb := b.Workloads[name]
		for metric, va := range wa.PerLayer {
			// On service_mix the counters depend on which of two
			// concurrent duplicates reached the cache first.
			if name == "service_mix" && strings.HasPrefix(metric, "optimizer.") {
				continue
			}
			if exactMetric(metric) && va.Value != wb.PerLayer[metric].Value {
				bad = append(bad, fmt.Sprintf("%s@%s differs: %v vs %v", metric, name, va.Value, wb.PerLayer[metric].Value))
			}
		}
		for i := range wa.Runs {
			const m = "stored_bytes_per_input_byte"
			if wa.Runs[i].EndToEnd[m].Value != wb.Runs[i].EndToEnd[m].Value {
				bad = append(bad, fmt.Sprintf("%s@%s seed %d differs", m, name, wa.Runs[i].Seed))
			}
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("A/A check failed:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Println("A/A check passed: every end-to-end metric agrees within its bound and every exact count repeats")
	return nil
}
