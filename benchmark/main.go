// Command benchmark is the repository's one benchmark: the paper's job
// suites (select_scan, agg_shuffle), the index builds behind them
// (index_build), and a mixed load on a real `manimal serve` process
// (service_mix), each with end-to-end numbers measured with tracing off
// and one traced pass that attributes time to layers. BENCHMARK.json at
// the repository root declares every workload and metric; README.md in
// this directory is the glossary.
//
// The committed command runs one workload:
//
//	bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// and prints, as its last line, one JSON object with the run's verdict
// and metrics. Without --workload every workload runs (each in a child
// process, untraced then traced) and out/results.json is written.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload in this process (default: run all, each in a child)")
	seed := fs.Int64("seed", defaultSeed, "data and arrival seed")
	seconds := fs.Float64("seconds", 0, "measured window per run (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, probes and a span file")
	quick := fs.Bool("quick", false, "shrink sizes for the smoke test")
	runs := fs.Int("runs", 1, "runs per workload when running all (seeds seed, seed+1, ...)")
	compare := fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
	aa := fs.Bool("aa", false, "run two full sets back to back and compare them")
	expectedPath := fs.String("expected", "", "expectation file (default: expected.json beside the harness)")
	writeExpected := fs.Bool("write-expected", false, "record this run's output digests as the expectation for its seed")
	outDir := fs.String("out", "", "directory for results, traces and scratch data (default: out/ beside the harness)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two results files")
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if err := refuseSwitches(); err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
		if *quick {
			*seconds = 0.2
		}
	}
	benchDir := filepath.Join(root, spec.Paths[0])
	if *expectedPath == "" {
		*expectedPath = filepath.Join(benchDir, "expected.json")
	}
	if *outDir == "" {
		*outDir = filepath.Join(benchDir, "out")
	}
	cfg := &runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick,
		root: root, outDir: *outDir, slots: slotCount(), sz: fullSizes, spec: spec,
		expectedPath: *expectedPath,
	}
	if *quick {
		cfg.sz = quickSizes
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	runtime.GOMAXPROCS(cfg.slots)

	if *workload == "" {
		if *aa {
			return runAA(cfg, *runs)
		}
		_, err := runAll(cfg, *runs, filepath.Join(cfg.outDir, "results.json"))
		return err
	}
	if !spec.hasWorkload(*workload) {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	exp, err := loadExpected(*expectedPath)
	if err != nil {
		return err
	}
	if !*writeExpected { // re-recording checks only that the two legs agree
		cfg.expected = exp.lookup(cfg)
	}
	out, digests, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	if *writeExpected {
		if err := exp.record(cfg, digests, *expectedPath); err != nil {
			return err
		}
	}
	return report(cfg, out)
}

// runWorkload dispatches one workload run.
func runWorkload(cfg *runConfig) (*runOutput, map[string]string, error) {
	if cfg.workload == "service_mix" {
		return runServiceMix(cfg)
	}
	for _, wl := range batchWorkloads {
		if wl.name == cfg.workload {
			return runBatch(cfg, wl)
		}
	}
	return nil, nil, fmt.Errorf("workload %q is declared in BENCHMARK.json but not implemented", cfg.workload)
}

// verdict is the last line of a run's standard output: exactly the keys
// the driver reads.
type verdict struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is the side file a run leaves for the run-all mode: the verdict
// plus the context (sizes, rounds, plans) results.json records.
type detail struct {
	Env      environment    `json:"env"`
	Verdict  verdict        `json:"verdict"`
	Info     map[string]any `json:"info"`
	Failures []string       `json:"failures,omitempty"`
}

// report prints every metric by name and unit, writes the detail file,
// prints the verdict line, and fails the process when the run did.
func report(cfg *runConfig, out *runOutput) error {
	declared, requireAll := cfg.spec.EndToEnd, true
	if cfg.trace {
		declared, requireAll = cfg.spec.PerLayer, false
	}
	metrics, err := emit(declared, out.values, cfg.spec, requireAll)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, n := range names {
		fmt.Printf("%-44s %16.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	v := verdict{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}
	d := detail{Env: describeEnv(cfg), Verdict: v, Info: out.info, Failures: out.failures}
	raw, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(detailPath(cfg.outDir, cfg.workload, cfg.trace), raw, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if out.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", out.failed, out.attempted)
	}
	return nil
}

func detailPath(outDir, workload string, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("detail-%s-trace%d.json", workload, t))
}
