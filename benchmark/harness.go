package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// sizes fixes every data volume and request count of the benchmark. The
// full sizes are tuned so one run (set-up three times, warm-up, the
// measured window, verification) ends well inside the per-run time cap on
// the 2-core reference box; README.md records how they were chosen.
type sizes struct {
	ContentBytes int `json:"webpages.content_bytes"` // every workload's WebPages
	// select_scan
	SelWebPages       int `json:"select_scan.webpages"`
	SelRankingsOpaque int `json:"select_scan.rankings_opaque"`
	SelUserVisits     int `json:"select_scan.uservisits"`
	SelRankings       int `json:"select_scan.rankings"`
	// agg_shuffle
	AggUserVisits int `json:"agg_shuffle.uservisits"`
	AggDestURLs   int `json:"agg_shuffle.dest_urls"`
	AggDocs       int `json:"agg_shuffle.documents"`
	AggDocBytes   int `json:"agg_shuffle.document_bytes"`
	// index_build
	IdxWebPages       int `json:"index_build.webpages"`
	IdxRankingsOpaque int `json:"index_build.rankings_opaque"`
	IdxUserVisits     int `json:"index_build.uservisits"`
	// service_mix
	SvcWebPages   int     `json:"service_mix.webpages"`
	SvcUserVisits int     `json:"service_mix.uservisits"`
	SvcTemplates  int     `json:"service_mix.templates"`
	SvcPrefix     int     `json:"service_mix.closed_loop_requests"`
	SvcRate       float64 `json:"service_mix.rate_jobs_per_s"`
	// layer probes (traced runs only)
	ProbeWebPages   int `json:"probe.webpages"`
	ProbeUserVisits int `json:"probe.uservisits"`
	ProbeRows       int `json:"probe.filter_rows"`
	ProbeKeys       int `json:"probe.shuffle_keys"`
	ProbeReps       int `json:"probe.repeats"`
}

var fullSizes = sizes{
	SelWebPages: 100_000, ContentBytes: 512, SelRankingsOpaque: 250_000, SelUserVisits: 100_000, SelRankings: 10_000,
	AggUserVisits: 300_000, AggDestURLs: 75_000, AggDocs: 8_000, AggDocBytes: 1024,
	IdxWebPages: 50_000, IdxRankingsOpaque: 100_000, IdxUserVisits: 100_000,
	SvcWebPages: 8_000, SvcUserVisits: 30_000, SvcTemplates: 6000, SvcPrefix: 400, SvcRate: 80,
	ProbeWebPages: 40_000, ProbeUserVisits: 100_000, ProbeRows: 1_000_000, ProbeKeys: 300_000, ProbeReps: 200,
}

// quickSizes keep every code path of the full benchmark at a volume the
// tier-1 smoke test can afford.
var quickSizes = sizes{
	SelWebPages: 2_000, ContentBytes: 512, SelRankingsOpaque: 5_000, SelUserVisits: 4_000, SelRankings: 500,
	AggUserVisits: 5_000, AggDestURLs: 1_200, AggDocs: 150, AggDocBytes: 1024,
	IdxWebPages: 1_000, IdxRankingsOpaque: 2_000, IdxUserVisits: 2_000,
	SvcWebPages: 1_000, SvcUserVisits: 2_000, SvcTemplates: 200, SvcPrefix: 30, SvcRate: 40,
	ProbeWebPages: 1_000, ProbeUserVisits: 2_000, ProbeRows: 20_000, ProbeKeys: 4_000, ProbeReps: 6,
}

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median, so one slow fsync does not decide it.
const setupRepeats = 3

// runConfig is one workload run as the driver asks for it.
type runConfig struct {
	workload     string
	seed         int64
	seconds      float64
	trace        bool
	quick        bool
	root         string // repo root (holds BENCHMARK.json and go.mod)
	outDir       string // benchmark/out: traces, results, scratch data
	slots        int
	sz           sizes
	expected     map[string]string // job name -> digest; nil when the seed has none
	spec         *benchSpec
	expectedPath string
}

// runOutput is what one workload run hands back to main.
type runOutput struct {
	attempted int
	failed    int
	failures  []string
	values    map[string]float64
	info      map[string]any // sizes, rounds, plans: context for results.json
}

func newOutput() *runOutput {
	return &runOutput{values: make(map[string]float64), info: make(map[string]any)}
}

// fail counts one failed operation: a job error, a refused or timed-out
// request, or an output that differs from its reference.
func (o *runOutput) fail(format string, args ...any) {
	o.failed++
	msg := fmt.Sprintf(format, args...)
	if len(o.failures) < 20 {
		o.failures = append(o.failures, msg)
	}
	fmt.Fprintln(os.Stderr, "FAIL:", msg)
}

// slotCount is min(nproc, 4): GOMAXPROCS and the scheduler's task slots.
func slotCount() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// refuseSwitches stops the benchmark when a MANIMAL_* debug switch is set:
// each silently selects another code path, and the numbers would describe
// a system nobody ships.
func refuseSwitches() error {
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "MANIMAL_") {
			return fmt.Errorf("refusing to run with %s set: unset every MANIMAL_* switch", strings.SplitN(kv, "=", 2)[0])
		}
	}
	return nil
}

// environment describes where and how a result was measured.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Slots      int     `json:"slots"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	Sizes      sizes   `json:"sizes"`
	When       string  `json:"when"`
}

func describeEnv(cfg *runConfig) environment {
	return environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Slots: cfg.slots,
		GoVersion: runtime.Version(), CPUModel: cpuModel(), Commit: commitOf(cfg.root),
		Seed: cfg.seed, Seconds: cfg.seconds, Quick: cfg.quick, Sizes: cfg.sz,
		When: time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitOf reads the checked-out commit without running git (the driver's
// checkout is not a repository): HEAD, then the ref it points at.
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if raw, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(raw))
	}
	return "unknown"
}

// peakRSSMB reads VmHWM (peak resident set) of a process from /proc.
func peakRSSMB(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
