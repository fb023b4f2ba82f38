// Command manimal is the CLI front end of the Manimal system: analyze a
// mapper-language program, explain its CFG and use-def chains, build the
// synthesized indexes, inspect the catalog, and run jobs with or without
// optimization — either in-process (`run`) or against a long-lived job
// service (`serve` plus the submit/jobs/status/cancel client commands).
//
// Usage:
//
//	manimal analyze -prog prog.go -schema "url:string,rank:int64" [-json] \
//	                [-prog2 other.go -schema2 "..."]
//	manimal explain -prog prog.go [-cfg] [-usedef]
//	manimal index   -sys DIR -prog prog.go -input data.rec
//	manimal run     -sys DIR -prog prog.go -input data.rec -out out.kv \
//	                [-prog2 other.go -input2 other.rec] \
//	                [-conf threshold=10] [-noopt] [-maponly] [-explain] \
//	                [-progress] [-cpuprofile FILE]
//	manimal catalog -sys DIR
//	manimal cache   -sys DIR [-evict] [-stale]
//	manimal inspect -file data.rec [-blocks]
//	manimal serve   -sys DIR -addr 127.0.0.1:7070 [-slots N] [-recover] \
//	                [-drain 30s] [-max-jobs N] [-tenant-slots N] [-pprof]
//	manimal submit  -addr URL -prog prog.go -input data.rec -out out.kv \
//	                [-conf k=v] [-noopt] [-maponly] [-wait] [-retries N] \
//	                [-tenant NAME]
//	manimal jobs    -addr URL | -sys DIR
//	manimal status  -addr URL -id j00000001
//	manimal cancel  -addr URL -id j00000001
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"manimal"
	"manimal/internal/catalog"
	"manimal/internal/cfg"
	"manimal/internal/dataflow"
	"manimal/internal/journal"
	"manimal/internal/mapreduce"
	"manimal/internal/service"
	"manimal/internal/storage"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "index":
		err = cmdIndex(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "catalog":
		err = cmdCatalog(os.Args[2:])
	case "cache":
		err = cmdCache(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "submit":
		err = cmdSubmit(os.Args[2:])
	case "jobs":
		err = cmdJobs(os.Args[2:])
	case "status":
		err = cmdStatus(os.Args[2:])
	case "cancel":
		err = cmdCancel(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "manimal:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: manimal {analyze|explain|index|run|catalog|cache|inspect|serve|submit|jobs|status|cancel} [flags]")
	os.Exit(2)
}

func loadProgram(path string) (*manimal.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return manimal.ParseProgram(path, string(src))
}

// parseConf parses repeated k=v flags; values parse as int, then float,
// then string.
type confFlag struct{ conf manimal.Conf }

func (c *confFlag) String() string { return fmt.Sprint(c.conf) }
func (c *confFlag) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("conf must be key=value, got %q", s)
	}
	if c.conf == nil {
		c.conf = manimal.Conf{}
	}
	if i, err := strconv.ParseInt(v, 10, 64); err == nil {
		c.conf[k] = manimal.Int(i)
	} else if f, err := strconv.ParseFloat(v, 64); err == nil {
		c.conf[k] = manimal.Float(f)
	} else {
		c.conf[k] = manimal.String(v)
	}
	return nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	progPath := fs.String("prog", "", "mapper-language program file")
	schemaText := fs.String("schema", "", "input schema, e.g. \"url:string,rank:int64\"")
	inputPath := fs.String("input", "", "record file to take the schema from (alternative to -schema)")
	prog2Path := fs.String("prog2", "", "second program: analyze a two-input job and report its join shape")
	schema2Text := fs.String("schema2", "", "second input's schema")
	input2Path := fs.String("input2", "", "second input's record file (alternative to -schema2)")
	jsonOut := fs.Bool("json", false, "emit the analysis as JSON")
	fs.Parse(args)

	resolveSchema := func(text, input string) (*manimal.Schema, error) {
		switch {
		case text != "":
			return manimal.ParseSchema(text)
		case input != "":
			return schemaFromFile(input)
		default:
			return nil, fmt.Errorf("need -schema or -input")
		}
	}

	prog, err := loadProgram(*progPath)
	if err != nil {
		return err
	}
	schema, err := resolveSchema(*schemaText, *inputPath)
	if err != nil {
		return err
	}
	desc, err := manimal.AnalyzeSchema(prog, schema)
	if err != nil {
		return err
	}

	var (
		desc2 *manimal.Descriptor
		join  *manimal.JoinDescriptor
	)
	if *prog2Path != "" {
		prog2, err := loadProgram(*prog2Path)
		if err != nil {
			return err
		}
		schema2, err := resolveSchema(*schema2Text, *input2Path)
		if err != nil {
			return fmt.Errorf("second input: %w", err)
		}
		desc2, err = manimal.AnalyzeSchema(prog2, schema2)
		if err != nil {
			return err
		}
		join = manimal.DetectJoin(prog, schema, prog2, schema2)
	}

	if *jsonOut {
		out := analysisJSON{Program: *progPath, Descriptor: descriptorJSON(desc)}
		if desc2 != nil {
			out.Program2 = *prog2Path
			out.Descriptor2 = descriptorJSON(desc2)
		}
		out.Join = join
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}

	printDescriptor(desc)
	if desc2 != nil {
		fmt.Printf("--- %s ---\n", *prog2Path)
		printDescriptor(desc2)
	}
	if *prog2Path != "" {
		if join != nil {
			fmt.Printf("JOIN: %s\n", join)
			printSemiJoin(join)
		} else {
			fmt.Println("no join shape detected")
		}
	}
	return nil
}

// printSemiJoin prints the analyzer's semi-join verdict on a detected
// join: the proof, or the check that refused it. Whether a job takes it
// also depends on its plans, which `run -explain` shows.
func printSemiJoin(j *manimal.JoinDescriptor) {
	if p := j.SemiJoin; p != nil {
		fmt.Printf("SEMI-JOIN: Reduce is inner on input %d (%s counts its values; HasField(%q) tells the sides apart)\n",
			p.Build, p.Counter, p.Tag)
		fmt.Printf("  input %d drops rows whose %s is not among input %d's emitted keys, when input %d's plan pushes a selection down\n",
			1-p.Build, j.Side(1-p.Build).Canon, p.Build, p.Build)
		return
	}
	fmt.Printf("no semi-join: %s\n", j.SemiJoinRefused)
}

// analysisJSON is the machine-readable shape of `manimal analyze -json`.
type analysisJSON struct {
	Program     string                  `json:"program"`
	Descriptor  *jsonDescriptor         `json:"descriptor"`
	Program2    string                  `json:"program2,omitempty"`
	Descriptor2 *jsonDescriptor         `json:"descriptor2,omitempty"`
	Join        *manimal.JoinDescriptor `json:"join,omitempty"`
}

type jsonDescriptor struct {
	Select      *jsonSelect  `json:"select,omitempty"`
	Project     *jsonProject `json:"project,omitempty"`
	Delta       []string     `json:"delta,omitempty"`
	DirectOp    []string     `json:"directOp,omitempty"`
	Combine     string       `json:"combine,omitempty"`
	Aggregate   string       `json:"aggregate,omitempty"`
	SideEffects []string     `json:"sideEffects,omitempty"`
	Notes       []string     `json:"notes,omitempty"`
}

type jsonSelect struct {
	Formula     string   `json:"formula"`
	IndexKeys   []string `json:"indexKeys,omitempty"`
	Approximate bool     `json:"approximate,omitempty"`
}

type jsonProject struct {
	Used    []string `json:"used"`
	Dropped []string `json:"dropped"`
}

// descriptorJSON flattens a Descriptor for JSON output: the DNF formula is
// rendered canonically rather than as its internal expression tree.
func descriptorJSON(d *manimal.Descriptor) *jsonDescriptor {
	out := &jsonDescriptor{SideEffects: d.SideEffects, Notes: d.Notes}
	if d.Select != nil {
		out.Select = &jsonSelect{
			Formula:     d.Select.Formula.Canon(),
			IndexKeys:   d.Select.IndexKeys,
			Approximate: d.Select.Approximate,
		}
	}
	if d.Project != nil {
		out.Project = &jsonProject{Used: d.Project.UsedFields, Dropped: d.Project.DroppedFields}
	}
	if d.Delta != nil {
		out.Delta = d.Delta.Fields
	}
	if d.DirectOp != nil {
		out.DirectOp = d.DirectOp.Fields
	}
	if d.Combine != nil {
		out.Combine = d.Combine.Op
	}
	if d.Aggregate != nil {
		out.Aggregate = d.Aggregate.String()
	}
	return out
}

// schemaFromFile reads just the schema of a record file.
func schemaFromFile(path string) (*manimal.Schema, error) {
	r, err := storage.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.Schema(), nil
}

func printDescriptor(desc *manimal.Descriptor) {
	if desc.Select != nil {
		fmt.Println("SELECT:")
		fmt.Printf("  formula:    %s\n", desc.Select.Formula.Canon())
		fmt.Printf("  index keys: %v\n", desc.Select.IndexKeys)
	}
	if desc.Project != nil {
		fmt.Println("PROJECT:")
		fmt.Printf("  used:    %v\n", desc.Project.UsedFields)
		fmt.Printf("  dropped: %v\n", desc.Project.DroppedFields)
	}
	if desc.Delta != nil {
		fmt.Printf("DELTA-COMPRESSION: %v\n", desc.Delta.Fields)
	}
	if desc.DirectOp != nil {
		fmt.Printf("DIRECT-OPERATION: %v\n", desc.DirectOp.Fields)
	}
	if desc.Combine != nil {
		fmt.Printf("COMBINE: int64 %s, folded at emit\n", desc.Combine.Op)
	}
	if desc.Aggregate != nil {
		fmt.Printf("AGGREGATE: %s, column kernel\n", desc.Aggregate)
	}
	if len(desc.SideEffects) > 0 {
		fmt.Printf("SIDE EFFECTS (detected, not optimized): %v\n", desc.SideEffects)
	}
	if desc.Select == nil && desc.Project == nil && desc.Delta == nil && desc.DirectOp == nil && desc.Combine == nil {
		fmt.Println("no optimizations detected")
	}
	for _, n := range desc.Notes {
		fmt.Printf("  note: %s\n", n)
	}
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	progPath := fs.String("prog", "", "mapper-language program file")
	showCFG := fs.Bool("cfg", true, "print the control flow graph (paper Figure 4)")
	showUseDef := fs.Bool("usedef", true, "print use-def chains (paper Figure 5)")
	fs.Parse(args)

	prog, err := loadProgram(*progPath)
	if err != nil {
		return err
	}
	p := prog.Parsed()
	g, err := cfg.Build(p, p.Map())
	if err != nil {
		return err
	}
	if *showCFG {
		fmt.Println("=== control flow graph (Map) ===")
		fmt.Print(g.Dump())
	}
	if *showUseDef {
		fl, err := dataflow.Analyze(p, g)
		if err != nil {
			return err
		}
		fmt.Println("=== use-def chains (Map) ===")
		fmt.Print(fl.Dump())
	}
	return nil
}

func cmdIndex(args []string) error {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	sysDir := fs.String("sys", "manimal-sys", "system/catalog directory")
	progPath := fs.String("prog", "", "mapper-language program file")
	inputPath := fs.String("input", "", "input record file")
	shards := fs.Int("shards", 0, "B+Tree shard count (0 = auto, 1 = single file)")
	sample := fs.Int("sample", 0, "records sampled for shard boundaries (0 = default)")
	fs.Parse(args)

	sys, err := manimal.NewSystem(*sysDir)
	if err != nil {
		return err
	}
	defer sys.Close()
	prog, err := loadProgram(*progPath)
	if err != nil {
		return err
	}
	entries, err := sys.BuildBestIndexesWith(prog, *inputPath,
		manimal.BuildConfig{NumShards: *shards, SampleSize: *sample})
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Println("no index programs synthesized (no optimizations detected)")
		return nil
	}
	for _, e := range entries {
		fmt.Printf("built %-12s %s", e.Kind, e.IndexPath)
		if e.Shards > 0 {
			fmt.Printf(" (%d shards)", e.Shards)
		}
		fmt.Printf(" (%d bytes, %.2fs)\n", e.SizeBytes, e.BuildDuration.Seconds())
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	sysDir := fs.String("sys", "manimal-sys", "system/catalog directory")
	progPath := fs.String("prog", "", "mapper-language program file")
	inputPath := fs.String("input", "", "input record file")
	prog2Path := fs.String("prog2", "", "second program: run a two-input job (e.g. a join); -prog's Reduce is the job's")
	input2Path := fs.String("input2", "", "the second program's input record file")
	outPath := fs.String("out", "out.kv", "output KV file")
	noopt := fs.Bool("noopt", false, "disable optimization (conventional MapReduce)")
	mapOnly := fs.Bool("maponly", false, "skip the reduce phase")
	explain := fs.Bool("explain", false, "print the optimizer's plan notes (index choices and skips)")
	progress := fs.Bool("progress", false, "print live phase/task/counter updates while the job runs")
	show := fs.Int("show", 10, "print up to N output pairs")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the job, from submit to wait, to this file")
	var conf confFlag
	fs.Var(&conf, "conf", "job parameter key=value (repeatable)")
	fs.Parse(args)

	sys, err := manimal.NewSystem(*sysDir)
	if err != nil {
		return err
	}
	defer sys.Close()
	prog, err := loadProgram(*progPath)
	if err != nil {
		return err
	}
	inputs := []manimal.InputSpec{{Path: *inputPath, Program: prog}}
	if *prog2Path != "" {
		prog2, err := loadProgram(*prog2Path)
		if err != nil {
			return err
		}
		inputs = append(inputs, manimal.InputSpec{Path: *input2Path, Program: prog2})
	}
	stopProfile, err := startCPUProfile(*cpuProfile)
	if err != nil {
		return err
	}
	report, err := func() (*manimal.JobReport, error) {
		handle, err := sys.SubmitAsync(context.Background(), manimal.JobSpec{
			Name:                "cli",
			Inputs:              inputs,
			OutputPath:          *outPath,
			Conf:                conf.conf,
			MapOnly:             *mapOnly,
			DisableOptimization: *noopt,
		})
		if err != nil {
			return nil, err
		}
		if *progress {
			watchProgress(handle)
		}
		return handle.Wait()
	}()
	if perr := stopProfile(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	for _, ir := range report.Inputs {
		fmt.Printf("plan: %s", ir.Plan.Kind)
		if len(ir.Plan.Applied) > 0 {
			fmt.Printf(" %v", ir.Plan.Applied)
		}
		fmt.Println()
		if *explain {
			for _, note := range ir.Plan.Notes {
				fmt.Printf("  note: %s\n", note)
			}
		}
		for _, spec := range ir.IndexPrograms {
			fmt.Printf("index program available: %s\n", spec.Describe())
		}
	}
	fmt.Printf("done in %.3fs, %d output records\n",
		report.Duration.Seconds(), report.Result.Counters.Get("output.records"))
	if j := report.Join; j != nil && *explain {
		fmt.Printf("join: %s\n", j)
		printSemiJoin(j)
	}
	ctr := report.Result.Counters
	if ctr.Get(mapreduce.CtrSemiJoinFallback) != 0 {
		fmt.Println("semi-join: key set outgrew the spill budget; the probe input ran unfiltered")
	} else if slices.ContainsFunc(report.Inputs, func(ir manimal.InputReport) bool { return ir.Plan.SemiJoin != nil }) {
		fmt.Printf("semi-join: %d keys in the set; %d rows prefiltered, the rows it dropped included\n",
			ctr.Get(mapreduce.CtrSemiJoinKeys), ctr.Get(mapreduce.CtrRowsFiltered))
	}
	ft := ""
	for _, c := range []string{"manimal.tasks.retried", "manimal.tasks.speculative", "manimal.tasks.corrupt_blocks"} {
		if v := report.Result.Counters.Get(c); v != 0 {
			ft += fmt.Sprintf(" %s=%d", c, v)
		}
	}
	if ft != "" {
		fmt.Printf("fault tolerance:%s\n", ft)
	}
	mqo := ""
	for _, c := range []string{"manimal.cache.hits", "manimal.cache.misses"} {
		if v := report.Result.Counters.Get(c); v != 0 {
			mqo += fmt.Sprintf(" %s=%d", c, v)
		}
	}
	if mqo != "" {
		fmt.Printf("multi-query optimization:%s\n", mqo)
	}
	if *show > 0 {
		pairs, err := manimal.ReadOutput(*outPath)
		if err != nil {
			return err
		}
		for i, p := range pairs {
			if i >= *show {
				fmt.Printf("... (%d more)\n", len(pairs)-*show)
				break
			}
			if p.Value.IsRecord() {
				fmt.Printf("%v\t%v\n", p.Key, p.Value.Rec)
			} else {
				fmt.Printf("%v\t%v\n", p.Key, p.Value.D)
			}
		}
	}
	return nil
}

// startCPUProfile starts a pprof CPU profile written to path, if path is
// set; the returned function stops it and closes the file.
func startCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// watchProgress prints a status line whenever the job's phase, task
// progress, or headline counters move, until the job is terminal.
func watchProgress(h *manimal.JobHandle) {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	last := ""
	emit := func(st manimal.JobStatus) {
		line := progressLine(st)
		if line != last {
			fmt.Printf("[%7.3fs] %s\n", st.Duration.Seconds(), line)
			last = line
		}
	}
	for {
		st := h.Status()
		emit(st)
		if st.Phase.Terminal() {
			return
		}
		select {
		case <-h.Done():
			emit(h.Status())
			return
		case <-t.C:
		}
	}
}

func progressLine(st manimal.JobStatus) string {
	line := fmt.Sprintf("%-8s tasks %d/%d", st.Phase, st.TasksDone, st.TasksTotal)
	for _, c := range []string{"map.input.records", "reduce.input.groups", "output.records",
		"manimal.blocks.skipped", "manimal.rows.prefiltered",
		"manimal.tasks.retried", "manimal.tasks.speculative", "manimal.tasks.corrupt_blocks",
		"manimal.cache.hits", "manimal.cache.misses"} {
		if v, ok := st.Counters[c]; ok {
			line += fmt.Sprintf("  %s=%d", c, v)
		}
	}
	return line
}

// cmdInspect dumps a record file's footer metadata: format version,
// schema, encodings, block layout, and the zone-map stats block skipping
// decisions are made from — the debugging window into why a scan did (or
// did not) prune.
func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	filePath := fs.String("file", "", "record file to inspect")
	perBlock := fs.Bool("blocks", false, "print per-block stats (default: per-field summary)")
	fs.Parse(args)
	if *filePath == "" && fs.NArg() == 1 {
		*filePath = fs.Arg(0)
	}
	if *filePath == "" {
		return fmt.Errorf("inspect: need -file")
	}
	r, err := storage.Open(*filePath)
	if err != nil {
		return err
	}
	defer r.Close()

	schema := r.Schema()
	fmt.Printf("%s: format v%d, %d bytes, %d blocks, %d records\n",
		*filePath, storage.FormatVersion, r.Size(), r.NumBlocks(), r.NumRecords())
	fmt.Printf("schema: %s\n", schema)
	fmt.Print("encodings:")
	for _, f := range schema.Fields() {
		enc, _ := r.Encoding(f.Name)
		fmt.Printf(" %s=%s", f.Name, enc)
		if d := r.Dictionary(f.Name); d != nil {
			fmt.Printf("(%d terms)", d.Len())
		}
	}
	fmt.Println()
	if *perBlock {
		for b := 0; b < r.NumBlocks(); b++ {
			fmt.Printf("block %4d: %d records\n", b, r.RecordsInBlocks(b, b+1))
			for i, st := range r.BlockStats(b) {
				fmt.Printf("    %-16s %s\n", schema.Field(i).Name, statsRange(st))
			}
		}
		return nil
	}
	// Summary: fold every block's envelope per field. An unbounded block
	// max (unrepresentable prefix successor) makes the whole field's max
	// unbounded.
	fmt.Printf("stats: per-block min/max over %d blocks\n", r.NumBlocks())
	for i, f := range schema.Fields() {
		var agg storage.FieldStats
		maxUnbounded := false
		for b := 0; b < r.NumBlocks(); b++ {
			st := r.BlockStats(b)[i]
			if st.Min.IsValid() && (!agg.Min.IsValid() || st.Min.Compare(agg.Min) < 0) {
				agg.Min = st.Min
			}
			if !st.Max.IsValid() {
				maxUnbounded = true
			} else if st.Max.Compare(agg.Max) > 0 || !agg.Max.IsValid() {
				agg.Max = st.Max
			}
			agg.Nulls += st.Nulls
		}
		if maxUnbounded {
			agg.Max = manimal.Datum{}
		}
		fmt.Printf("  %-16s %s  nulls=%d\n", f.Name, statsRange(agg), agg.Nulls)
	}
	return nil
}

// statsRange renders one stats envelope (string/bytes bounds quoted, since
// they are prefixes that may contain spaces).
func statsRange(st storage.FieldStats) string {
	render := func(d manimal.Datum, unbounded string) string {
		if !d.IsValid() {
			return unbounded
		}
		s := d.String()
		if len(s) > 24 {
			s = s[:24] + "…"
		}
		switch d.Kind.String() {
		case "string", "bytes":
			return fmt.Sprintf("%q", s)
		}
		return s
	}
	return fmt.Sprintf("[%s, %s]", render(st.Min, "-inf"), render(st.Max, "+inf"))
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	sysDir := fs.String("sys", "manimal-sys", "system/catalog directory")
	// Loopback by default: the API reads and writes server-side file paths
	// and has no authentication, so exposing it beyond the host is an
	// explicit operator decision.
	addr := fs.String("addr", "127.0.0.1:7070", "listen address (unauthenticated; bind non-loopback deliberately)")
	slots := fs.Int("slots", 0, "scheduler task slots (0 = max(4, NumCPU))")
	doRecover := fs.Bool("recover", false, "replay the job journal at startup, resubmitting jobs a previous coordinator left unfinished")
	drain := fs.Duration("drain", 30*time.Second, "on SIGTERM/SIGINT, let running jobs finish for this long before canceling them (0 = cancel immediately)")
	maxJobs := fs.Int("max-jobs", 0, "admission cap: reject new submissions with 429 while this many jobs are active (0 = unlimited)")
	tenantSlots := fs.Int("tenant-slots", 0, "task-slot quota applied to every tenant named via the "+service.TenantHeader+" header (0 = unlimited)")
	withPprof := fs.Bool("pprof", false, "also serve net/http/pprof's profiles under /debug/pprof/")
	fs.Parse(args)
	// The service always journals: a coordinator worth restarting is one
	// whose accepted jobs survive the restart.
	sys, err := manimal.NewSystemWith(*sysDir, manimal.Options{SchedulerSlots: *slots, Journal: true})
	if err != nil {
		return err
	}
	defer sys.Close()
	srv := service.NewWith(sys, service.ServerConfig{
		MaxActiveJobs: *maxJobs,
		TenantSlots:   *tenantSlots,
	})
	if *doRecover {
		recovered, err := sys.Recover(context.Background())
		if err != nil {
			return err
		}
		srv.Adopt(recovered)
		for _, r := range recovered {
			if r.Err != nil {
				fmt.Printf("recover: %s %s: failed to resubmit: %v\n", r.ID, r.Name, r.Err)
				continue
			}
			fmt.Printf("recover: %s %s resubmitted -> %s\n", r.ID, r.Name, r.OutputPath)
		}
	}
	fmt.Printf("manimal service: sys=%s slots=%d listening on %s\n",
		*sysDir, sys.PoolStats().Slots, *addr)
	// Explicit server timeouts: a client that stalls mid-request (or never
	// sends one) must not pin a connection forever. Handlers respond from
	// in-memory state, so generous-but-bounded limits fit every endpoint.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           serveHandler(srv.Handler(), *withPprof),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-sigCtx.Done():
		stop() // a second signal kills the process the default way
	}
	fmt.Printf("manimal service: draining (deadline %s)\n", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	rep := srv.Drain(dctx)
	fmt.Printf("manimal service: drained: finished=%d canceled=%d\n", rep.Finished, rep.Canceled)
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// serveHandler is what `serve` listens with: the service API and, with
// withPprof, net/http/pprof's handlers under /debug/pprof/ beside it.
func serveHandler(api http.Handler, withPprof bool) http.Handler {
	if !withPprof {
		return api
	}
	mux := http.NewServeMux()
	mux.Handle("/", api)
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}

func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:7070", "service base URL")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request HTTP timeout (0 = none)")
	progPath := fs.String("prog", "", "mapper-language program file")
	inputPath := fs.String("input", "", "input record file (path on the server)")
	outPath := fs.String("out", "out.kv", "output KV file (path on the server)")
	name := fs.String("name", "", "job name (default: program file name)")
	noopt := fs.Bool("noopt", false, "disable optimization (conventional MapReduce)")
	mapOnly := fs.Bool("maponly", false, "skip the reduce phase")
	wait := fs.Bool("wait", false, "wait until the job is terminal and print the outcome")
	retries := fs.Int("retries", 0, "retry a 429-rejected submission up to N times, honoring Retry-After (0 = fail fast)")
	tenant := fs.String("tenant", "", "tenant name for the server's pool-share quota ("+service.TenantHeader+" header)")
	var conf confFlag
	fs.Var(&conf, "conf", "job parameter key=value (repeatable)")
	fs.Parse(args)

	src, err := os.ReadFile(*progPath)
	if err != nil {
		return err
	}
	jobName := *name
	if jobName == "" {
		jobName = strings.TrimSuffix(filepath.Base(*progPath), ".go")
	}
	c := service.NewClientTimeout(*addr, *timeout)
	c.SetRetry(*retries, 0)
	c.SetTenant(*tenant)
	// Without -wait the answer comes at once; with it the server holds the
	// answer until a short job is done, and only a longer one is polled.
	submit := c.SubmitAsync
	if *wait {
		submit = c.Submit
	}
	info, err := submit(service.SubmitRequest{
		Name:                jobName,
		Inputs:              []service.SubmitInput{{Path: *inputPath, Program: string(src), ProgramName: *progPath}},
		OutputPath:          *outPath,
		Conf:                service.ConfToJSON(conf.conf),
		MapOnly:             *mapOnly,
		DisableOptimization: *noopt,
	})
	if err != nil {
		return err
	}
	if *wait && !mapreduce.Phase(info.Phase).Terminal() {
		printJobInfo(info, false)
		if info, err = c.WaitJob(info.ID, 0, 200*time.Millisecond); err != nil {
			return err
		}
	}
	printJobInfo(info, *wait)
	return nil
}

func cmdJobs(args []string) error {
	fs := flag.NewFlagSet("jobs", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:7070", "service base URL")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request HTTP timeout (0 = none)")
	retries := fs.Int("retries", 0, "retry transient failures up to N times with backoff (0 = fail fast)")
	sysDir := fs.String("sys", "", "list the job journal of this system directory instead of asking a live service")
	fs.Parse(args)
	if *sysDir != "" {
		return journalJobs(*sysDir)
	}
	c := service.NewClientTimeout(*addr, *timeout)
	c.SetRetry(*retries, 0)
	infos, err := c.Jobs()
	if err != nil {
		return err
	}
	if len(infos) == 0 {
		fmt.Println("no jobs submitted")
	}
	for _, info := range infos {
		printJobInfo(info, false)
	}
	// Operational summary; a service old enough to lack /v1/stats still
	// answered /v1/jobs above, so a stats failure is not worth erroring on.
	if st, err := c.Stats(); err == nil {
		fmt.Printf("pool: %d/%d slots busy, %d jobs active (%d tracked, %d terminal)",
			st.Pool.Running, st.Pool.Slots, st.JobsActive, st.JobsTracked, st.JobsTerminal)
		if st.Draining {
			fmt.Print(", DRAINING")
		}
		if st.RejectedFull+st.RejectedDraining > 0 {
			fmt.Printf(", rejected %d full / %d draining", st.RejectedFull, st.RejectedDraining)
		}
		if st.Journal != nil {
			fmt.Printf("; journal: %d jobs, %d incomplete", st.Journal.Jobs, st.Journal.Incomplete)
		}
		fmt.Println()
	}
	return nil
}

// journalJobs lists jobs straight from a system directory's on-disk
// journal — works with no service running, e.g. to inspect what a crashed
// coordinator had accepted before restarting it with `serve -recover`.
func journalJobs(sysDir string) error {
	jnl, err := journal.Open(filepath.Join(sysDir, "journal"))
	if err != nil {
		return err
	}
	defer jnl.Close()
	entries, err := jnl.Replay()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Println("journal is empty")
		return nil
	}
	for _, e := range entries {
		fmt.Printf("%s  %-12s %-10s out=%s", e.Sub.ID, e.Sub.Name, e.State(), e.Sub.OutputPath)
		if e.Sub.Tenant != "" {
			fmt.Printf("  tenant=%s", e.Sub.Tenant)
		}
		if e.End != nil && e.End.Error != "" {
			fmt.Printf("  error=%s", e.End.Error)
		}
		if e.Mark != nil {
			fmt.Printf("  note=%q", e.Mark.Note)
		}
		fmt.Println()
	}
	st := jnl.Stats()
	fmt.Printf("journal: %d jobs (%d incomplete), %d records, %d bytes\n",
		st.Jobs, st.Incomplete, st.Records, st.Bytes)
	return nil
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:7070", "service base URL")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request HTTP timeout (0 = none)")
	id := fs.String("id", "", "job ID (from submit/jobs)")
	retries := fs.Int("retries", 0, "retry transient failures up to N times with backoff (0 = fail fast)")
	fs.Parse(args)
	c := service.NewClientTimeout(*addr, *timeout)
	c.SetRetry(*retries, 0)
	info, err := c.Job(*id)
	if err != nil {
		return err
	}
	printJobInfo(info, true)
	return nil
}

func cmdCancel(args []string) error {
	fs := flag.NewFlagSet("cancel", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:7070", "service base URL")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request HTTP timeout (0 = none)")
	id := fs.String("id", "", "job ID (from submit/jobs)")
	fs.Parse(args)
	info, err := service.NewClientTimeout(*addr, *timeout).Cancel(*id)
	if err != nil {
		return err
	}
	printJobInfo(info, false)
	return nil
}

func printJobInfo(info service.JobInfo, verbose bool) {
	fmt.Printf("%s  %-12s %-8s tasks %d/%d  %.3fs  out=%s",
		info.ID, info.Name, info.Phase, info.TasksDone, info.TasksTotal,
		float64(info.DurationMS)/1000, info.OutputPath)
	if info.Error != "" {
		fmt.Printf("  error=%s", info.Error)
	}
	fmt.Println()
	if !verbose {
		return
	}
	for _, p := range info.Plans {
		fmt.Printf("  plan %s: %s %v\n", p.Input, p.Kind, p.Applied)
		for _, n := range p.Notes {
			fmt.Printf("    note: %s\n", n)
		}
	}
	names := make([]string, 0, len(info.Counters))
	for n := range info.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %d\n", n, info.Counters[n])
	}
	// Attempt history only gets interesting when fault tolerance engaged;
	// all-success histories are folded into one summary line.
	interesting := false
	for _, a := range info.Attempts {
		if a.Outcome != "success" || a.Speculative {
			interesting = true
			break
		}
	}
	if !interesting {
		if n := len(info.Attempts); n > 0 {
			fmt.Printf("  attempts: %d, all succeeded first try\n", n)
		}
		return
	}
	for _, a := range info.Attempts {
		spec := ""
		if a.Speculative {
			spec = " speculative"
		}
		line := fmt.Sprintf("  attempt %s task %d #%d%s: %s (%.3fs)",
			a.Phase, a.Task, a.Attempt, spec, a.Outcome, float64(a.DurationMS)/1000)
		if a.Error != "" {
			line += " error=" + a.Error
		}
		fmt.Println(line)
	}
}

func cmdCatalog(args []string) error {
	fs := flag.NewFlagSet("catalog", flag.ExitOnError)
	sysDir := fs.String("sys", "manimal-sys", "system/catalog directory")
	fs.Parse(args)
	sys, err := manimal.NewSystem(*sysDir)
	if err != nil {
		return err
	}
	defer sys.Close()
	entries := sys.Catalog().All()
	cached := sys.Catalog().CacheEntries()
	if len(entries) == 0 && len(cached) == 0 {
		fmt.Println("catalog is empty")
		return nil
	}
	for _, e := range entries {
		fmt.Printf("%-12s %s -> %s fields=%v", e.Kind, e.InputPath, e.IndexPath, e.Fields)
		if e.KeyExpr != "" {
			fmt.Printf(" key=%s", e.KeyExpr)
		}
		if e.Shards > 0 {
			fmt.Printf(" shards=%d", e.Shards)
		}
		if len(e.Encodings) > 0 {
			fmt.Printf(" enc=%v", e.Encodings)
		}
		fmt.Printf(" (%d bytes)", e.SizeBytes)
		// Variants written before the current record-file format cannot be
		// opened any more; the optimizer skips them until a rebuild.
		if e.Kind == catalog.KindRecordFile && e.StatsVersion != storage.FormatVersion {
			fmt.Print(" RETIRED FORMAT (rebuild the index)")
		}
		// Surface staleness the way the optimizer will judge it: only
		// fingerprinted entries can go stale.
		if e.InputSizeBytes != 0 || e.InputModTimeNanos != 0 {
			if st, err := os.Stat(e.InputPath); err != nil || !e.MatchesInput(st.Size(), st.ModTime().UnixNano()) {
				fmt.Print(" STALE (input rewritten since build)")
			}
		}
		// Quarantined variants stay listed (the file is kept on disk for
		// inspection) but the optimizer skips them until a rebuild.
		if e.State != "" {
			fmt.Printf(" %s (%s; rebuild to clear)", e.State, e.StateReason)
		}
		fmt.Println()
	}
	if len(cached) > 0 {
		var size int64
		for _, e := range cached {
			size += e.SizeBytes
		}
		fmt.Printf("result cache: %d entries, %d bytes (`manimal cache` lists them)\n", len(cached), size)
	}
	return nil
}

// printCacheEntry renders one result-cache entry: the key it serves
// under, how often it was hit, and whether it can still be hit at all.
func printCacheEntry(e catalog.CacheEntry) {
	input := ""
	if len(e.Inputs) > 0 {
		input = e.Inputs[0].Path
	}
	fmt.Printf("result-cache %s -> %s key=%.12s… hits=%d records=%d (%d bytes)",
		input, e.Path, e.Key, e.Hits, e.OutputRecords, e.SizeBytes)
	if !e.Fresh() {
		fmt.Print(" STALE (input rewritten; `manimal cache -evict -stale` reclaims it)")
	}
	if e.State != "" {
		fmt.Printf(" %s (%s)", e.State, e.StateReason)
	}
	fmt.Println()
}

// cmdCache lists the result cache — committed job outputs that identical
// re-submissions are served from — and evicts entries on request.
func cmdCache(args []string) error {
	fs := flag.NewFlagSet("cache", flag.ExitOnError)
	sysDir := fs.String("sys", "manimal-sys", "system/catalog directory")
	evict := fs.Bool("evict", false, "remove cache entries and delete their artifact files")
	stale := fs.Bool("stale", false, "with -evict: only entries whose inputs were rewritten (or that are quarantined)")
	fs.Parse(args)
	sys, err := manimal.NewSystem(*sysDir)
	if err != nil {
		return err
	}
	defer sys.Close()
	if *evict {
		evicted, err := sys.EvictResultCache(*stale)
		for _, e := range evicted {
			fmt.Printf("evicted %.12s… -> %s (%d hits)\n", e.Key, e.Path, e.Hits)
		}
		if len(evicted) == 0 {
			fmt.Println("nothing to evict")
		}
		return err
	}
	entries := sys.Catalog().CacheEntries()
	for _, e := range entries {
		printCacheEntry(e)
	}
	if len(entries) == 0 {
		fmt.Println("result cache is empty")
	}
	return nil
}
