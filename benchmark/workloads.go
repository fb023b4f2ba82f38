package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"manimal"
	"manimal/internal/btree"
	"manimal/internal/catalog"
	"manimal/internal/indexgen"
	"manimal/internal/programs"
	"manimal/internal/storage"
	"manimal/internal/workload"
)

var batchWorkloads = []batchWorkload{
	{name: "select_scan", setup: setupSelectScan},
	{name: "agg_shuffle", setup: setupAggShuffle},
	{name: "index_build", setup: setupIndexBuild},
}

func mustProgram(name, src string) *manimal.Program {
	p, err := manimal.ParseProgram(name, src)
	if err != nil {
		panic(fmt.Sprintf("benchmark program %s: %v", name, err))
	}
	return p
}

// The paper's programs, parsed once.
var (
	progSelection  = mustProgram("selection", programs.SelectionQuery)
	progProjection = mustProgram("projection", programs.ProjectionQuery)
	progBench1     = mustProgram("bench1", programs.Benchmark1Selection)
	progBench2     = mustProgram("bench2", programs.Benchmark2Aggregation)
	progBench3UV   = mustProgram("bench3-uv", programs.Benchmark3JoinUserVisits)
	progBench3Rank = mustProgram("bench3-rank", programs.Benchmark3JoinRankings)
	progBench4     = mustProgram("bench4", programs.Benchmark4UDFAggregation)
	progDelta      = mustProgram("deltaquery", programs.DeltaQuery)
	progCompress   = mustProgram("compression", programs.CompressionQuery)
)

// batchSystem opens the System a batch workload runs on: the result cache
// off (with it on, every round after the first is a ~2 ms file copy) and
// the journal off, as embedded use ships.
func batchSystem(cfg *runConfig, dir string) (*manimal.System, error) {
	return manimal.NewSystemWith(dir, manimal.Options{SchedulerSlots: cfg.slots, DisableResultCache: true})
}

// rankAbove is the threshold that makes `rank > T` keep bp basis points
// (hundredths of a percent) of a uniform rank column.
func rankAbove(bp int) manimal.Datum {
	return manimal.Int(int64(workload.RankMax - workload.RankMax*bp/10000 - 1))
}

// jobOp wraps a job spec as a pass operation; each leg writes its own
// output file so the two can be compared after the round.
func jobOp(sys *manimal.System, dir string, spec manimal.JobSpec) op {
	return op{name: spec.Name, run: func(l leg, tr *tracer, parent int) (opResult, error) {
		s := spec
		s.DisableOptimization = l == legNoopt
		s.OutputPath = filepath.Join(dir, fmt.Sprintf("%s-%s.kv", spec.Name, l))
		return runJob(sys, s, tr, parent)
	}}
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

func entryBytes(entries []manimal.CatalogEntry) int64 {
	var t int64
	for _, e := range entries {
		t += e.SizeBytes
	}
	return t
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dictSpec stores every UserVisits field with destURL dictionary-encoded:
// the index behind direct operation on compressed data (paper Table 6).
var dictSpec = indexgen.Spec{
	Kind:      catalog.KindRecordFile,
	Fields:    workload.UserVisitsSchema.FieldNames(),
	Encodings: map[string]storage.FieldEncoding{"destURL": storage.EncodeDict},
}

// deltaSpec keeps the numeric UserVisits fields, delta-encoded (Table 5).
var deltaSpec = indexgen.Spec{
	Kind:   catalog.KindRecordFile,
	Fields: []string{"visitDate", "adRevenue", "duration"},
	Encodings: map[string]storage.FieldEncoding{
		"visitDate": storage.EncodeDelta, "adRevenue": storage.EncodeDelta, "duration": storage.EncodeDelta,
	},
}

// projSpec keeps url and rank of WebPages: the projection index of Table 4.
var projSpec = indexgen.Spec{Kind: catalog.KindRecordFile, Fields: []string{"url", "rank"}}

// setupSelectScan generates the scan-side data and builds its indexes.
// Time lives in storage block read/CRC/decode, predicate and btree here;
// shuffle and Reduce do almost nothing.
func setupSelectScan(cfg *runConfig, dir string) (*suite, error) {
	sys, err := batchSystem(cfg, filepath.Join(dir, "sys"))
	if err != nil {
		return nil, err
	}
	p := map[string]string{
		"webpages":       filepath.Join(dir, "webpages.rec"),
		"webpages_plain": filepath.Join(dir, "webpages_plain.rec"),
		"rankings_op":    filepath.Join(dir, "rankings_opaque.rec"),
		"uservisits":     filepath.Join(dir, "uservisits.rec"),
		"rankings":       filepath.Join(dir, "rankings.rec"),
	}
	gen := workload.NewGen(cfg.seed)
	sz := cfg.sz
	if err := gen.WriteWebPages(p["webpages"], sz.SelWebPages, sz.ContentBytes); err != nil {
		return nil, err
	}
	if err := copyFile(p["webpages"], p["webpages_plain"]); err != nil {
		return nil, err
	}
	if err := gen.WriteRankingsOpaque(p["rankings_op"], sz.SelRankingsOpaque); err != nil {
		return nil, err
	}
	if err := gen.WriteUserVisits(p["uservisits"], sz.SelUserVisits, sz.SelUserVisits/10); err != nil {
		return nil, err
	}
	if err := gen.WriteRankings(p["rankings"], sz.SelRankings); err != nil {
		return nil, err
	}

	var indexBytes int64
	for _, b := range []struct {
		prog  *manimal.Program
		input string
	}{{progSelection, p["webpages"]}, {progBench1, p["rankings_op"]}} {
		entries, err := sys.BuildBestIndexes(b.prog, b.input)
		if err != nil {
			return nil, err
		}
		indexBytes += entryBytes(entries)
	}
	proj, err := sys.BuildIndex(projSpec, p["webpages"], p["webpages"]+".proj")
	if err != nil {
		return nil, err
	}
	indexBytes += proj.SizeBytes

	one := func(name string, prog *manimal.Program, input string, conf manimal.Conf, mapOnly bool) op {
		return jobOp(sys, dir, manimal.JobSpec{Name: name, Conf: conf, MapOnly: mapOnly,
			Inputs: []manimal.InputSpec{{Path: input, Program: prog}}})
	}
	// Dates advance ~14.5 s per record; this window keeps ~0.1 % of them.
	window := int64(15 * sz.SelUserVisits / 1000)
	s := &suite{indexBytes: func() int64 { return indexBytes }}
	s.ops = []op{
		one("sel10", progSelection, p["webpages"], manimal.Conf{"threshold": rankAbove(1000)}, false),
		one("sel30", progSelection, p["webpages"], manimal.Conf{"threshold": rankAbove(3000)}, false),
		one("sel60", progSelection, p["webpages"], manimal.Conf{"threshold": rankAbove(6000)}, false),
		one("sel30_noindex", progSelection, p["webpages_plain"], manimal.Conf{"threshold": rankAbove(3000)}, false),
		one("b1_select", progBench1, p["rankings_op"], manimal.Conf{"threshold": rankAbove(2)}, true),
		one("proj50", progProjection, p["webpages"], manimal.Conf{"threshold": rankAbove(5000)}, true),
		jobOp(sys, dir, manimal.JobSpec{Name: "b3_join",
			Inputs: []manimal.InputSpec{{Path: p["uservisits"], Program: progBench3UV}, {Path: p["rankings"], Program: progBench3Rank}},
			Conf:   manimal.Conf{"dateLo": manimal.Int(1_200_000_000), "dateHi": manimal.Int(1_200_000_000 + window)}}),
	}
	for _, path := range p {
		s.inputBytes += fileSize(path)
	}
	return s, nil
}

// setupAggShuffle generates the aggregation data and its record-file
// indexes. Every job reads every row, so time lives in the interpreter's
// Map/Reduce, the sort/spill/merge shuffle, and output commit.
func setupAggShuffle(cfg *runConfig, dir string) (*suite, error) {
	sys, err := batchSystem(cfg, filepath.Join(dir, "sys"))
	if err != nil {
		return nil, err
	}
	p := map[string]string{
		"uservisits": filepath.Join(dir, "uservisits.rec"),
		"documents":  filepath.Join(dir, "documents.rec"),
	}
	gen := workload.NewGen(cfg.seed)
	sz := cfg.sz
	if err := gen.WriteUserVisits(p["uservisits"], sz.AggUserVisits, sz.AggDestURLs); err != nil {
		return nil, err
	}
	if err := gen.WriteDocuments(p["documents"], sz.AggDocs, sz.AggDocBytes, sz.AggDocs); err != nil {
		return nil, err
	}
	entries, err := sys.BuildBestIndexes(progBench2, p["uservisits"])
	if err != nil {
		return nil, err
	}
	indexBytes := entryBytes(entries)
	for suffix, spec := range map[string]indexgen.Spec{".dict": dictSpec, ".delta": deltaSpec} {
		e, err := sys.BuildIndex(spec, p["uservisits"], p["uservisits"]+suffix)
		if err != nil {
			return nil, err
		}
		indexBytes += e.SizeBytes
	}
	one := func(name string, prog *manimal.Program, input string) op {
		return jobOp(sys, dir, manimal.JobSpec{Name: name, Inputs: []manimal.InputSpec{{Path: input, Program: prog}}})
	}
	s := &suite{indexBytes: func() int64 { return indexBytes }}
	s.ops = []op{
		one("b2_agg", progBench2, p["uservisits"]),
		one("cq_directop", progCompress, p["uservisits"]),
		one("delta_sum", progDelta, p["uservisits"]),
		one("b4_udf", progBench4, p["documents"]),
	}
	for _, path := range p {
		s.inputBytes += fileSize(path)
	}
	return s, nil
}

// setupIndexBuild only generates data: the builds themselves are the
// measured pass — the write side of the layers the two scan workloads
// read through. The unoptimized leg builds single-shard and serially,
// the path `manimal index -shards 1` takes.
func setupIndexBuild(cfg *runConfig, dir string) (*suite, error) {
	p := map[string]string{
		"webpages":    filepath.Join(dir, "webpages.rec"),
		"rankings_op": filepath.Join(dir, "rankings_opaque.rec"),
		"uservisits":  filepath.Join(dir, "uservisits.rec"),
	}
	gen := workload.NewGen(cfg.seed)
	sz := cfg.sz
	if err := gen.WriteWebPages(p["webpages"], sz.IdxWebPages, sz.ContentBytes); err != nil {
		return nil, err
	}
	if err := gen.WriteRankingsOpaque(p["rankings_op"], sz.IdxRankingsOpaque); err != nil {
		return nil, err
	}
	if err := gen.WriteUserVisits(p["uservisits"], sz.IdxUserVisits, sz.IdxUserVisits/10); err != nil {
		return nil, err
	}

	built := make(map[string]int64) // op name -> index bytes of its last optimized build
	s := &suite{indexBytes: func() int64 {
		var t int64
		for _, b := range built {
			t += b
		}
		return t
	}}
	seq := 0
	build := func(name string, do func(sys *manimal.System, bc manimal.BuildConfig) ([]manimal.CatalogEntry, error)) op {
		return op{name: name, run: func(l leg, tr *tracer, parent int) (opResult, error) {
			// A fresh system directory per build: the catalog starts
			// empty, as it does for an administrator's first CREATE INDEX.
			seq++
			sysDir := filepath.Join(dir, fmt.Sprintf("sys-%d", seq))
			defer os.RemoveAll(sysDir)
			sys, err := batchSystem(cfg, sysDir)
			if err != nil {
				return opResult{}, err
			}
			var bc manimal.BuildConfig
			if l == legNoopt {
				bc = manimal.BuildConfig{NumShards: 1, MaxParallelTasks: 1}
			}
			id := tr.start("system.build_index", parent, name)
			start := time.Now()
			entries, err := do(sys, bc)
			res := opResult{seconds: time.Since(start).Seconds(), plan: "build"}
			tr.end(id)
			if err != nil {
				return res, err
			}
			if l == legOpt {
				built[name] = entryBytes(entries)
			}
			res.digest, err = indexDigest(entries)
			return res, err
		}}
	}
	best := func(prog *manimal.Program, input string) func(*manimal.System, manimal.BuildConfig) ([]manimal.CatalogEntry, error) {
		return func(sys *manimal.System, bc manimal.BuildConfig) ([]manimal.CatalogEntry, error) {
			return sys.BuildBestIndexesWith(prog, input, bc)
		}
	}
	s.ops = []op{
		build("build_sel", best(progSelection, p["webpages"])),
		build("build_b1", best(progBench1, p["rankings_op"])),
		build("build_b2", best(progBench2, p["uservisits"])),
		build("build_dict", func(sys *manimal.System, bc manimal.BuildConfig) ([]manimal.CatalogEntry, error) {
			e, err := sys.BuildIndexWith(dictSpec, p["uservisits"], p["uservisits"]+".dict", bc)
			return []manimal.CatalogEntry{e}, err
		}),
	}
	for _, path := range p {
		s.inputBytes += fileSize(path)
	}
	return s, nil
}

// indexDigest hashes the records an index build stored, independent of
// order and sharding: a sharded and a single-file build of the same
// input must agree.
func indexDigest(entries []manimal.CatalogEntry) (string, error) {
	var items [][]byte
	for _, e := range entries {
		tag := []byte(e.Kind[:1] + filepath.Ext(e.IndexPath) + ":")
		switch e.Kind {
		case catalog.KindBTree, catalog.KindBTreeSharded:
			ix, err := btree.OpenIndex(e.IndexPath)
			if err != nil {
				return "", err
			}
			cur, err := ix.Scan(nil, nil)
			if err != nil {
				ix.Close()
				return "", err
			}
			for cur.Next() {
				items = append(items, cur.Record().AppendBinary(append([]byte(nil), tag...)))
			}
			err = cur.Err()
			ix.Close()
			if err != nil {
				return "", err
			}
		default:
			recs, _, err := storage.ReadAll(e.IndexPath)
			if err != nil {
				return "", err
			}
			for _, r := range recs {
				items = append(items, r.AppendBinary(append([]byte(nil), tag...)))
			}
		}
	}
	return digestSorted(items), nil
}
