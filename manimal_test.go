package manimal_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"manimal"
	"manimal/internal/catalog"
	"manimal/internal/mapreduce"
	"manimal/internal/programs"
	"manimal/internal/storage"
	"manimal/internal/workload"
)

// submit runs a job and returns its sorted output pairs.
func submit(t *testing.T, sys *manimal.System, spec manimal.JobSpec) ([]mapreduce.KVPair, *manimal.JobReport) {
	t.Helper()
	report, err := sys.Submit(spec)
	if err != nil {
		t.Fatalf("submit %s: %v", spec.Name, err)
	}
	pairs, err := manimal.ReadOutput(spec.OutputPath)
	if err != nil {
		t.Fatalf("read output: %v", err)
	}
	mapreduce.SortKVPairs(pairs)
	return pairs, report
}

func mustProgram(t *testing.T, name, src string) *manimal.Program {
	t.Helper()
	p, err := manimal.ParseProgram(name, src)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return p
}

// TestEndToEndSelection is the full Section 2.2 walkthrough: run the
// selection benchmark unoptimized, build the synthesized indexes, rerun
// optimized, and require byte-identical (as multisets) output plus an
// actual B+Tree plan.
func TestEndToEndSelection(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "rankings.rec")
	if err := workload.NewGen(1).WriteRankingsOpaque(data, 5000); err != nil {
		t.Fatalf("generate: %v", err)
	}
	sys, err := manimal.NewSystemWith(filepath.Join(dir, "sys"), manimal.Options{DisableResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	prog := mustProgram(t, "bench1", programs.Benchmark1Selection)
	conf := manimal.Conf{"threshold": manimal.Int(9000)}

	baseSpec := manimal.JobSpec{
		Name:       "bench1-hadoop",
		Inputs:     []manimal.InputSpec{{Path: data, Program: prog}},
		OutputPath: filepath.Join(dir, "base.kv"),
		Conf:       conf,
		MapOnly:    true,
	}
	base, baseReport := submit(t, sys, baseSpec)
	if got := baseReport.Inputs[0].Plan.Kind.String(); got != "original" {
		t.Fatalf("baseline plan = %s, want original", got)
	}
	if len(base) == 0 {
		t.Fatal("baseline produced no output; bad selectivity")
	}

	// The submission must have synthesized an index-generation program.
	specs := baseReport.Inputs[0].IndexPrograms
	if len(specs) == 0 {
		t.Fatalf("no index programs synthesized; descriptor notes: %v", baseReport.Inputs[0].Descriptor.Notes)
	}
	entry, err := sys.BuildIndex(specs[0], data, filepath.Join(dir, "rankings.idx"))
	if err != nil {
		t.Fatalf("build index: %v", err)
	}
	if entry.KeyExpr == "" {
		t.Fatalf("primary index is not a selection index: %+v", entry)
	}

	optSpec := baseSpec
	optSpec.Name = "bench1-manimal"
	optSpec.OutputPath = filepath.Join(dir, "opt.kv")
	opt, optReport := submit(t, sys, optSpec)
	if got := optReport.Inputs[0].Plan.Kind.String(); got != "btree" {
		t.Fatalf("optimized plan = %s, want btree; notes: %v", got, optReport.Inputs[0].Plan.Notes)
	}

	if !reflect.DeepEqual(base, opt) {
		t.Fatalf("optimized output differs: %d vs %d pairs", len(base), len(opt))
	}

	// The index run must touch far fewer map invocations: threshold 9000 of
	// RankMax 10000 keeps ~10%.
	baseIn := baseReport.Result.Counters.Get(mapreduce.CtrMapInputRecords)
	optIn := optReport.Result.Counters.Get(mapreduce.CtrMapInputRecords)
	if optIn*5 > baseIn {
		t.Errorf("indexed run read %d of %d records; expected ~10%%", optIn, baseIn)
	}

	// Paper Table 3: the saving grows as selectivity falls. The full scan
	// reads every input byte at any threshold; the index range scan reads
	// fewer the fewer rows qualify.
	wideSpec := optSpec
	wideSpec.Name = "bench1-manimal-60"
	wideSpec.OutputPath = filepath.Join(dir, "opt60.kv")
	wideSpec.Conf = manimal.Conf{"threshold": manimal.Int(4000)}
	_, wideReport := submit(t, sys, wideSpec)
	baseBytes := baseReport.Result.Counters.Get(mapreduce.CtrInputBytesRead)
	narrowBytes := optReport.Result.Counters.Get(mapreduce.CtrInputBytesRead)
	wideBytes := wideReport.Result.Counters.Get(mapreduce.CtrInputBytesRead)
	if narrowBytes >= baseBytes || narrowBytes >= wideBytes {
		t.Errorf("input bytes read: 10%% %d, 60%% %d, full scan %d; want 10%% below both",
			narrowBytes, wideBytes, baseBytes)
	}
}

// TestEndToEndAggregation exercises projection + delta-compression via the
// record-file index, with combiners, and requires identical output.
func TestEndToEndAggregation(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "uservisits.rec")
	if err := workload.NewGen(2).WriteUserVisits(data, 4000, 500); err != nil {
		t.Fatalf("generate: %v", err)
	}
	sys, err := manimal.NewSystemWith(filepath.Join(dir, "sys"), manimal.Options{DisableResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	prog := mustProgram(t, "bench2", programs.Benchmark2Aggregation)

	baseSpec := manimal.JobSpec{
		Name:       "bench2-hadoop",
		Inputs:     []manimal.InputSpec{{Path: data, Program: prog}},
		OutputPath: filepath.Join(dir, "base.kv"),
	}
	base, baseReport := submit(t, sys, baseSpec)

	desc := baseReport.Inputs[0].Descriptor
	if desc.Select != nil {
		t.Errorf("aggregation must have no selection, got %q", desc.Select.Formula.Canon())
	}
	if desc.Project == nil || len(desc.Project.UsedFields) != 2 {
		t.Fatalf("projection = %+v, want sourceIP+adRevenue; notes %v", desc.Project, desc.Notes)
	}
	if desc.Delta == nil || len(desc.Delta.Fields) != 3 {
		t.Fatalf("delta = %+v, want 3 numeric fields", desc.Delta)
	}
	if desc.DirectOp != nil {
		t.Errorf("direct-op must be rejected (Reduce emits its key), got %v", desc.DirectOp.Fields)
	}

	entries, err := sys.BuildBestIndexes(prog, data)
	if err != nil {
		t.Fatalf("build indexes: %v", err)
	}
	if len(entries) != 1 {
		t.Fatalf("want 1 index (record file), got %d", len(entries))
	}

	optSpec := baseSpec
	optSpec.Name = "bench2-manimal"
	optSpec.OutputPath = filepath.Join(dir, "opt.kv")
	opt, optReport := submit(t, sys, optSpec)
	if got := optReport.Inputs[0].Plan.Kind.String(); got != "recordfile" {
		t.Fatalf("optimized plan = %s; notes: %v", got, optReport.Inputs[0].Plan.Notes)
	}
	if !reflect.DeepEqual(base, opt) {
		t.Fatalf("optimized output differs: %d vs %d pairs", len(base), len(opt))
	}
	// The projected index must be much smaller than the original.
	if entries[0].SizeBytes*2 > fileSize(t, data) {
		t.Errorf("projected index %d bytes vs original %d; expected <50%%", entries[0].SizeBytes, fileSize(t, data))
	}

	// Paper Table 5: delta-encoding the three numerics of a projected file
	// saves substantial space (the paper reports 47 %).
	numeric := []string{"visitDate", "adRevenue", "duration"}
	plain := buildIndex(t, sys, manimal.IndexSpec{Kind: catalog.KindRecordFile, Fields: numeric}, data, "uv.proj")
	delta := buildIndex(t, sys, manimal.IndexSpec{
		Kind:   catalog.KindRecordFile,
		Fields: numeric,
		Encodings: map[string]storage.FieldEncoding{
			"visitDate": storage.EncodeDelta,
			"adRevenue": storage.EncodeDelta,
			"duration":  storage.EncodeDelta,
		},
	}, data, "uv.delta")
	if delta.SizeBytes*4 > plain.SizeBytes*3 {
		t.Errorf("delta-encoded projection %d bytes vs plain %d; want >=25%% smaller", delta.SizeBytes, plain.SizeBytes)
	}

	// Paper Table 4: with 10 KB of content per web page, the url+rank
	// projection is a small fraction of the original file.
	pages := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(6).WriteWebPages(pages, 300, 10*1024); err != nil {
		t.Fatal(err)
	}
	proj := buildIndex(t, sys, manimal.IndexSpec{Kind: catalog.KindRecordFile, Fields: []string{"url", "rank"}}, pages, "webpages.proj")
	if proj.SizeBytes*10 >= fileSize(t, pages) {
		t.Errorf("projection of 10 KB pages %d bytes vs original %d; want <10%%", proj.SizeBytes, fileSize(t, pages))
	}
}

// TestEndToEndJoin runs the two-input repartition join with a selection
// index on the UserVisits side.
func TestEndToEndJoin(t *testing.T) {
	dir := t.TempDir()
	uv := filepath.Join(dir, "uservisits.rec")
	rank := filepath.Join(dir, "rankings.rec")
	gen := workload.NewGen(3)
	if err := gen.WriteUserVisits(uv, 4000, 300); err != nil {
		t.Fatal(err)
	}
	if err := gen.WriteRankings(rank, 300); err != nil {
		t.Fatal(err)
	}
	sys, err := manimal.NewSystemWith(filepath.Join(dir, "sys"), manimal.Options{DisableResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	uvProg := mustProgram(t, "bench3-uv", programs.Benchmark3JoinUserVisits)
	rkProg := mustProgram(t, "bench3-rank", programs.Benchmark3JoinRankings)
	// UserVisits dates start at 1.2e9 and advance ~15s/record; a narrow
	// window keeps a small fraction, like the paper's 0.095%.
	conf := manimal.Conf{
		"dateLo": manimal.Int(1_200_000_000),
		"dateHi": manimal.Int(1_200_003_000),
	}

	baseSpec := manimal.JobSpec{
		Name: "bench3-hadoop",
		Inputs: []manimal.InputSpec{
			{Path: uv, Program: uvProg},
			{Path: rank, Program: rkProg},
		},
		OutputPath: filepath.Join(dir, "base.kv"),
		Conf:       conf,
	}
	base, baseReport := submit(t, sys, baseSpec)
	if len(base) == 0 {
		t.Fatal("join produced no output")
	}

	// The submission must recognize the repartition-join shape: both maps
	// re-key on a plain field of their own input.
	j := baseReport.Join
	if j == nil {
		t.Fatal("two-input join shape not detected")
	}
	if j.Left.Field != "destURL" || j.Right.Field != "pageURL" {
		t.Errorf("join keys = %q / %q, want destURL / pageURL", j.Left.Field, j.Right.Field)
	}
	if j.Left.Records != 4000 || j.Right.Records != 300 {
		t.Errorf("join cardinalities = %d / %d, want 4000 / 300", j.Left.Records, j.Right.Records)
	}
	joinNoted := false
	for _, n := range baseReport.Inputs[0].Plan.Notes {
		if strings.Contains(n, "join detected") {
			joinNoted = true
		}
	}
	if !joinNoted {
		t.Errorf("join not noted on plan; notes: %v", baseReport.Inputs[0].Plan.Notes)
	}

	if _, err := sys.BuildBestIndexes(uvProg, uv); err != nil {
		t.Fatalf("build UV index: %v", err)
	}

	optSpec := baseSpec
	optSpec.Name = "bench3-manimal"
	optSpec.OutputPath = filepath.Join(dir, "opt.kv")
	opt, optReport := submit(t, sys, optSpec)
	if got := optReport.Inputs[0].Plan.Kind.String(); got != "btree" {
		t.Fatalf("UV plan = %s; notes: %v", got, optReport.Inputs[0].Plan.Notes)
	}
	if got := optReport.Inputs[1].Plan.Kind.String(); got != "original" {
		t.Fatalf("Rankings plan = %s, want original", got)
	}
	if !reflect.DeepEqual(base, opt) {
		t.Fatalf("optimized join output differs: %d vs %d pairs", len(base), len(opt))
	}
	baseBytes := baseReport.Result.Counters.Get(mapreduce.CtrInputBytesRead)
	if optBytes := optReport.Result.Counters.Get(mapreduce.CtrInputBytesRead); optBytes >= baseBytes {
		t.Errorf("optimized join read %d input bytes, full scans %d; want fewer", optBytes, baseBytes)
	}
}

// TestEndToEndDirectOperation exercises dictionary compression with direct
// operation on codes (paper Table 6): identical output, no decompression.
func TestEndToEndDirectOperation(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "uservisits.rec")
	if err := workload.NewGen(4).WriteUserVisits(data, 3000, 200); err != nil {
		t.Fatal(err)
	}
	sys, err := manimal.NewSystemWith(filepath.Join(dir, "sys"), manimal.Options{DisableResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	prog := mustProgram(t, "compression", programs.CompressionQuery)

	baseSpec := manimal.JobSpec{
		Name:       "compress-hadoop",
		Inputs:     []manimal.InputSpec{{Path: data, Program: prog}},
		OutputPath: filepath.Join(dir, "base.kv"),
	}
	base, baseReport := submit(t, sys, baseSpec)

	desc := baseReport.Inputs[0].Descriptor
	if desc.DirectOp == nil || len(desc.DirectOp.Fields) != 1 || desc.DirectOp.Fields[0] != "destURL" {
		t.Fatalf("direct-op = %+v; notes %v", desc.DirectOp, desc.Notes)
	}

	if _, err := sys.BuildBestIndexes(prog, data); err != nil {
		t.Fatalf("build indexes: %v", err)
	}

	optSpec := baseSpec
	optSpec.Name = "compress-manimal"
	optSpec.OutputPath = filepath.Join(dir, "opt.kv")
	opt, optReport := submit(t, sys, optSpec)
	plan := optReport.Inputs[0].Plan
	if plan.Codes == storage.DecodeTerms {
		t.Fatalf("direct codes not enabled; plan %+v", plan)
	}
	if !reflect.DeepEqual(base, opt) {
		t.Fatalf("direct-operation output differs: %d vs %d pairs", len(base), len(opt))
	}

	// With SortedOutput the optimizer must refuse direct operation
	// (paper footnote 1).
	sortedSpec := baseSpec
	sortedSpec.Name = "compress-sorted"
	sortedSpec.OutputPath = filepath.Join(dir, "sorted.kv")
	sortedSpec.SortedOutput = true
	_, sortedReport := submit(t, sys, sortedSpec)
	if sortedReport.Inputs[0].Plan.Codes != storage.DecodeTerms {
		t.Error("direct codes must be disabled under SortedOutput")
	}

	// Paper Table 6: dictionary-encoding destURL shrinks the whole file.
	dict := buildIndex(t, sys, manimal.IndexSpec{
		Kind:      catalog.KindRecordFile,
		Fields:    workload.UserVisitsSchema.FieldNames(),
		Encodings: map[string]storage.FieldEncoding{"destURL": storage.EncodeDict},
	}, data, "uv.dict")
	if dict.SizeBytes >= fileSize(t, data) {
		t.Errorf("dictionary index %d bytes not smaller than original %d", dict.SizeBytes, fileSize(t, data))
	}
}

// TestBenchmark4Unoptimizable: the text-centric UDF aggregation runs
// correctly but yields no optimizations (paper Table 2's N/A row).
func TestBenchmark4Unoptimizable(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "docs.rec")
	if err := workload.NewGen(5).WriteDocuments(data, 500, 200, 100); err != nil {
		t.Fatal(err)
	}
	sys, err := manimal.NewSystemWith(filepath.Join(dir, "sys"), manimal.Options{DisableResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	prog := mustProgram(t, "bench4", programs.Benchmark4UDFAggregation)
	spec := manimal.JobSpec{
		Name:       "bench4",
		Inputs:     []manimal.InputSpec{{Path: data, Program: prog}},
		OutputPath: filepath.Join(dir, "out.kv"),
	}
	out, report := submit(t, sys, spec)
	if len(out) == 0 {
		t.Fatal("UDF aggregation produced no output")
	}
	desc := report.Inputs[0].Descriptor
	if desc.Select != nil || desc.Project != nil || desc.Delta != nil || desc.DirectOp != nil {
		t.Fatalf("benchmark 4 must be unoptimizable, got %+v", desc)
	}
	if len(report.Inputs[0].IndexPrograms) != 0 {
		t.Fatalf("no index programs expected, got %d", len(report.Inputs[0].IndexPrograms))
	}
}

// buildIndex builds spec over input into the file name beside it.
func buildIndex(t *testing.T, sys *manimal.System, spec manimal.IndexSpec, input, name string) manimal.CatalogEntry {
	t.Helper()
	entry, err := sys.BuildIndex(spec, input, filepath.Join(filepath.Dir(input), name))
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	return entry
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
