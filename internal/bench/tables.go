package bench

import (
	"fmt"
	"path/filepath"

	"manimal"
	"manimal/internal/catalog"
	"manimal/internal/indexgen"
	"manimal/internal/mapreduce"
	"manimal/internal/programs"
	"manimal/internal/storage"
	"manimal/internal/workload"
)

// Table2Row is one end-to-end benchmark comparison (paper Table 2).
type Table2Row struct {
	Name          string
	Description   string
	SpaceOverhead float64 // index bytes / original bytes
	HadoopSecs    float64
	ManimalSecs   float64
	Speedup       float64
	PaperSpeedup  float64
	// Input bytes each leg read: the machine-independent side of Speedup.
	HadoopInputBytes, ManimalInputBytes int64
}

// RunTable2 reruns the four Pavlo benchmarks end to end, Hadoop-mode vs
// Manimal-mode. Selectivities follow the paper: Benchmark 1 keeps ~0.02%
// of Rankings; Benchmark 3's date window keeps ~0.1% of UserVisits.
func RunTable2(dir string, scale Scale) ([]Table2Row, error) {
	var rows []Table2Row

	// Benchmark 1 — Selection over opaque Rankings.
	{
		e, err := newEnv(filepath.Join(dir, "b1"))
		if err != nil {
			return nil, err
		}
		data := e.path("rankings.rec")
		gen := workload.NewGen(101)
		if err := gen.WriteRankingsOpaque(data, scale.n(40000)); err != nil {
			return nil, err
		}
		prog, err := manimal.ParseProgram("bench1", programs.Benchmark1Selection)
		if err != nil {
			return nil, err
		}
		entries, err := e.sys.BuildBestIndexes(prog, data)
		if err != nil {
			return nil, err
		}
		spec := manimal.JobSpec{
			Name:    "benchmark-1",
			Inputs:  []manimal.InputSpec{{Path: data, Program: prog}},
			Conf:    manimal.Conf{"threshold": manimal.Int(9998)}, // ~0.02%
			MapOnly: true,
		}
		h, m, hr, mr, err := e.runBoth(spec)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{
			Name: "Benchmark-1", Description: "Selection",
			SpaceOverhead: overhead(entries, data),
			HadoopSecs:    h, ManimalSecs: m, Speedup: h / m,
			PaperSpeedup:     11.21,
			HadoopInputBytes: inputBytes(hr), ManimalInputBytes: inputBytes(mr),
		})
	}

	// Benchmark 2 — Aggregation over UserVisits.
	{
		e, err := newEnv(filepath.Join(dir, "b2"))
		if err != nil {
			return nil, err
		}
		data := e.path("uservisits.rec")
		if err := workload.NewGen(102).WriteUserVisits(data, scale.n(40000), 2000); err != nil {
			return nil, err
		}
		prog, err := manimal.ParseProgram("bench2", programs.Benchmark2Aggregation)
		if err != nil {
			return nil, err
		}
		entries, err := e.sys.BuildBestIndexes(prog, data)
		if err != nil {
			return nil, err
		}
		spec := manimal.JobSpec{
			Name:   "benchmark-2",
			Inputs: []manimal.InputSpec{{Path: data, Program: prog}},
		}
		h, m, hr, mr, err := e.runBoth(spec)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{
			Name: "Benchmark-2", Description: "Aggregation",
			SpaceOverhead: overhead(entries, data),
			HadoopSecs:    h, ManimalSecs: m, Speedup: h / m,
			PaperSpeedup:     2.96,
			HadoopInputBytes: inputBytes(hr), ManimalInputBytes: inputBytes(mr),
		})
	}

	// Benchmark 3 — Join: UserVisits (filtered, indexed) ⋈ Rankings.
	{
		e, err := newEnv(filepath.Join(dir, "b3"))
		if err != nil {
			return nil, err
		}
		uv := e.path("uservisits.rec")
		rank := e.path("rankings.rec")
		gen := workload.NewGen(103)
		if err := gen.WriteUserVisits(uv, scale.n(40000), 1000); err != nil {
			return nil, err
		}
		if err := gen.WriteRankings(rank, scale.n(1000)); err != nil {
			return nil, err
		}
		uvProg, err := manimal.ParseProgram("bench3-uv", programs.Benchmark3JoinUserVisits)
		if err != nil {
			return nil, err
		}
		rkProg, err := manimal.ParseProgram("bench3-rank", programs.Benchmark3JoinRankings)
		if err != nil {
			return nil, err
		}
		entries, err := e.sys.BuildBestIndexes(uvProg, uv)
		if err != nil {
			return nil, err
		}
		// Dates advance ~15 s/record from 1.2e9; this window keeps ~0.1%.
		window := int64(15 * scale.n(40000) / 1000)
		spec := manimal.JobSpec{
			Name: "benchmark-3",
			Inputs: []manimal.InputSpec{
				{Path: uv, Program: uvProg},
				{Path: rank, Program: rkProg},
			},
			Conf: manimal.Conf{
				"dateLo": manimal.Int(1_200_000_000),
				"dateHi": manimal.Int(1_200_000_000 + window),
			},
		}
		h, m, hr, mr, err := e.runBoth(spec)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{
			Name: "Benchmark-3", Description: "Join",
			SpaceOverhead: overhead(entries, uv),
			HadoopSecs:    h, ManimalSecs: m, Speedup: h / m,
			PaperSpeedup:     6.73,
			HadoopInputBytes: inputBytes(hr), ManimalInputBytes: inputBytes(mr),
		})
	}

	// Benchmark 4 — UDF Aggregation: no detected optimizations, N/A.
	rows = append(rows, Table2Row{
		Name: "Benchmark-4", Description: "UDF Aggregation",
		SpaceOverhead: 0, HadoopSecs: 0, ManimalSecs: 0, Speedup: 0,
		PaperSpeedup: 0,
	})
	return rows, nil
}

// inputBytes is the input data a job's map tasks read.
func inputBytes(r *manimal.JobReport) int64 {
	return r.Result.Counters.Get(mapreduce.CtrInputBytesRead)
}

func overhead(entries []manimal.CatalogEntry, data string) float64 {
	var idx int64
	for _, e := range entries {
		idx += e.SizeBytes
	}
	if orig := fileSize(data); orig > 0 {
		return float64(idx) / float64(orig)
	}
	return 0
}

// Table3Row is one selectivity point of the selection sweep (paper Table 3).
type Table3Row struct {
	SelectivityPct    int
	IntermediateBytes int64
	FinalBytes        int64
	HadoopSecs        float64
	ManimalSecs       float64
	Speedup           float64
	PaperSpeedup      float64
	// Input bytes each leg read: the machine-independent side of Speedup.
	HadoopInputBytes, ManimalInputBytes int64
}

var table3PaperSpeedups = map[int]float64{60: 1.59, 50: 1.85, 40: 2.29, 30: 2.98, 20: 4.19, 10: 7.10}

// RunTable3 sweeps the Section 4.3 selection query over selectivities
// 60%..10% against a WebPages file and its B+Tree rank index.
func RunTable3(dir string, scale Scale) ([]Table3Row, error) {
	e, err := newEnv(dir)
	if err != nil {
		return nil, err
	}
	data := e.path("webpages.rec")
	if err := workload.NewGen(201).WriteWebPages(data, scale.n(20000), 512); err != nil {
		return nil, err
	}
	prog, err := manimal.ParseProgram("selection", programs.SelectionQuery)
	if err != nil {
		return nil, err
	}
	if _, err := e.sys.BuildBestIndexes(prog, data); err != nil {
		return nil, err
	}
	var rows []Table3Row
	for _, sel := range []int{60, 50, 40, 30, 20, 10} {
		threshold := workload.RankMax - workload.RankMax*sel/100 - 1
		spec := manimal.JobSpec{
			Name:   fmt.Sprintf("select-%d", sel),
			Inputs: []manimal.InputSpec{{Path: data, Program: prog}},
			Conf:   manimal.Conf{"threshold": manimal.Int(int64(threshold))},
		}
		h, m, hr, mr, err := e.runBoth(spec)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			SelectivityPct:    sel,
			IntermediateBytes: hr.Result.Counters.Get(mapreduce.CtrMapOutputBytes),
			FinalBytes:        fileSize(e.path(fmt.Sprintf("select-%d-manimal.kv", sel))),
			HadoopSecs:        h,
			ManimalSecs:       m,
			Speedup:           h / m,
			PaperSpeedup:      table3PaperSpeedups[sel],
			HadoopInputBytes:  inputBytes(hr),
			ManimalInputBytes: inputBytes(mr),
		})
	}
	return rows, nil
}

// Table4Row is one projection configuration (paper Table 4).
type Table4Row struct {
	Config        string
	OriginalBytes int64
	NumTuples     int
	ContentBytes  int
	IndexBytes    int64
	HadoopSecs    float64
	ManimalSecs   float64
	Speedup       float64
	PaperSpeedup  float64
	// Input bytes each leg read: the machine-independent side of Speedup.
	HadoopInputBytes, ManimalInputBytes int64
}

// RunTable4 reruns the projection experiment in the paper's three
// configurations: Small-1 (few tuples, 510-byte content), Small-2 (more
// tuples, same content), Large (Small-1 tuple count, 10 KB content — the
// realistic web-page case where projection wins big).
func RunTable4(dir string, scale Scale) ([]Table4Row, error) {
	configs := []struct {
		name    string
		tuples  int
		content int
		paper   float64
	}{
		{"Small-1", scale.n(8000), 510, 2.4},
		{"Small-2", scale.n(20000), 510, 3.0},
		{"Large", scale.n(8000), 10 * 1024, 27.8},
	}
	var rows []Table4Row
	for i, cfg := range configs {
		e, err := newEnv(filepath.Join(dir, cfg.name))
		if err != nil {
			return nil, err
		}
		data := e.path("webpages.rec")
		if err := workload.NewGen(300+int64(i)).WriteWebPages(data, cfg.tuples, cfg.content); err != nil {
			return nil, err
		}
		prog, err := manimal.ParseProgram("projection", programs.ProjectionQuery)
		if err != nil {
			return nil, err
		}
		// Isolate projection: build only the record-file index (no B+Tree),
		// as the single-optimization experiment requires.
		spec := indexgen.Spec{Kind: catalog.KindRecordFile, Fields: []string{"url", "rank"}}
		entry, err := e.sys.BuildIndex(spec, data, e.path("webpages.proj"))
		if err != nil {
			return nil, err
		}
		jobSpec := manimal.JobSpec{
			Name:    "projection-" + cfg.name,
			Inputs:  []manimal.InputSpec{{Path: data, Program: prog}},
			Conf:    manimal.Conf{"threshold": manimal.Int(workload.RankMax / 2)},
			MapOnly: true,
		}
		h, m, hr, mr, err := e.runBoth(jobSpec)
		if err != nil {
			return nil, err
		}
		if mr.Inputs[0].Plan.Kind.String() != "recordfile" {
			return nil, fmt.Errorf("bench: table 4 %s: plan %s, want recordfile (%v)",
				cfg.name, mr.Inputs[0].Plan.Kind, mr.Inputs[0].Plan.Notes)
		}
		rows = append(rows, Table4Row{
			Config:        cfg.name,
			OriginalBytes: fileSize(data),
			NumTuples:     cfg.tuples,
			ContentBytes:  cfg.content,
			IndexBytes:    entry.SizeBytes,
			HadoopSecs:    h,
			ManimalSecs:   m,
			Speedup:       h / m,
			PaperSpeedup:  cfg.paper,

			HadoopInputBytes:  inputBytes(hr),
			ManimalInputBytes: inputBytes(mr),
		})
	}
	return rows, nil
}

// Table5Row reports the delta-compression experiment (paper Table 5).
type Table5Row struct {
	OriginalBytes       int64
	PostProjectionBytes int64
	DeltaBytes          int64
	HadoopSecs          float64 // post-projection, no delta
	ManimalSecs         float64 // post-projection + delta
	Speedup             float64
	PaperSpeedup        float64
	PaperSpaceSaving    float64
}

// RunTable5 measures delta compression on UserVisits numerics: the paper
// projects out non-numeric fields first, then delta-compresses visitDate,
// adRevenue, and duration, reporting a ~47% space saving and a modest
// (1.05x) time win.
func RunTable5(dir string, scale Scale) (*Table5Row, error) {
	e, err := newEnv(dir)
	if err != nil {
		return nil, err
	}
	data := e.path("uservisits.rec")
	if err := workload.NewGen(400).WriteUserVisits(data, scale.n(40000), 1000); err != nil {
		return nil, err
	}
	prog, err := manimal.ParseProgram("deltaquery", programs.DeltaQuery)
	if err != nil {
		return nil, err
	}
	// "We projected out all non-numeric fields" (paper Appendix D).
	numeric := []string{"visitDate", "adRevenue", "duration"}

	// Post-projection baseline: projected, no delta.
	plainSpec := indexgen.Spec{Kind: catalog.KindRecordFile, Fields: numeric}
	plainEntry, err := indexgen.Build(plainSpec, data, e.path("uv.proj"), e.path(""))
	if err != nil {
		return nil, err
	}
	// Delta variant: same fields, numerics delta-compressed.
	deltaSpec := indexgen.Spec{
		Kind:   catalog.KindRecordFile,
		Fields: numeric,
		Encodings: map[string]storage.FieldEncoding{
			"visitDate": storage.EncodeDelta,
			"adRevenue": storage.EncodeDelta,
			"duration":  storage.EncodeDelta,
		},
	}
	deltaEntry, err := e.sys.BuildIndex(deltaSpec, data, e.path("uv.delta"))
	if err != nil {
		return nil, err
	}

	// "Hadoop" leg: run over the projected (non-delta) file directly.
	baseSpec := manimal.JobSpec{
		Name:                "delta-hadoop",
		Inputs:              []manimal.InputSpec{{Path: e.path("uv.proj"), Program: prog}},
		OutputPath:          e.path("delta-hadoop.kv"),
		DisableOptimization: true,
	}
	h, _, err := e.run(baseSpec)
	if err != nil {
		return nil, err
	}
	// Manimal leg: catalog holds only the delta index over the original.
	optSpec := manimal.JobSpec{
		Name:       "delta-manimal",
		Inputs:     []manimal.InputSpec{{Path: data, Program: prog}},
		OutputPath: e.path("delta-manimal.kv"),
	}
	m, mr, err := e.run(optSpec)
	if err != nil {
		return nil, err
	}
	if mr.Inputs[0].Plan.IndexPath != deltaEntry.IndexPath {
		return nil, fmt.Errorf("bench: table 5: plan did not pick the delta index (%v)", mr.Inputs[0].Plan.Notes)
	}
	same, err := sameOutput(baseSpec.OutputPath, optSpec.OutputPath)
	if err != nil {
		return nil, err
	}
	if !same {
		return nil, fmt.Errorf("bench: table 5: outputs differ")
	}
	return &Table5Row{
		OriginalBytes:       fileSize(data),
		PostProjectionBytes: plainEntry.SizeBytes,
		DeltaBytes:          deltaEntry.SizeBytes,
		HadoopSecs:          h,
		ManimalSecs:         m,
		Speedup:             h / m,
		PaperSpeedup:        1.05,
		PaperSpaceSaving:    0.47,
	}, nil
}

// Table6Row reports direct operation on compressed data (paper Table 6).
type Table6Row struct {
	OriginalBytes int64
	IndexedBytes  int64
	HadoopSecs    float64
	ManimalSecs   float64
	Speedup       float64
	PaperSpeedup  float64
}

// RunTable6 measures dictionary compression of destURL with direct
// operation: the aggregation groups by destURL codes without ever
// decompressing them.
func RunTable6(dir string, scale Scale) (*Table6Row, error) {
	e, err := newEnv(dir)
	if err != nil {
		return nil, err
	}
	data := e.path("uservisits.rec")
	// A modest URL pool gives the dictionary high hit rates, like real
	// traffic against a fixed page population.
	if err := workload.NewGen(500).WriteUserVisits(data, scale.n(40000), 500); err != nil {
		return nil, err
	}
	prog, err := manimal.ParseProgram("compression", programs.CompressionQuery)
	if err != nil {
		return nil, err
	}
	spec := indexgen.Spec{
		Kind:      catalog.KindRecordFile,
		Fields:    workload.UserVisitsSchema.FieldNames(),
		Encodings: map[string]storage.FieldEncoding{"destURL": storage.EncodeDict},
	}
	entry, err := e.sys.BuildIndex(spec, data, e.path("uv.dict"))
	if err != nil {
		return nil, err
	}
	jobSpec := manimal.JobSpec{
		Name:   "directop",
		Inputs: []manimal.InputSpec{{Path: data, Program: prog}},
	}
	h, m, _, mr, err := e.runBoth(jobSpec)
	if err != nil {
		return nil, err
	}
	if !mr.Inputs[0].Plan.DirectCodes {
		return nil, fmt.Errorf("bench: table 6: direct operation not enabled (%v)", mr.Inputs[0].Plan.Notes)
	}
	return &Table6Row{
		OriginalBytes: fileSize(data),
		IndexedBytes:  entry.SizeBytes,
		HadoopSecs:    h,
		ManimalSecs:   m,
		Speedup:       h / m,
		PaperSpeedup:  2.34,
	}, nil
}
