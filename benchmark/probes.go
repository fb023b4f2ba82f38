package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"manimal"
	"manimal/internal/analyzer"
	"manimal/internal/btree"
	"manimal/internal/catalog"
	"manimal/internal/indexgen"
	"manimal/internal/interp"
	"manimal/internal/journal"
	"manimal/internal/mapreduce"
	"manimal/internal/optimizer"
	"manimal/internal/predicate"
	"manimal/internal/programs"
	"manimal/internal/serde"
	"manimal/internal/storage"
	"manimal/internal/workload"
)

// Layer probes time calls into each package's exported functions, from
// outside the program, on a small probe data set every workload's traced
// run generates the same way. They say what a layer costs in isolation;
// the traced pass says what share of a workload it is.

// prober carries the probe data set and records one span per probe.
type prober struct {
	cfg    *runConfig
	out    *runOutput
	tr     *tracer
	parent int
	dir    string
	sys    *manimal.System
	wp, uv string // WebPages and UserVisits probe files
	docs   string
	tiny   string // one-block Rankings file for the null job
	btree  string // B+Tree over wp, keyed on rank
	delta  string // delta-encoded variant of uv
	dict   string // dictionary-encoded variant of uv
	// The 30 % selection over wp, analyzed once: the plan probes and the
	// pushdown scan both start from it.
	wpSchema *serde.Schema
	selDesc  *analyzer.Descriptor
}

// timeIt runs f under a span named after the metric and returns seconds.
func (p *prober) timeIt(name string, f func() error) (float64, error) {
	id := p.tr.start("probe."+name, p.parent, "")
	start := time.Now()
	err := f()
	secs := time.Since(start).Seconds()
	p.tr.end(id)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return secs, nil
}

// medianMS calls f n times under one span and returns the median call in
// milliseconds.
func (p *prober) medianMS(name string, n int, f func(i int) error) (float64, error) {
	xs := make([]float64, 0, n)
	_, err := p.timeIt(name, func() error {
		for i := 0; i < n; i++ {
			start := time.Now()
			if err := f(i); err != nil {
				return err
			}
			xs = append(xs, float64(time.Since(start).Nanoseconds())/1e6)
		}
		return nil
	})
	return median(xs), err
}

func runProbes(cfg *runConfig, out *runOutput, tr *tracer, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	p := &prober{cfg: cfg, out: out, tr: tr, dir: dir}
	p.parent = tr.start("probes", 0, "")
	defer tr.end(p.parent)
	for _, step := range []func() error{
		p.kit, p.analyzerProbes, p.planProbes, p.storageProbes, p.shareProbe, p.predicateProbe,
		p.interpProbes, p.shuffleProbes, p.btreeProbes, p.journalProbes,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// kit generates the probe data and builds its four index kinds; the
// builds double as the indexgen probes.
func (p *prober) kit() error {
	var err error
	if p.sys, err = manimal.NewSystemWith(filepath.Join(p.dir, "sys"), manimal.Options{SchedulerSlots: p.cfg.slots}); err != nil {
		return err
	}
	p.wp, p.uv = filepath.Join(p.dir, "webpages.rec"), filepath.Join(p.dir, "uservisits.rec")
	p.docs, p.tiny = filepath.Join(p.dir, "documents.rec"), filepath.Join(p.dir, "tiny.rec")
	gen, sz := workload.NewGen(p.cfg.seed), p.cfg.sz
	if err := gen.WriteWebPages(p.wp, sz.ProbeWebPages, sz.ContentBytes); err != nil {
		return err
	}
	if err := gen.WriteUserVisits(p.uv, sz.ProbeUserVisits, sz.ProbeUserVisits/10); err != nil {
		return err
	}
	if err := gen.WriteDocuments(p.docs, sz.ProbeWebPages/10, sz.AggDocBytes, sz.ProbeWebPages/10); err != nil {
		return err
	}
	if err := gen.WriteRankings(p.tiny, 500); err != nil {
		return err
	}
	if p.wpSchema, err = schemaOf(p.wp); err != nil {
		return err
	}
	if p.selDesc, err = analyzer.Analyze(progSelection.Parsed(), p.wpSchema); err != nil {
		return err
	}
	p.btree, p.delta, p.dict = p.wp+".btree", p.uv+".delta", p.uv+".dict"
	for _, b := range []struct {
		name, input, index string
		spec               indexgen.Spec
	}{
		{"btree", p.wp, p.btree, indexgen.Synthesize(p.selDesc, p.wpSchema)[0]},
		{"recordfile_proj", p.wp, p.wp + ".proj", projSpec},
		{"recordfile_delta", p.uv, p.delta, deltaSpec},
		{"recordfile_dict", p.uv, p.dict, dictSpec},
	} {
		var e manimal.CatalogEntry
		secs, err := p.timeIt("indexgen.build."+b.name, func() (err error) {
			e, err = p.sys.BuildIndex(b.spec, b.input, b.index)
			return err
		})
		if err != nil {
			return err
		}
		p.out.values["indexgen.build_s."+b.name] = secs
		p.out.values["indexgen.bytes_per_input_byte."+b.name] = ratio(float64(e.SizeBytes), float64(fileSize(b.input)))
	}
	return nil
}

func schemaOf(path string) (*serde.Schema, error) {
	r, err := storage.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.Schema(), nil
}

func (p *prober) analyzerProbes() error {
	type target struct {
		src   string
		input string
	}
	targets := []target{{programs.SelectionQuery, p.wp}, {programs.Benchmark2Aggregation, p.uv}, {programs.Benchmark3JoinUserVisits, p.uv}}
	ms, err := p.medianMS("analyzer.parse_analyze", p.cfg.sz.ProbeReps, func(i int) error {
		t := targets[i%len(targets)]
		prog, err := manimal.ParseProgram("probe", t.src)
		if err != nil {
			return err
		}
		_, err = p.sys.Analyze(prog, t.input)
		return err
	})
	if err != nil {
		return err
	}
	p.out.values["analyzer.parse_analyze_ms"] = ms

	// Paper Table 1: optimizations detected over optimizations present.
	var present, detected float64
	for _, truth := range programs.Table1 {
		schema, err := serde.ParseSchema(truth.SchemaText)
		if err != nil {
			return err
		}
		desc, err := analyzer.Analyze(mustProgram(truth.Name, truth.Source).Parsed(), schema)
		if err != nil {
			return err
		}
		for _, c := range []struct {
			truth programs.Presence
			found bool
		}{{truth.Select, desc.Select != nil}, {truth.Project, desc.Project != nil}, {truth.Delta, desc.Delta != nil}} {
			if c.truth == programs.Present {
				present++
				if c.found {
					detected++
				}
			}
		}
	}
	p.out.values["analyzer.detected_share"] = ratio(detected, present)
	return nil
}

// planProbes covers the optimizer's plan choice, the catalog's fsync'd
// rewrite, the result cache's hit path, and the fixed cost of a job.
func (p *prober) planProbes() error {
	var err error
	conf := manimal.Conf{"threshold": rankAbove(3000)}
	reps := p.cfg.sz.ProbeReps
	if p.out.values["optimizer.choose_ms"], err = p.medianMS("optimizer.choose", reps, func(int) error {
		optimizer.Choose(p.selDesc, p.wp, p.wpSchema, p.sys.Catalog().ForInput(p.wp), conf, optimizer.Options{})
		return nil
	}); err != nil {
		return err
	}

	cat, err := catalog.Open(filepath.Join(p.dir, "catalog-probe"))
	if err != nil {
		return err
	}
	entry := p.sys.Catalog().ForInput(p.wp)[0]
	if p.out.values["catalog.add_ms"], err = p.medianMS("catalog.add", reps, func(int) error { return cat.Add(entry) }); err != nil {
		return err
	}

	// An identical resubmission is served from the result cache.
	spec := manimal.JobSpec{Name: "cache-probe", Conf: conf, OutputPath: filepath.Join(p.dir, "cache-probe.kv"),
		Inputs: []manimal.InputSpec{{Path: p.wp, Program: progSelection}}}
	if _, err := p.sys.Submit(spec); err != nil {
		return err
	}
	if p.out.values["catalog.cache_hit_ms"], err = p.medianMS("catalog.cache_hit", reps/4+1, func(int) error {
		rep, err := p.sys.Submit(spec)
		if err == nil && rep.Inputs[0].Plan.Kind != manimal.PlanCached {
			err = fmt.Errorf("resubmission was not served from the result cache")
		}
		return err
	}); err != nil {
		return err
	}

	// The null job: one block, map-only, nothing selected. What remains is
	// the per-job chain every submission pays.
	null := manimal.JobSpec{Name: "null-job", MapOnly: true, DisableOptimization: true,
		OutputPath: filepath.Join(p.dir, "null.kv"), Conf: manimal.Conf{"threshold": manimal.Int(workload.RankMax)},
		Inputs: []manimal.InputSpec{{Path: p.tiny, Program: mustProgram("null", `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("pageRank") > ctx.ConfInt("threshold") {
		ctx.Emit(v.Str("pageURL"), 1)
	}
}
`)}}}
	p.out.values["mapreduce.null_job_ms"], err = p.medianMS("mapreduce.null_job", reps/4+1, func(int) error {
		_, err := p.sys.Submit(null)
		return err
	})
	return err
}

// drain scans blocks [0, n) of path under pd and returns seconds, the
// bytes physically read and the file size.
func drain(path string, pd *storage.Pushdown) (secs float64, read, size int64, err error) {
	start := time.Now()
	r, err := storage.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer r.Close()
	sc, err := r.ScanBatch(0, r.NumBlocks(), pd)
	if err != nil {
		return 0, 0, 0, err
	}
	for sc.Next() {
	}
	return time.Since(start).Seconds(), r.BytesRead(), r.Size(), sc.Err()
}

func (p *prober) storageProbes() error {
	var err error
	if p.out.values["storage.open_ms"], err = p.medianMS("storage.open", p.cfg.sz.ProbeReps, func(int) error {
		r, err := storage.Open(p.wp)
		if err == nil {
			err = r.Close()
		}
		return err
	}); err != nil {
		return err
	}

	// The pushdown of the 30 % selection on the un-indexed file: zone maps
	// plus the residual kernels, as the optimizer plans it.
	plan := optimizer.Choose(p.selDesc, p.wp, p.wpSchema, nil, manimal.Conf{"threshold": rankAbove(3000)}, optimizer.Options{})

	for _, sc := range []struct {
		metric, path string
		pd           *storage.Pushdown
	}{
		{"storage.scan_full_mb_per_s", p.wp, nil},
		{"storage.scan_pushdown_mb_per_s", p.wp, plan.Pushdown},
		{"storage.scan_delta_mb_per_s", p.delta, nil},
		{"storage.scan_dict_mb_per_s", p.dict, nil},
	} {
		var rates []float64
		var read, size int64
		if _, err := p.timeIt(sc.metric, func() error {
			for i := 0; i < 5; i++ {
				secs, r, s, err := drain(sc.path, sc.pd)
				if err != nil {
					return err
				}
				read, size = r, s
				rates = append(rates, float64(s)/(1<<20)/secs)
			}
			return nil
		}); err != nil {
			return err
		}
		p.out.values[sc.metric] = median(rates)
		if sc.pd == nil && sc.path == p.wp {
			p.out.values["storage.bytes_read_per_file_byte"] = ratio(float64(read), float64(size))
		}
	}

	recs, uvSchema, err := storage.ReadAll(p.uv)
	if err != nil {
		return err
	}
	var rates []float64
	if _, err := p.timeIt("storage.write", func() error {
		for i := 0; i < 3; i++ {
			dst := filepath.Join(p.dir, "write-probe.rec")
			start := time.Now()
			w, err := storage.NewWriter(dst, uvSchema, storage.WriterOptions{})
			if err != nil {
				return err
			}
			for _, r := range recs {
				if err := w.Append(r); err != nil {
					w.Abort()
					return err
				}
			}
			if err := w.Close(); err != nil {
				return err
			}
			rates = append(rates, float64(fileSize(dst))/(1<<20)/time.Since(start).Seconds())
		}
		return nil
	}); err != nil {
		return err
	}
	p.out.values["storage.write_mb_per_s"] = median(rates)
	return nil
}

// shareProbe compares four concurrent scans of one file, private against
// riding one shared physical scan.
func (p *prober) shareProbe() error {
	const fan = 4
	scan := func(share *storage.ScanShare) (float64, error) {
		errs := make([]error, fan)
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < fan; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r, err := storage.Open(p.wp)
				if err != nil {
					errs[i] = err
					return
				}
				defer r.Close()
				if share != nil {
					if sub, ok := share.Subscribe(r, 0, r.NumBlocks(), nil); ok {
						for sub.Next() {
						}
						errs[i] = sub.Err()
						sub.Close()
						return
					}
				}
				sc, err := r.ScanBatch(0, r.NumBlocks(), nil)
				if err != nil {
					errs[i] = err
					return
				}
				for sc.Next() {
				}
				errs[i] = sc.Err()
			}(i)
		}
		wg.Wait()
		secs := time.Since(start).Seconds()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return secs, nil
	}
	var private, shared []float64
	_, err := p.timeIt("storage.share_fanout", func() error {
		for i := 0; i < 5; i++ {
			a, err := scan(nil)
			if err != nil {
				return err
			}
			b, err := scan(storage.NewScanShare())
			if err != nil {
				return err
			}
			private, shared = append(private, a), append(shared, b)
		}
		return nil
	})
	p.out.values["storage.share_fanout_speedup"] = ratio(median(private), median(shared))
	return err
}

func (p *prober) predicateProbe() error {
	n := p.cfg.sz.ProbeRows
	col, mask := make([]int64, n), make([]bool, n)
	for i := range col {
		col[i] = int64(i*7919) % workload.RankMax
	}
	iv := predicate.Interval{Lo: rankAbove(3000)} // rank > T keeps 30 %
	ms, err := p.medianMS("predicate.filter", 21, func(int) error {
		for i := range mask {
			mask[i] = true
		}
		iv.FilterInt64(col, mask)
		return nil
	})
	// The mask reset is a plain store per row; it is timed with the kernel
	// on both sides of any comparison.
	p.out.values["predicate.filter_ns_per_row"] = ms * 1e6 / float64(n)
	return err
}

// sliceIter feeds InvokeReduce from memory.
type sliceIter struct {
	vals []interp.EmitValue
	pos  int
}

func (it *sliceIter) Next() bool              { it.pos++; return it.pos <= len(it.vals) }
func (it *sliceIter) Value() interp.EmitValue { return it.vals[it.pos-1] }

func (p *prober) interpProbes() error {
	// The mapper probed is the heaviest the workload runs: the UDF
	// aggregation's tokenizer for agg_shuffle, the 60 % selection elsewhere.
	prog, input, conf := progSelection, p.wp, manimal.Conf{"threshold": rankAbove(6000)}
	if p.cfg.workload == "agg_shuffle" {
		prog, input, conf = progBench4, p.docs, nil
	}
	p.out.info["interp.map_probe_program"] = prog.Name
	var err error
	if p.out.values["interp.compile_ms"], err = p.medianMS("interp.compile", p.cfg.sz.ProbeReps, func(int) error {
		_, err := interp.New(prog.Parsed())
		return err
	}); err != nil {
		return err
	}

	ex, err := interp.New(prog.Parsed())
	if err != nil {
		return err
	}
	discard := &interp.Context{Conf: conf, Emit: func(serde.Datum, interp.EmitValue) error { return nil },
		Log: func(string) {}, Counter: func(string, int64) {}}
	var mapNs, rows int64
	if _, err := p.timeIt("interp.map", func() error {
		r, err := storage.Open(input)
		if err != nil {
			return err
		}
		defer r.Close()
		sc, err := r.ScanBatch(0, r.NumBlocks(), nil)
		if err != nil {
			return err
		}
		for sc.Next() { // the scan itself stays off the clock
			b := sc.Batch()
			start := time.Now()
			if err := ex.InvokeMapBatch(b, discard); err != nil {
				return err
			}
			mapNs += time.Since(start).Nanoseconds()
			rows += int64(len(b.Sel()))
		}
		return sc.Err()
	}); err != nil {
		return err
	}
	p.out.values["interp.map_ns_per_record"] = ratio(float64(mapNs), float64(rows))

	red, err := interp.New(progBench2.Parsed())
	if err != nil {
		return err
	}
	const groups, perGroup = 1000, 100
	vals := make([]interp.EmitValue, perGroup)
	for i := range vals {
		vals[i] = interp.EmitValue{D: serde.Int(int64(i))}
	}
	secs, err := p.timeIt("interp.reduce", func() error {
		for g := 0; g < groups; g++ {
			if err := red.InvokeReduce(serde.Int(int64(g)), &sliceIter{vals: vals}, discard); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out.values["interp.reduce_ns_per_value"] = secs * 1e9 / (groups * perGroup)

	var fns, compiled float64
	for _, pr := range []*manimal.Program{progSelection, progProjection, progBench1, progBench2, progBench3UV, progBench3Rank, progBench4, progDelta, progCompress} {
		ex, err := interp.New(pr.Parsed())
		if err != nil {
			return err
		}
		for name, has := range map[string]bool{"Map": true, "Reduce": pr.Parsed().Reduce() != nil, "Combine": pr.Parsed().Combine() != nil} {
			if !has {
				continue
			}
			fns++
			if ex.Compiled(name) {
				compiled++
			}
		}
	}
	p.out.values["interp.compiled_share"] = ratio(compiled, fns)
	return nil
}

// Go-native mapper and reducer: the shuffle without storage or interpreter.
type identityMapper struct{}

func (identityMapper) Map(_ serde.Datum, rec *serde.Record, ctx *interp.Context) error {
	return ctx.Emit(rec.At(0), interp.EmitValue{D: serde.Int(1)})
}

type countReducer struct{}

func (countReducer) Reduce(key serde.Datum, values interp.ValueIter, ctx *interp.Context) error {
	var n int64
	for values.Next() {
		n++
	}
	return ctx.Emit(key, interp.EmitValue{D: serde.Int(n)})
}

func (p *prober) shuffleProbes() error {
	keySchema := serde.MustSchema(serde.Field{Name: "k", Kind: serde.KindInt64})
	n := p.cfg.sz.ProbeKeys
	recs := make([]*serde.Record, 2*n) // every key twice, far apart
	for i := range recs {
		r := serde.NewRecord(keySchema)
		r.MustSet("k", serde.Int(int64((i*7919)%n)))
		recs[i] = r
	}
	in, err := mapreduce.NewMemInput(keySchema, recs)
	if err != nil {
		return err
	}
	work := filepath.Join(p.dir, "shuffle-work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	var res *mapreduce.Result
	secs, err := p.timeIt("mapreduce.shuffle", func() (err error) {
		res, err = mapreduce.NewScheduler(p.cfg.slots).Run(context.Background(), &mapreduce.Job{
			Name:    "shuffle-probe",
			Inputs:  []mapreduce.MapInput{{Input: in, Mapper: func() (mapreduce.Mapper, error) { return identityMapper{}, nil }}},
			Reducer: func() (mapreduce.Reducer, error) { return countReducer{}, nil },
			Output:  &mapreduce.DiscardOutput{},
			Config:  mapreduce.Config{WorkDir: work},
		})
		return err
	})
	if err != nil {
		return err
	}
	p.out.values["mapreduce.shuffle_mb_per_s"] = float64(res.Counters.Get(mapreduce.CtrMapOutputBytes)) / (1 << 20) / secs
	p.out.values["mapreduce.shuffle_spills"] = float64(res.Counters.Get(mapreduce.CtrSpills))

	dst := filepath.Join(p.dir, "output-probe.kv")
	secs, err = p.timeIt("mapreduce.output_write", func() error {
		o, err := mapreduce.NewKVFileOutput(dst)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := o.Write(serde.Int(int64(i)), interp.EmitValue{D: serde.Int(1)}); err != nil {
				o.Abort()
				return err
			}
		}
		return o.Close()
	})
	p.out.values["mapreduce.output_write_mb_per_s"] = float64(fileSize(dst)) / (1 << 20) / secs
	return err
}

func (p *prober) btreeProbes() error {
	var err error
	if p.out.values["btree.open_ms"], err = p.medianMS("btree.open", p.cfg.sz.ProbeReps, func(int) error {
		ix, err := btree.OpenIndex(p.btree)
		if err == nil {
			err = ix.Close()
		}
		return err
	}); err != nil {
		return err
	}

	// scan drains rank > T and returns the entries, in key order.
	type entry struct {
		key serde.Datum
		rec *serde.Record
	}
	scan := func(bp int, keep bool) (entries []entry, n int, read int64, err error) {
		ix, err := btree.OpenIndex(p.btree)
		if err != nil {
			return nil, 0, 0, err
		}
		defer ix.Close()
		cur, err := ix.Scan(btree.LowerBound(rankAbove(bp), false), nil)
		if err != nil {
			return nil, 0, 0, err
		}
		for cur.Next() {
			n++
			if keep {
				k, err := cur.KeyDatum()
				if err != nil {
					return nil, 0, 0, err
				}
				entries = append(entries, entry{k, cur.Record().Clone()})
			}
		}
		return entries, n, ix.BytesRead(), cur.Err()
	}
	var n int
	secs, err := p.timeIt("btree.range_scan", func() (err error) {
		_, n, _, err = scan(3000, false)
		return err
	})
	if err != nil {
		return err
	}
	p.out.values["btree.range_scan_records_per_s"] = float64(n) / secs
	_, _, read, err := scan(2, false)
	if err != nil {
		return err
	}
	p.out.values["btree.seek_bytes_read"] = float64(read)

	entries, _, _, err := scan(10000, true) // the whole tree, sorted
	if err != nil {
		return err
	}
	ix, err := btree.OpenIndex(p.btree)
	if err != nil {
		return err
	}
	schema, keyExpr := ix.Schema(), ix.KeyExpr()
	ix.Close()
	secs, err = p.timeIt("btree.build", func() error {
		b, err := btree.NewBuilder(filepath.Join(p.dir, "build-probe.btree"), schema, keyExpr, btree.BuilderOptions{})
		if err != nil {
			return err
		}
		for _, e := range entries {
			if err := b.Add(e.key, e.rec); err != nil {
				b.Abort()
				return err
			}
		}
		return b.Close()
	})
	p.out.values["btree.build_records_per_s"] = float64(len(entries)) / secs
	return err
}

func (p *prober) journalProbes() error {
	j, err := journal.Open(filepath.Join(p.dir, "journal-probe"))
	if err != nil {
		return err
	}
	sub := journal.Submission{Name: "probe", OutputPath: filepath.Join(p.dir, "journal-probe.kv"),
		Inputs: []journal.Input{{Path: p.wp, ProgramName: "selection", Program: programs.SelectionQuery}},
		Conf:   map[string]journal.ConfValue{"threshold": {Kind: "int", Value: "6999"}}}
	reps := p.cfg.sz.ProbeReps
	ids := make([]string, reps)
	if p.out.values["journal.begin_ms"], err = p.medianMS("journal.begin", reps, func(i int) (err error) {
		ids[i], err = j.Begin(sub)
		return err
	}); err != nil {
		return err
	}
	if p.out.values["journal.end_ms"], err = p.medianMS("journal.end", reps, func(i int) error {
		return j.End(ids[i], journal.StateDone, "", 1)
	}); err != nil {
		return err
	}
	secs, err := p.timeIt("journal.replay", func() error {
		entries, err := j.Replay()
		if err == nil && len(entries) != reps {
			err = fmt.Errorf("replayed %d entries, journaled %d", len(entries), reps)
		}
		return err
	})
	p.out.values["journal.replay_ms_per_1k"] = secs * 1e3 / float64(reps) * 1000
	return err
}
