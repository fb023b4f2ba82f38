package manimal

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"manimal/internal/faultinject"
	"manimal/internal/mapreduce"
	"manimal/internal/programs"
	"manimal/internal/serde"
	"manimal/internal/storage"
	"manimal/internal/workload"
)

var (
	sjVisitsSchema = serde.MustSchema(
		serde.Field{Name: "url", Kind: serde.KindString},
		serde.Field{Name: "uid", Kind: serde.KindInt64},
		serde.Field{Name: "day", Kind: serde.KindInt64},
		serde.Field{Name: "rev", Kind: serde.KindInt64},
	)
	sjPagesSchema = serde.MustSchema(
		serde.Field{Name: "page", Kind: serde.KindString},
		serde.Field{Name: "pid", Kind: serde.KindInt64},
		serde.Field{Name: "rank", Kind: serde.KindInt64},
	)
)

// sjVisitsMap is the build side: a date-window selection re-keyed on key,
// with a user counter that must come out the same on both plans.
func sjVisitsMap(key string) string {
	return `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("day") >= ctx.ConfInt("lo") && v.Int("day") < ctx.ConfInt("hi") {
		ctx.Counter("selected")
		ctx.Emit(` + key + `, v)
	}
}
`
}

func sjPagesMap(key string) string {
	return `
func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(` + key + `, v)
}
`
}

// sjReduce is Benchmark 3's Reduce over these schemas: the last rank seen
// wins, so the order of the pages side's values shows in the output.
const sjReduce = `
func Reduce(key Datum, values *Iter, ctx *Ctx) {
	rank := -1
	revenue := 0
	visits := 0
	for values.Next() {
		if values.HasField("rank") {
			rank = values.FieldInt("rank")
		} else {
			revenue = revenue + values.FieldInt("rev")
			visits++
		}
	}
	if visits > 0 {
		ctx.Emit(key, strconv.Itoa(rank)+"|"+strconv.Itoa(revenue)+"|"+strconv.Itoa(visits))
	}
}
`

// sjCase generates one two-input join: visits over URLs [vlo, vhi), pages
// over [plo, phi) with dup rows per URL, and a date window [lo, hi) in
// day units of the visits file (days 0..visits-1).
type sjCase struct {
	name          string
	vlo, vhi      int
	plo, phi, dup int
	lo, hi        int64
	buildSecond   bool // the pages program leads, with the Reduce; visits is input 1
	intKeys       bool // join uid = pid instead of url = page
	spill         int  // the optimized run's Config.SpillBufferBytes; 0 = default
	wantFallback  bool
}

func (c sjCase) write(t *testing.T, dir string) (visits, pages string) {
	t.Helper()
	rnd := rand.New(rand.NewSource(int64(len(c.name))))
	visits, pages = filepath.Join(dir, "visits.rec"), filepath.Join(dir, "pages.rec")
	const nVisits = 3000
	w, err := storage.NewWriter(visits, sjVisitsSchema, storage.WriterOptions{BlockSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nVisits; i++ {
		u := c.vlo + rnd.Intn(c.vhi-c.vlo)
		r := serde.NewRecord(sjVisitsSchema)
		r.MustSet("url", serde.String(fmt.Sprintf("url%04d", u)))
		r.MustSet("uid", serde.Int(int64(u)))
		r.MustSet("day", serde.Int(int64(i)))
		r.MustSet("rev", serde.Int(int64(rnd.Intn(1000))))
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, err = storage.NewWriter(pages, sjPagesSchema, storage.WriterOptions{BlockSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < c.dup; d++ {
		for u := c.plo; u < c.phi; u++ {
			r := serde.NewRecord(sjPagesSchema)
			r.MustSet("page", serde.String(fmt.Sprintf("url%04d", u)))
			r.MustSet("pid", serde.Int(int64(u)))
			r.MustSet("rank", serde.Int(int64(rnd.Intn(100))))
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return visits, pages
}

func (c sjCase) spec(t *testing.T, visits, pages, out string) JobSpec {
	vk, pk := `v.Str("url")`, `v.Str("page")`
	if c.intKeys {
		vk, pk = `v.Int("uid")`, `v.Int("pid")`
	}
	vsrc, psrc := sjVisitsMap(vk), sjPagesMap(pk)
	if c.buildSecond {
		psrc += strings.Replace(strings.Replace(sjReduce, `if values.HasField("rank") {`, `if !values.HasField("day") {`, 1),
			"visits++", "visits = visits + 1", 1)
	} else {
		vsrc += sjReduce
	}
	vp, err := ParseProgram("visits", vsrc)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := ParseProgram("pages", psrc)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []InputSpec{{Path: visits, Program: vp}, {Path: pages, Program: pp}}
	if c.buildSecond {
		inputs[0], inputs[1] = inputs[1], inputs[0]
	}
	return JobSpec{Name: c.name, Inputs: inputs, OutputPath: out,
		Conf: Conf{"lo": Int(c.lo), "hi": Int(c.hi)}}
}

// runWithSpill runs spec's optimized plan with the given spill budget,
// which no JobSpec field sets: the submission's own plan and buildJob,
// run on the System's scheduler.
func runWithSpill(t *testing.T, s *System, spec JobSpec, spill int) *JobReport {
	t.Helper()
	sub := &submission{spec: spec, h: &JobHandle{report: &JobReport{}, done: make(chan struct{})}, work: t.TempDir()}
	if err := s.resolve(sub); err != nil {
		t.Fatal(err)
	}
	defer s.releaseOutput(sub.outputKey)
	if err := s.plan(sub, ""); err != nil {
		t.Fatal(err)
	}
	job := buildJob(sub)
	job.Config.SpillBufferBytes = spill
	res, err := s.sched.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	sub.h.report.Result = res
	return sub.h.report
}

// TestSemiJoinDifferential: generated joins of the Benchmark 3 shape, each
// stressing one thing the key set must get right, write byte-identical
// output and user counters with the semi-join and under -noopt.
func TestSemiJoinDifferential(t *testing.T) {
	cases := []sjCase{
		{name: "keys absent on either side", vlo: 0, vhi: 400, plo: 200, phi: 600, dup: 1, lo: 1000, hi: 1600},
		{name: "duplicate keys on the filtered side", vlo: 0, vhi: 300, plo: 0, phi: 300, dup: 3, lo: 500, hi: 700},
		{name: "empty selection", vlo: 0, vhi: 300, plo: 0, phi: 300, dup: 1, lo: 5000, hi: 6000},
		{name: "everything selected", vlo: 0, vhi: 300, plo: 100, phi: 500, dup: 2, lo: 0, hi: 3000},
		{name: "build side as input 1", vlo: 0, vhi: 400, plo: 200, phi: 600, dup: 2, lo: 100, hi: 400, buildSecond: true},
		{name: "int64 join keys", vlo: 0, vhi: 400, plo: 200, phi: 600, dup: 2, lo: 2000, hi: 2300, intKeys: true},
		{name: "set over the spill budget falls back", vlo: 0, vhi: 400, plo: 200, phi: 600, dup: 2, lo: 0, hi: 1500,
			spill: 1 << 10, wantFallback: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			visits, pages := c.write(t, dir)
			sys, err := NewSystemWith(filepath.Join(dir, "sys"), Options{DisableResultCache: true})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()

			base := c.spec(t, visits, pages, filepath.Join(dir, "base.kv"))
			base.DisableOptimization = true
			baseReport, err := sys.Submit(base)
			if err != nil {
				t.Fatal(err)
			}
			opt := c.spec(t, visits, pages, filepath.Join(dir, "opt.kv"))
			var optReport *JobReport
			if c.spill != 0 {
				optReport = runWithSpill(t, sys, opt, c.spill)
			} else if optReport, err = sys.Submit(opt); err != nil {
				t.Fatal(err)
			}

			probe := 1
			if c.buildSecond {
				probe = 0
			}
			if optReport.Inputs[probe].Plan.SemiJoin == nil {
				t.Fatalf("no semi-join planned; notes: %q", optReport.Inputs[probe].Plan.Notes)
			}
			baseOut, err := os.ReadFile(base.OutputPath)
			if err != nil {
				t.Fatal(err)
			}
			optOut, err := os.ReadFile(opt.OutputPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(baseOut, optOut) {
				t.Fatalf("semi-join output (%d bytes) differs from -noopt (%d bytes)", len(optOut), len(baseOut))
			}
			bc, oc := baseReport.Result.Counters, optReport.Result.Counters
			for _, name := range append(bc.Names(), oc.Names()...) {
				if strings.HasPrefix(name, "user.") && bc.Get(name) != oc.Get(name) {
					t.Errorf("user counter %s: -noopt %d, semi-join %d", name, bc.Get(name), oc.Get(name))
				}
			}
			if got := oc.Get(mapreduce.CtrSemiJoinFallback) == 1; got != c.wantFallback {
				t.Errorf("fell back: %v, want %v", got, c.wantFallback)
			}
			if !c.wantFallback && c.lo < 3000 && oc.Get(mapreduce.CtrSemiJoinKeys) == 0 {
				t.Errorf("a selection that keeps visits left an empty key set")
			}
		})
	}
}

// TestSemiJoinUnderInjectedFaults runs paper Benchmark 3 as a semi-join
// while every first map attempt fails after recording its keys (a spill
// fault strikes once the task has emitted everything) and the first
// build-side task straggles into a speculative race. Keys of an attempt
// that rolls back never reach the set, so the output still equals
// -noopt's.
func TestSemiJoinUnderInjectedFaults(t *testing.T) {
	dir := t.TempDir()
	uv, rk := filepath.Join(dir, "uservisits.rec"), filepath.Join(dir, "rankings.rec")
	gen := workload.NewGen(9)
	if err := gen.WriteUserVisits(uv, 40000, 4000); err != nil {
		t.Fatal(err)
	}
	if err := gen.WriteRankings(rk, 4000); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemWith(filepath.Join(dir, "sys"), Options{DisableResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	uvProg, err := ParseProgram("b3-uv", programs.Benchmark3JoinUserVisits)
	if err != nil {
		t.Fatal(err)
	}
	rkProg, err := ParseProgram("b3-rank", programs.Benchmark3JoinRankings)
	if err != nil {
		t.Fatal(err)
	}
	spec := func(out string, noopt bool) JobSpec {
		return JobSpec{Name: out, OutputPath: filepath.Join(dir, out), DisableOptimization: noopt,
			Inputs: []InputSpec{{Path: uv, Program: uvProg}, {Path: rk, Program: rkProg}},
			Conf:   Conf{"dateLo": Int(1_200_000_000), "dateHi": Int(1_200_300_000)}}
	}
	if _, err := sys.Submit(spec("base.kv", true)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(dir, "base.kv"))
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Set(faultinject.MustParse("spill=1@_a00_,straggle=1:300ms@map:0:0;seed=7"))
	defer faultinject.Reset()
	report, err := sys.Submit(spec("opt.kv", false))
	if err != nil {
		t.Fatal(err)
	}
	if report.Inputs[1].Plan.SemiJoin == nil {
		t.Fatalf("no semi-join planned; notes: %q", report.Inputs[1].Plan.Notes)
	}
	got, err := os.ReadFile(filepath.Join(dir, "opt.kv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("semi-join under faults wrote %d bytes, -noopt %d", len(got), len(want))
	}
	ctr := report.Result.Counters
	if ctr.Get(mapreduce.CtrTasksRetried) == 0 || ctr.Get(mapreduce.CtrTasksSpeculative) == 0 {
		t.Errorf("retried %d, speculative %d: the faults did not strike", ctr.Get(mapreduce.CtrTasksRetried),
			ctr.Get(mapreduce.CtrTasksSpeculative))
	}
	if ctr.Get(mapreduce.CtrSemiJoinKeys) == 0 {
		t.Error("empty key set")
	}
}

// TestSemiJoinNeedsBuildSelection: a Reduce proved inner on the visits
// side is not enough. A visits Map with no selection to push down would
// put every key in the set, so the plans refuse the semi-join and say why.
func TestSemiJoinNeedsBuildSelection(t *testing.T) {
	dir := t.TempDir()
	c := sjCase{name: "no selection", vlo: 0, vhi: 100, plo: 0, phi: 100, dup: 1}
	visits, pages := c.write(t, dir)
	sys, err := NewSystemWith(filepath.Join(dir, "sys"), Options{DisableResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	spec := c.spec(t, visits, pages, filepath.Join(dir, "out.kv"))
	if spec.Inputs[0].Program, err = ParseProgram("visits", sjPagesMap(`v.Str("url")`)+sjReduce); err != nil {
		t.Fatal(err)
	}
	report, err := sys.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if report.Join == nil || report.Join.SemiJoin == nil {
		t.Fatalf("Reduce not proved inner: %+v", report.Join)
	}
	for i, ir := range report.Inputs {
		if ir.Plan.SemiJoin != nil {
			t.Errorf("input %d planned a semi-join", i)
		}
		if !strings.Contains(strings.Join(ir.Plan.Notes, "\n"), "pushes no selection") {
			t.Errorf("input %d notes %q do not say why", i, ir.Plan.Notes)
		}
	}
}
