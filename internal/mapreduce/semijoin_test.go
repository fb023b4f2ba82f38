package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"manimal/internal/interp"
	"manimal/internal/serde"
)

var sideSchema = serde.MustSchema(
	serde.Field{Name: "k", Kind: serde.KindString},
	serde.Field{Name: "v", Kind: serde.KindString},
)

// sideRecords builds one input's rows: key keys[i] with value tag+i.
func sideRecords(tag string, keys ...string) []*serde.Record {
	out := make([]*serde.Record, len(keys))
	for i, k := range keys {
		r := serde.NewRecord(sideSchema)
		r.MustSet("k", serde.String(k))
		r.MustSet("v", serde.String(fmt.Sprintf("%s%d", tag, i)))
		out[i] = r
	}
	return out
}

// keyedMapper re-keys a row on k and emits its v.
type keyedMapper struct{}

func (keyedMapper) Map(_ serde.Datum, rec *serde.Record, ctx *interp.Context) error {
	return ctx.Emit(rec.Get("k"), interp.EmitValue{D: rec.Get("v")})
}

// listReducer emits every group it sees, its values joined in arrival
// order: a Reduce that is NOT inner, so that any probe row the filter
// keeps (or wrongly drops) shows in the output.
type listReducer struct{}

func (listReducer) Reduce(key serde.Datum, values interp.ValueIter, ctx *interp.Context) error {
	var vs []string
	for values.Next() {
		vs = append(vs, values.Value().D.Str())
	}
	return ctx.Emit(key, interp.EmitValue{D: serde.String(strings.Join(vs, ","))})
}

type semiJoinCase struct {
	build, probe []*serde.Record
	buildInput   int                    // which job input the build side is
	sj           bool                   // run as a semi-join
	spill        int                    // Config.SpillBufferBytes
	buildMapper  func() (Mapper, error) // nil: keyedMapper
}

// runSemiJoin runs a two-input job and returns its output pairs, rendered
// "key=values" in output order, and its counters.
func runSemiJoin(t *testing.T, c semiJoinCase) ([]string, *Counters) {
	t.Helper()
	keyed := func() (Mapper, error) { return keyedMapper{}, nil }
	bm := c.buildMapper
	if bm == nil {
		bm = keyed
	}
	build, err := NewMemInput(sideSchema, c.build)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := NewMemInput(sideSchema, c.probe)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []MapInput{{Input: build, Mapper: bm}, {Input: probe, Mapper: keyed}}
	if c.buildInput == 1 {
		inputs[0], inputs[1] = inputs[1], inputs[0]
	}
	out := filepath.Join(t.TempDir(), "out.kv")
	kv, err := NewKVFileOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	job := &Job{
		Name: "semijoin", Inputs: inputs, Output: kv,
		Reducer: func() (Reducer, error) { return listReducer{}, nil },
		Config: Config{WorkDir: t.TempDir(), NumReducers: 2, MaxParallelTasks: 4,
			SpillBufferBytes: c.spill, RetryBackoff: time.Millisecond},
	}
	if c.sj {
		job.SemiJoin = &SemiJoin{Build: c.buildInput, Field: "k"}
	}
	res, err := NewScheduler(4).Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := ReadKVFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pairs {
		got = append(got, p.Key.Str()+"="+p.Value.D.Str())
	}
	return got, res.Counters
}

// innerPairs keeps the pairs of an unfiltered run whose key the build
// side emits: what a semi-join must output, in the same order.
func innerPairs(all []string, build []*serde.Record) []string {
	keys := map[string]bool{}
	for _, r := range build {
		keys[r.Get("k").Str()] = true
	}
	var out []string
	for _, p := range all {
		if keys[p[:strings.IndexByte(p, '=')]] {
			out = append(out, p)
		}
	}
	return out
}

func manyKeys(prefix string, n, mod int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%03d", prefix, i%mod)
	}
	return out
}

// TestSemiJoinDropsUnmatchedProbeRows: with either input as the build
// side, a semi-join outputs exactly the unfiltered job's groups that hold
// a build-side value, with their values in the same order (map tasks keep
// their indexes across the two waves), and counts what it did.
func TestSemiJoinDropsUnmatchedProbeRows(t *testing.T) {
	build := sideRecords("b", manyKeys("k", 40, 20)...)                       // k000..k019, twice each
	probe := sideRecords("p", append(manyKeys("k", 90, 30), "zz", "k005")...) // k000..k029, 3× each; zz unmatched
	for _, bi := range []int{0, 1} {
		t.Run(fmt.Sprintf("build input %d", bi), func(t *testing.T) {
			all, _ := runSemiJoin(t, semiJoinCase{build: build, probe: probe, buildInput: bi})
			got, ctr := runSemiJoin(t, semiJoinCase{build: build, probe: probe, buildInput: bi, sj: true})
			want := innerPairs(all, build)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("semi-join output:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			if n := ctr.Get(CtrSemiJoinKeys); n != 20 {
				t.Errorf("%s = %d, want 20", CtrSemiJoinKeys, n)
			}
			// k020..k029 three times each, and zz.
			if n := ctr.Get(CtrRowsFiltered); n != 31 {
				t.Errorf("%s = %d, want 31", CtrRowsFiltered, n)
			}
			if n := ctr.Get(CtrMapInputRecords); n != int64(len(build)+len(probe)-31) {
				t.Errorf("%s = %d, want %d", CtrMapInputRecords, n, len(build)+len(probe)-31)
			}
		})
	}
}

// TestSemiJoinFallsBackOverBudget: a key set larger than the spill budget
// is dropped, and the probe wave runs unfiltered.
func TestSemiJoinFallsBackOverBudget(t *testing.T) {
	build := sideRecords("b", manyKeys("k", 40, 20)...)
	probe := sideRecords("p", manyKeys("k", 60, 30)...)
	all, _ := runSemiJoin(t, semiJoinCase{build: build, probe: probe, spill: 256})
	got, ctr := runSemiJoin(t, semiJoinCase{build: build, probe: probe, sj: true, spill: 256})
	if strings.Join(got, "\n") != strings.Join(all, "\n") {
		t.Fatalf("fallback output differs from the unfiltered job's:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(all, "\n"))
	}
	if ctr.Get(CtrSemiJoinFallback) != 1 || ctr.Get(CtrSemiJoinKeys) != 0 || ctr.Get(CtrRowsFiltered) != 0 {
		t.Errorf("fallback %d, keys %d, prefiltered %d; want 1, 0, 0", ctr.Get(CtrSemiJoinFallback),
			ctr.Get(CtrSemiJoinKeys), ctr.Get(CtrRowsFiltered))
	}
}

// ghostMapper is a build-side Mapper whose first instance — one attempt
// of one task — also emits the key "ghost" and then fails or straggles.
// Only a later attempt of that task may commit, so "ghost" must never
// reach the key set: if it did, the probe row keyed "ghost" would survive
// the filter and listReducer would output it.
type ghostMapper struct {
	ghost    bool
	straggle bool
	emitted  bool
}

var errFlaky = errors.New("flaky build-side attempt")

func (m *ghostMapper) Map(key serde.Datum, rec *serde.Record, ctx *interp.Context) error {
	if m.ghost && !m.emitted {
		m.emitted = true
		if err := ctx.Emit(serde.String("ghost"), interp.EmitValue{D: serde.String("g")}); err != nil {
			return err
		}
		if !m.straggle {
			return errFlaky
		}
		time.Sleep(400 * time.Millisecond) // a speculative duplicate wins meanwhile
	}
	return keyedMapper{}.Map(key, rec, ctx)
}

func TestSemiJoinRolledBackKeysNeverReachSet(t *testing.T) {
	build := sideRecords("b", manyKeys("k", 40, 20)...)
	probe := sideRecords("p", append(manyKeys("k", 60, 30), "ghost")...)
	for _, straggle := range []bool{false, true} {
		name := map[bool]string{false: "failed attempt", true: "speculative loser"}[straggle]
		t.Run(name, func(t *testing.T) {
			var built atomic.Int32
			factory := func() (Mapper, error) {
				return &ghostMapper{ghost: built.Add(1) == 1, straggle: straggle}, nil
			}
			all, _ := runSemiJoin(t, semiJoinCase{build: build, probe: probe})
			got, ctr := runSemiJoin(t, semiJoinCase{build: build, probe: probe, sj: true, buildMapper: factory})
			if want := innerPairs(all, build); strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("output:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			if n := ctr.Get(CtrSemiJoinKeys); n != 20 {
				t.Errorf("%s = %d, want 20", CtrSemiJoinKeys, n)
			}
			retried, spec := ctr.Get(CtrTasksRetried), ctr.Get(CtrTasksSpeculative)
			if (!straggle && retried == 0) || (straggle && spec == 0) {
				t.Errorf("no build-side attempt was rolled back (retried %d, speculative %d)", retried, spec)
			}
		})
	}
}

// TestSemiJoinIntKeys: an int64 join field filters the same way.
func TestSemiJoinIntKeys(t *testing.T) {
	s := newKeySet(1 << 20)
	for _, n := range []int64{3, 5, 3} {
		s.add(serde.Int(n))
	}
	schema := serde.MustSchema(serde.Field{Name: "id", Kind: serde.KindInt64})
	var b serde.Batch
	b.Reset(schema, 6, 0)
	col := b.Col(0)
	col.Resize(serde.KindInt64, 6)
	copy(col.Ints(), []int64{1, 3, 4, 5, 3, 9})
	b.SetDecoded(0)
	b.SelectAll()
	if dropped := narrow(&b, "id", s); dropped != 3 || fmt.Sprint(b.Sel()) != "[1 3 4]" {
		t.Errorf("dropped %d, kept rows %v; want 3, [1 3 4]", dropped, b.Sel())
	}
	if s.len() != 2 {
		t.Errorf("set holds %d keys, want 2", s.len())
	}
}

// TestKeySetMerge: a merge counts each distinct key once, and a set that
// is over its limit, or goes over it by merging, drops every key.
func TestKeySetMerge(t *testing.T) {
	a, b := newKeySet(1<<10), newKeySet(1<<10)
	for _, k := range []serde.Datum{serde.String("x"), serde.String("y"), serde.Int(1)} {
		a.add(k)
	}
	for _, k := range []serde.Datum{serde.String("y"), serde.String("zz"), serde.Int(1), serde.Int(2)} {
		b.add(k)
	}
	a.merge(b)
	if a.over || a.len() != 5 || a.bytes != 5*keyEntryBytes+4 {
		t.Fatalf("merged set: over %v, %d keys, %d bytes; want 5 keys, %d bytes", a.over, a.len(), a.bytes, 5*keyEntryBytes+4)
	}
	small := newKeySet(3 * keyEntryBytes)
	small.add(serde.Int(7))
	if small.merge(a); !small.over || small.len() != 0 {
		t.Errorf("a merge past the limit kept %d keys (over %v)", small.len(), small.over)
	}
	full := newKeySet(1 << 10)
	full.add(serde.Int(7))
	full.merge(small)
	if !full.over || full.len() != 0 {
		t.Errorf("merging a dropped set kept %d keys (over %v)", full.len(), full.over)
	}
}
