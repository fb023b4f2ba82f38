package mapreduce

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"manimal/internal/interp"
	"manimal/internal/lang"
	"manimal/internal/serde"
)

// sumCombineProgram's Combine is the int64 sum the analyzer recognizes.
const sumCombineProgram = `
func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(k, 1)
}

func Combine(key Datum, values *Iter, ctx *Ctx) {
	sum := 0
	for values.Next() {
		sum = sum + values.Int()
	}
	ctx.Emit(key, sum)
}
`

// interpCombiner runs a program's Combine through the interpreter, as
// package fabric's combiners do.
type interpCombiner struct{ ex *interp.Executor }

func (c interpCombiner) Reduce(key serde.Datum, values interp.ValueIter, ctx *interp.Context) error {
	return c.ex.InvokeCombine(key, values, ctx)
}

// foldingCombiner is the same Combine marked as a SumCombiner.
type foldingCombiner struct{ interpCombiner }

func (foldingCombiner) FoldsInt64Sum() {}

// sumCombinerFactory builds sumCombineProgram's Combine, marked for
// folding when fold is set.
func sumCombinerFactory(t testing.TB, fold bool) ReducerFactory {
	p, err := lang.Parse(sumCombineProgram)
	if err != nil {
		t.Fatal(err)
	}
	return func() (Reducer, error) {
		ex, err := interp.New(p)
		if err != nil {
			return nil, err
		}
		if fold {
			return foldingCombiner{interpCombiner{ex}}, nil
		}
		return interpCombiner{ex}, nil
	}
}

// digestCombiner is a Combine the fold never takes: across all its calls
// it counts the keys it was given, and for each it emits, under the key's
// bytes reversed — an order a spill must re-sort — the key's ordinal and a
// digest of its values' encodings in the order the iterator yielded them,
// plus, for a key with more than one value, the value count under the key
// itself. So its output shows which keys it saw, in what order, and which
// values each had.
type digestCombiner struct{ calls int64 }

func (c *digestCombiner) Reduce(key serde.Datum, values interp.ValueIter, ctx *interp.Context) error {
	c.calls++
	h := fnv.New32a()
	n := int64(0)
	for values.Next() {
		h.Write(encodeValue(values.Value(), nil))
		n++
	}
	k := []byte(key.Str())
	slices.Reverse(k)
	if err := ctx.Emit(serde.String(string(k)), interp.EmitValue{D: serde.Int(c.calls<<32 | int64(h.Sum32()))}); err != nil {
		return err
	}
	if n > 1 {
		return ctx.Emit(key, interp.EmitValue{D: serde.Int(n)})
	}
	return nil
}

// foldOutcome is everything observable of one emitter's run.
type foldOutcome struct {
	images  [][]byte
	spans   [][]span
	merged  []string // per partition, its merged keys with their summed values
	records int64
	bytes   int64
	spills  int64
	err     string
}

// foldRun is one fuzz-drawn map task's output: its emits, interleaved
// with explicit spills (spill[i] true spills before emit i).
type foldRun struct {
	parts     int
	part      Partitioner
	threshold int
	keys      []serde.Datum
	values    []interp.EmitValue
	spill     []bool
}

// execute runs r through a map task whose combiner comb builds: one that
// folds when comb's combiners are SumCombiners, one that chains otherwise.
func (r *foldRun) execute(t *testing.T, comb ReducerFactory) foldOutcome {
	t.Helper()
	ctrs := NewCounters()
	se := newShuffleEmitter(0, 0, r.parts, t.TempDir(), r.threshold, comb, ctrs, nil, r.part)
	defer se.discard()
	emit, err := se.emitter()
	if err != nil {
		t.Fatal(err)
	}
	_, fold := se.combInst.(SumCombiner)
	if se.folding != fold {
		t.Fatalf("emitter folding = %v, want %v", se.folding, fold)
	}
	return r.outcome(t, se, ctrs, func(i int) error {
		if r.spill[i] {
			if err := se.spill(); err != nil {
				return err
			}
		}
		return emit(r.keys[i], r.values[i])
	}, se.spill)
}

// reference runs r through the no-Combine path — pairs in the slab, sorted
// by partBuf.sort — and runs comb's combiner over each run of equal keys
// in the sorted pairs, re-sorting its output: the grouping a Combine must
// see, built without combTable. It spills where a chaining task spills, at
// r's explicit spills and once the pairs' bytes reach r.threshold.
func (r *foldRun) reference(t *testing.T, comb ReducerFactory) foldOutcome {
	t.Helper()
	ctrs := NewCounters()
	se := newShuffleEmitter(0, 0, r.parts, t.TempDir(), 1<<30, nil, ctrs, nil, r.part)
	defer se.discard()
	c, err := comb()
	if err != nil {
		t.Fatal(err)
	}
	spill := func() error {
		ctrs.Add(CtrMapOutputRecords, se.pendRecords)
		ctrs.Add(CtrMapOutputBytes, se.pendBytes)
		se.pendRecords, se.pendBytes, se.bytes = 0, 0, 0
		var image []byte
		spans := make([]span, r.parts)
		for p := range se.parts {
			pb := &se.parts[p]
			pb.sort()
			var out partBuf
			var enc valueEncoder
			ctx := &interp.Context{Emit: func(key serde.Datum, value interp.EmitValue) error {
				out.append(key.SortKey(), value, &enc)
				return nil
			}}
			for i := 0; i < len(pb.idx); {
				j := i + 1
				for j < len(pb.idx) && bytes.Equal(pb.key(pb.idx[i]), pb.key(pb.idx[j])) {
					j++
				}
				key, _, err := serde.DecodeSortKey(pb.key(pb.idx[i]))
				if err != nil {
					t.Fatal(err)
				}
				it := &runIter{pb: pb, run: pb.idx[i:j]}
				if err := c.Reduce(key, it, ctx); err != nil {
					return err
				}
				if it.err != nil {
					return it.err
				}
				i = j
			}
			out.sort()
			if off := len(image); len(out.idx) > 0 {
				image = out.appendRun(image)
				spans[p] = span{off: int64(off), n: int64(len(image) - off)}
			}
			pb.reset()
		}
		if len(image) == 0 {
			return nil
		}
		sf, err := newSpill(filepath.Join(t.TempDir(), fmt.Sprintf("ref%03d.spill", len(se.files))), image, spans)
		if err != nil {
			t.Fatal(err)
		}
		se.files = append(se.files, sf)
		ctrs.Add(CtrSpills, 1)
		return nil
	}
	return r.outcome(t, se, ctrs, func(i int) error {
		if r.spill[i] {
			if err := spill(); err != nil {
				return err
			}
		}
		if err := se.emit(r.keys[i], r.values[i]); err != nil {
			return err
		}
		if se.bytes >= r.threshold {
			return spill()
		}
		return nil
	}, spill)
}

// runIter iterates the values of one run of equal keys in a sorted
// partBuf.
type runIter struct {
	pb  *partBuf
	run []slabEntry
	cur interp.EmitValue
	err error
}

func (it *runIter) Next() bool {
	if it.err != nil || len(it.run) == 0 {
		return false
	}
	e := it.run[0]
	it.run = it.run[1:]
	it.cur, _, it.err = decodeValue(it.pb.slab[e.off+int64(e.klen) : e.off+int64(e.klen)+int64(e.vlen)])
	return it.err == nil
}

func (it *runIter) Value() interp.EmitValue { return it.cur }

// outcome makes emit(i) for each of r's emits, then a final spill, and
// collects what se's spills and ctrs show.
func (r *foldRun) outcome(t *testing.T, se *shuffleEmitter, ctrs *Counters, emit func(i int) error, spill func() error) foldOutcome {
	t.Helper()
	var out foldOutcome
	err := func() error {
		for i := range r.keys {
			if err := emit(i); err != nil {
				return err
			}
		}
		return spill()
	}()
	if err != nil {
		out.err = err.Error()
		return out
	}
	for _, sf := range se.files {
		out.images = append(out.images, append([]byte(nil), *sf.mem.Load()...))
		out.spans = append(out.spans, sf.parts)
	}
	for p := 0; p < r.parts; p++ {
		m, err := newMergeIter(se.files, p)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		for m.nextGroup() {
			var sum int64
			for m.nextValue() {
				sum += m.curVal.D.Int()
			}
			fmt.Fprintf(&b, "%x=%d ", m.groupKey, sum)
		}
		m.closeAll()
		if m.err != nil {
			t.Fatal(m.err)
		}
		out.merged = append(out.merged, b.String())
	}
	out.records = ctrs.Get(CtrMapOutputRecords)
	out.bytes = ctrs.Get(CtrMapOutputBytes)
	out.spills = ctrs.Get(CtrSpills)
	return out
}

// sameOutcome fails t unless got and want have the same error, pair
// counters and merged partitions and — when spills is set — the same
// spills, byte for byte.
func sameOutcome(t *testing.T, name string, got, want foldOutcome, spills bool) {
	t.Helper()
	if got.err != want.err {
		t.Fatalf("%s: error %q, reference %q", name, got.err, want.err)
	}
	if got.records != want.records || got.bytes != want.bytes {
		t.Fatalf("%s: counted %d pairs / %d bytes, reference %d / %d", name, got.records, got.bytes, want.records, want.bytes)
	}
	if fmt.Sprint(got.merged) != fmt.Sprint(want.merged) {
		t.Fatalf("%s: merged partitions differ:\ngot       %q\nreference %q", name, got.merged, want.merged)
	}
	if !spills {
		return
	}
	if got.spills != want.spills || len(got.images) != len(want.images) {
		t.Fatalf("%s: %d spills, reference %d", name, got.spills, want.spills)
	}
	for i := range got.images {
		if !bytes.Equal(got.images[i], want.images[i]) || fmt.Sprint(got.spans[i]) != fmt.Sprint(want.spans[i]) {
			t.Fatalf("%s: spill %d differs:\ngot       %x %v\nreference %x %v", name, i,
				got.images[i], got.spans[i], want.images[i], want.spans[i])
		}
	}
}

// foldRangeBounds are the interior cut keys a fuzz-drawn RangePartitioner
// takes its first parts-1 of.
var foldRangeBounds = [][]byte{
	serde.String("\x00a").SortKey(),
	serde.String("a").SortKey(),
	serde.String("b\x00").SortKey(),
}

// drawFoldRun decodes a fuzz input: data[0] picks the partition count and
// the partitioner, data[1] explicit spills under an unbounded buffer or a
// tiny buffer, data[2] the kind of the non-int values, and each later byte
// pair one emit — a key of up to three bytes from {0x00, 'a', 'b', 0xFF}
// and a value that is occasionally MinInt64, MaxInt64 or not an int — or,
// under explicit spills, a spill.
func drawFoldRun(data []byte) *foldRun {
	if len(data) < 3 {
		return nil
	}
	r := &foldRun{parts: 1 + int(data[0]%4), part: HashPartitioner{}, threshold: 1 << 30}
	if data[0]&4 != 0 {
		r.part = &RangePartitioner{Bounds: foldRangeBounds[:r.parts-1]}
	}
	explicit := data[1]&1 == 0
	if !explicit {
		r.threshold = 1 + int(data[1]>>1)
	}
	rec := serde.NewRecord(wordSchema)
	rec.MustSet("text", serde.String("a record"))
	nonInt := []interp.EmitValue{{D: serde.String("x")}, {D: serde.Float(1.5)}, {Rec: rec}, {D: serde.Bool(true)}}[int(data[2])%4]
	spillNext := false
	for ops := data[3:]; len(ops) >= 2; ops = ops[2:] {
		kb, vb := ops[0], ops[1]
		if explicit && kb == 0xFE {
			spillNext = true
			continue
		}
		key := make([]byte, kb&3)
		for i := range key {
			key[i] = []byte{0x00, 'a', 'b', 0xFF}[(kb>>(2+2*i))&3]
		}
		var v interp.EmitValue
		switch vb % 32 {
		case 31:
			v = nonInt
		case 0:
			v.D = serde.Int(math.MinInt64)
		case 1:
			v.D = serde.Int(math.MaxInt64)
		case 2:
			v.D = serde.Int(math.MaxInt64 - int64(vb))
		default:
			v.D = serde.Int(int64(vb) - 100)
		}
		r.keys = append(r.keys, serde.String(string(key)))
		r.values = append(r.values, v)
		r.spill = append(r.spill, spillNext)
		spillNext = false
	}
	return r
}

// FuzzFoldMatchesCombine: a map task with a Combine gives what the
// reference — sorted pairs, then the Combine over each run of equal keys —
// gives. A chaining task, under the interpreted sum Combine or under
// digestCombiner, spills where the reference spills, and its spill images,
// spans, counters and error are byte-equal to the reference's. A folding
// task matches it the same way under explicit spills; under a tiny buffer,
// where a fold spills later and less often, its merged partitions, pair
// counters and error do. A non-int value fails the sum every way with the
// same error.
func FuzzFoldMatchesCombine(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 5, 2, 7, 1, 5, 0xFE, 0, 3, 1})
	f.Add([]byte{3, 0, 1, 0x05, 0, 0x09, 1, 0x0d, 200, 0xFE, 0, 0x05, 0x1f, 0x09, 3})
	f.Add([]byte{7, 1, 2, 0x03, 9, 0x17, 40, 0x2b, 1, 0x03, 0, 0x3f, 0x1f, 0x17, 5})
	f.Add([]byte{6, 9, 3, 0x01, 0, 0x01, 0, 0x02, 1, 0x07, 2, 0x01, 77, 0x02, 31})
	f.Add([]byte{1, 40, 0, 0x05, 4, 0x09, 6, 0x0d, 8, 0x11, 10, 0x15, 12, 0x19, 14, 0x05, 16})
	f.Add([]byte{0, 0, 0, 0x26, 5, 0x1a, 6, 0x26, 7, 0x05, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := drawFoldRun(data)
		if r == nil {
			return
		}
		digest := func() (Reducer, error) { return &digestCombiner{}, nil }
		sum := r.reference(t, sumCombinerFactory(t, false))
		sameOutcome(t, "fold", r.execute(t, sumCombinerFactory(t, true)), sum, r.threshold == 1<<30)
		sameOutcome(t, "chained sum", r.execute(t, sumCombinerFactory(t, false)), sum, true)
		sameOutcome(t, "chained digest", r.execute(t, digest), r.reference(t, digest), true)
	})
}

// TestFoldEmitAllocs: once a folding task's slabs and tables are warm,
// emitting allocates nothing — neither adding to a key's running sum nor
// inserting a key the fold has not seen since its last spill.
func TestFoldEmitAllocs(t *testing.T) {
	se := newShuffleEmitter(0, 0, 4, t.TempDir(), 1<<30, sumCombinerFactory(t, true), NewCounters(), nil, HashPartitioner{})
	defer se.discard()
	emit, err := se.emitter()
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]serde.Datum, 4096)
	for i := range keys {
		keys[i] = serde.String(fmt.Sprintf("http://host-%04d/", i))
	}
	one := interp.EmitValue{D: serde.Int(1)}
	// Warm the tables and slabs to every key, then empty them as a spill
	// does, keeping their capacity.
	for _, k := range keys {
		if err := emit(k, one); err != nil {
			t.Fatal(err)
		}
	}
	clearFold := func() {
		for p := range se.parts {
			se.tables[p].reset()
			se.parts[p].reset()
		}
		se.bytes = 0
	}
	clearFold()
	next := 0
	misses := testing.AllocsPerRun(len(keys)-1, func() {
		if err := emit(keys[next], one); err != nil {
			t.Fatal(err)
		}
		next++
	})
	hits := testing.AllocsPerRun(4096, func() {
		if err := emit(keys[next%64], one); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if !se.folding {
		t.Fatal("the task unfolded")
	}
	if misses > 0.01 || hits > 0.01 {
		t.Fatalf("a folding emit allocates %.3f objects on a new key, %.3f on a seen one; want 0", misses, hits)
	}
}

// TestFoldJobMatchesCombine: a whole job whose combiner folds writes the
// same output and the same counters as with the interpreted Combine, with
// and without mid-task spills, and a job that emits a non-int value fails
// the same way both ways.
func TestFoldJobMatchesCombine(t *testing.T) {
	lines := make([]string, 500)
	for i := range lines {
		lines[i] = fmt.Sprintf("w%02d w%02d x\x00%d", i%41, (i*7)%53, i%5)
	}
	run := func(fold bool, cfg Config, mapper Mapper) ([]byte, *Counters, error) {
		in, err := NewMemInput(wordSchema, textRecords(lines...))
		if err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(t.TempDir(), "out.kv")
		kv, err := NewKVFileOutput(out)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(&Job{
			Name:     "fold",
			Inputs:   []MapInput{{Input: in, Mapper: func() (Mapper, error) { return mapper, nil }}},
			Reducer:  func() (Reducer, error) { return sumReducer{}, nil },
			Combiner: sumCombinerFactory(t, fold),
			Output:   kv,
			Config:   cfg,
		})
		if err != nil {
			return nil, nil, err
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return raw, res.Counters, nil
	}
	for _, spill := range []int{0, 160} {
		t.Run(fmt.Sprintf("spill-%d", spill), func(t *testing.T) {
			cfg := Config{WorkDir: t.TempDir(), NumReducers: 3, MaxParallelTasks: 2, SpillBufferBytes: spill}
			folded, fc, err := run(true, cfg, wordCountMapper{})
			if err != nil {
				t.Fatal(err)
			}
			grouped, gc, err := run(false, cfg, wordCountMapper{})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(folded, grouped) {
				t.Fatalf("folded output (%d bytes) differs from the combined one (%d bytes)", len(folded), len(grouped))
			}
			for _, name := range []string{CtrMapOutputRecords, CtrMapOutputBytes, CtrReduceInputGroups, CtrOutputRecords} {
				if fc.Get(name) != gc.Get(name) {
					t.Errorf("%s: fold %d, combined %d", name, fc.Get(name), gc.Get(name))
				}
			}
			if spill == 0 && fc.Get(CtrReduceInputRecords) != gc.Get(CtrReduceInputRecords) {
				t.Errorf("reduce input records: fold %d, combined %d", fc.Get(CtrReduceInputRecords), gc.Get(CtrReduceInputRecords))
			}
		})
	}
	// One task at a time and no retries: the first task fails first.
	cfg := Config{WorkDir: t.TempDir(), NumReducers: 3, MaxParallelTasks: 1, MaxTaskRetries: -1}
	_, _, ferr := run(true, cfg, paddedWordMapper{pad: 3})
	_, _, gerr := run(false, cfg, paddedWordMapper{pad: 3})
	if ferr == nil || gerr == nil || ferr.Error() != gerr.Error() {
		t.Fatalf("a string value: fold error %v, combined error %v; want the same error", ferr, gerr)
	}
}
