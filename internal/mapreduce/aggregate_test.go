package mapreduce

import (
	"fmt"
	"math"
	"testing"

	"manimal/internal/analyzer"
	"manimal/internal/compress"
	"manimal/internal/interp"
	"manimal/internal/serde"
)

// aggSchema is the aggregate kernel tests' input: a string or
// dictionary-coded key k, an int key n and an int value v.
var aggSchema = serde.MustSchema(
	serde.Field{Name: "k", Kind: serde.KindString},
	serde.Field{Name: "n", Kind: serde.KindInt64},
	serde.Field{Name: "v", Kind: serde.KindInt64},
)

// aggRow is one input row; code is k's dictionary code in a coded batch.
type aggRow struct {
	k    string
	code int64
	n, v int64
	sel  bool
}

// aggCase is one map task of an Aggregate Map: its batches, and the
// shuffle they fold into.
type aggCase struct {
	agg       *analyzer.AggregateDescriptor
	terms     int // > 0: k is a column of dictionary codes over terms terms
	batches   [][]aggRow
	parts     int
	part      Partitioner
	threshold int
}

// batch builds b's column vectors from rows. A coded key column carries
// codes only, as a CodesOnly scan leaves it.
func (c *aggCase) batch(b *serde.Batch, rows []aggRow) {
	b.Reset(aggSchema, len(rows), 0)
	if c.terms > 0 {
		codes := b.Col(0).ResizeCodes(len(rows), c.terms)
		for i, r := range rows {
			codes[i] = r.code
		}
	} else {
		strs := b.Col(0).ResizeStrs(len(rows))
		for i, r := range rows {
			strs[i] = r.k
		}
	}
	ns, vs := b.Col(1).ResizeInts(len(rows)), b.Col(2).ResizeInts(len(rows))
	var sel []int32
	for i, r := range rows {
		ns[i], vs[i] = r.n, r.v
		if r.sel {
			sel = append(sel, int32(i))
		}
	}
	for f := 0; f < 3; f++ {
		b.SetDecoded(f)
	}
	b.SetSel(sel)
}

// pairs is what the Map emits for c's selected rows, as the interpreter
// computes them: the key datum — a coded key's code string — and the value.
func (c *aggCase) pairs() *foldRun {
	r := &foldRun{parts: c.parts, part: c.part, threshold: c.threshold}
	for _, rows := range c.batches {
		for _, row := range rows {
			if !row.sel {
				continue
			}
			var key serde.Datum
			switch {
			case c.agg.KeyKind == serde.KindInt64 && c.agg.Div != 0:
				key = serde.Int(row.n / c.agg.Div)
			case c.agg.KeyKind == serde.KindInt64:
				key = serde.Int(row.n)
			case c.terms > 0:
				key = serde.String(compress.CodeString(uint64(row.code)))
			default:
				key = serde.String(row.k)
			}
			v := c.agg.Const
			if c.agg.Value != "" {
				v = row.v
			}
			r.keys = append(r.keys, key)
			r.values = append(r.values, interp.EmitValue{D: serde.Int(v)})
			r.spill = append(r.spill, false)
		}
	}
	return r
}

// kernel runs c's batches through the aggregate kernel of a folding task.
func (c *aggCase) kernel(t *testing.T) foldOutcome {
	t.Helper()
	ctrs := NewCounters()
	se := newShuffleEmitter(0, 0, c.parts, t.TempDir(), c.threshold, sumCombinerFactory(t, true), ctrs, nil, c.part)
	defer se.discard()
	if _, err := se.emitter(); err != nil {
		t.Fatal(err)
	}
	k := &aggKernel{agg: c.agg, se: se}
	var b serde.Batch
	per := &foldRun{parts: c.parts, keys: make([]serde.Datum, len(c.batches))}
	return per.outcome(t, se, ctrs, func(i int) error {
		c.batch(&b, c.batches[i])
		return k.MapBatch(&b, nil)
	}, se.spill)
}

// check fails t unless the kernel's spills, spans and counters are
// byte-equal to emit's over the same pairs.
func (c *aggCase) check(t *testing.T, name string) {
	t.Helper()
	want := c.pairs().execute(t, sumCombinerFactory(t, true))
	if want.err != "" {
		t.Fatalf("%s: emit failed: %s", name, want.err)
	}
	sameOutcome(t, name, c.kernel(t), want, true)
}

// aggDivisors are the drawn key divisors, the wrapping MinInt64 / -1
// included.
var aggDivisors = []int64{1, -1, 7, -3, 86400, math.MaxInt64, math.MinInt64}

// drawAggCase decodes a fuzz input: data[0] picks the partition count and
// partitioner, data[1] an unbounded or tiny spill buffer, data[2] the
// key shape — string, int, int divided by a drawn divisor, or dictionary
// codes over 1–8 terms — and a field or constant value, and each later
// byte pair one row: its key, value and selection. Every fifth row starts
// a new batch. Coded keys reach one code past the dictionary, as a
// corrupt file's can.
func drawAggCase(data []byte) *aggCase {
	if len(data) < 3 {
		return nil
	}
	c := &aggCase{parts: 1 + int(data[0]%4), part: HashPartitioner{}, threshold: 1 << 30}
	if data[0]&4 != 0 {
		c.part = &RangePartitioner{Bounds: foldRangeBounds[:c.parts-1]}
	}
	if data[1]&1 != 0 {
		c.threshold = 1 + int(data[1]>>1)
	}
	c.agg = &analyzer.AggregateDescriptor{Key: "k", KeyKind: serde.KindString, Value: "v", Const: int64(int8(data[2]))}
	if data[2]&0x80 != 0 {
		c.agg.Value = ""
	}
	switch data[2] & 3 {
	case 1:
		c.agg.Key, c.agg.KeyKind = "n", serde.KindInt64
	case 2:
		c.agg.Key, c.agg.KeyKind = "n", serde.KindInt64
		c.agg.Div = aggDivisors[int(data[2]>>2)%len(aggDivisors)]
	case 3:
		c.terms = 1 + int(data[2]>>2)%8
	}
	var rows []aggRow
	for ops := data[3:]; len(ops) >= 2; ops = ops[2:] {
		kb, vb := ops[0], ops[1]
		key := make([]byte, kb&3)
		for i := range key {
			key[i] = []byte{0x00, 'a', 'b', 0xFF}[(kb>>(2+2*i))&3]
		}
		n := []int64{math.MinInt64, math.MaxInt64, -7, -1, 0, 1, 7, 86400 * 3}[kb%8]
		v := int64(vb&0x3F) - 32
		switch vb & 0x3F {
		case 0:
			v = math.MinInt64
		case 1:
			v = math.MaxInt64
		}
		rows = append(rows, aggRow{k: string(key), code: int64(kb) % int64(c.terms+1), n: n, v: v, sel: vb&0x40 == 0})
		if len(rows) == 5 {
			c.batches, rows = append(c.batches, rows), nil
		}
	}
	if len(rows) > 0 {
		c.batches = append(c.batches, rows)
	}
	return c
}

// FuzzAggregateKernel: random batches and selections folded by the
// aggregate kernel give the spill images, spans and counters that emit
// gives for the pairs the Map makes of the same rows — for string, int,
// divided-int and dense or hashed dictionary-coded keys, with field or
// constant values, under explicit or budget-driven spills.
func FuzzAggregateKernel(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0x01, 5, 0x05, 7, 0x01, 0x45, 0x09, 2, 0x02, 3})
	f.Add([]byte{3, 9, 3, 0x00, 1, 0x01, 2, 0x02, 3, 0x03, 4, 0x00, 5, 0x09, 6})
	f.Add([]byte{7, 1, 0x1f, 0x10, 0, 0x20, 1, 0x30, 2, 0x00, 3, 0x01, 4})
	f.Add([]byte{1, 0, 0x8e, 0x00, 0, 0x01, 1, 0x03, 2, 0x02, 0x40, 0x07, 5})
	f.Add([]byte{2, 5, 0x81, 0x00, 0, 0x01, 1, 0x02, 2, 0x03, 3, 0x04, 4, 0x05, 5})
	f.Add([]byte{0, 3, 0x7f, 0x00, 9, 0x01, 9, 0x02, 9, 0x03, 9, 0x04, 9, 0x05, 9, 0x06, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if c := drawAggCase(data); c != nil {
			c.check(t, "kernel")
		}
	})
}

// TestAggregateKernelEdges: the edge data the kernel must fold exactly as
// the interpreter emits it — negative dividends (truncation toward zero),
// MinInt64 / -1, wrapping MinInt64/MaxInt64 sums, empty strings, keys
// holding 0x00, dictionary code 0, a code past the dictionary, and a code
// space larger than the dense bound — each with one spill and with a
// spill buffer a few keys wide.
func TestAggregateKernelEdges(t *testing.T) {
	wide := []aggRow{
		{k: "", n: -7, v: math.MaxInt64, sel: true},
		{k: "\x00", n: -1, v: 1, sel: true},
		{k: "a\x00b", n: math.MinInt64, v: math.MinInt64, sel: true},
		{k: "", n: 7, v: math.MaxInt64, sel: true},
		{k: "\x00", n: -8, v: -1, sel: false},
		{k: "a\x00b", n: math.MaxInt64, v: math.MinInt64, sel: true},
	}
	codes := []aggRow{{code: 0, v: 5, sel: true}, {code: 3, v: -5, sel: true}, {code: 0, v: math.MaxInt64, sel: true},
		{code: 4, v: 2, sel: true}, {code: 1, v: 9, sel: false}, {code: 0, v: 1, sel: true}}
	for _, tc := range []struct {
		name  string
		agg   analyzer.AggregateDescriptor
		terms int
		rows  []aggRow
	}{
		{"string key", analyzer.AggregateDescriptor{Key: "k", KeyKind: serde.KindString, Value: "v"}, 0, wide},
		{"int key", analyzer.AggregateDescriptor{Key: "n", KeyKind: serde.KindInt64, Value: "v"}, 0, wide},
		{"negative dividends", analyzer.AggregateDescriptor{Key: "n", KeyKind: serde.KindInt64, Div: 2, Value: "v"}, 0, wide},
		{"MinInt64 / -1", analyzer.AggregateDescriptor{Key: "n", KeyKind: serde.KindInt64, Div: -1, Const: -3}, 0, wide},
		{"dense codes", analyzer.AggregateDescriptor{Key: "k", KeyKind: serde.KindString, Value: "v"}, 4, codes},
		{"codes past the dense bound", analyzer.AggregateDescriptor{Key: "k", KeyKind: serde.KindString, Const: 1}, 1 << 28, codes},
	} {
		for _, threshold := range []int{1 << 30, 2 * foldEntryBytes} {
			c := &aggCase{agg: &tc.agg, terms: tc.terms, batches: [][]aggRow{tc.rows, tc.rows}, parts: 3, part: HashPartitioner{}, threshold: threshold}
			if dense := DenseCodes(tc.terms, threshold); tc.name == "codes past the dense bound" && dense {
				t.Fatalf("%d terms fit a %d-byte budget", tc.terms, threshold)
			}
			c.check(t, fmt.Sprintf("%s, threshold %d", tc.name, threshold))
		}
	}
}

// TestAppendCodeKey: a code's sort key, and codeKeyLen's length for it,
// are its code string's, for code 0 (whose uvarint is 0x00), the other
// one-byte codes, multi-byte codes and the widest.
func TestAppendCodeKey(t *testing.T) {
	for _, c := range []uint64{0, 1, 127, 128, 256, 1 << 14, 1 << 21, math.MaxInt64, math.MaxUint64} {
		want := serde.String(compress.CodeString(c)).SortKey()
		if got := appendCodeKey(nil, c); string(got) != string(want) || codeKeyLen(c) != len(want) {
			t.Fatalf("code %d: key %x (length %d), want %x", c, got, codeKeyLen(c), want)
		}
	}
}

// TestAggregateKernelAllocs: once a folding task's tables are warm, the
// kernel allocates nothing per row — for string keys and dense codes, on
// keys the fold holds and on keys it has not seen since its last spill.
func TestAggregateKernelAllocs(t *testing.T) {
	const rows = 1024
	for _, coded := range []bool{false, true} {
		c := &aggCase{agg: &analyzer.AggregateDescriptor{Key: "k", KeyKind: serde.KindString, Value: "v"}, parts: 4, part: HashPartitioner{}, threshold: 1 << 30}
		if coded {
			c.terms = 4 * rows
		}
		se := newShuffleEmitter(0, 0, c.parts, t.TempDir(), c.threshold, sumCombinerFactory(t, true), NewCounters(), nil, c.part)
		if _, err := se.emitter(); err != nil {
			t.Fatal(err)
		}
		k := &aggKernel{agg: c.agg, se: se}
		batches := make([]serde.Batch, 4)
		for i := range batches {
			rs := make([]aggRow, rows)
			for j := range rs {
				id := i*rows + j
				rs[j] = aggRow{k: fmt.Sprintf("http://host-%05d/", id), code: int64(id), v: 1, sel: true}
			}
			c.batch(&batches[i], rs)
		}
		mapAll := func() {
			for i := range batches {
				if err := k.MapBatch(&batches[i], nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Warm every key, then empty the fold as a spill does, keeping
		// the tables' and the dense array's capacity.
		mapAll()
		clearFold := func() {
			se.flushCodes()
			for p := range se.parts {
				se.tables[p].reset()
				se.parts[p].reset()
			}
			se.bytes = 0
		}
		clearFold()
		misses := testing.AllocsPerRun(2, func() {
			clearFold()
			mapAll()
		})
		hits := testing.AllocsPerRun(4, mapAll)
		if perRow := (misses + hits) / (4 * rows); perRow > 0.001 {
			t.Fatalf("coded %v: the kernel allocates %.1f objects per pass of new keys, %.1f per pass of seen ones; want 0", coded, misses, hits)
		}
		se.discard()
	}
}
