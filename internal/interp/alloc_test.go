package interp

import (
	"strings"
	"testing"
	"unsafe"

	"manimal/internal/lang"
	"manimal/internal/serde"
)

// mapAllocs returns the allocations of one warm Map invocation of src over
// rec, with a discarding emitter.
func mapAllocs(t *testing.T, src string, conf map[string]serde.Datum, rec *serde.Record) float64 {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ex, err := New(p)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	emitted := 0
	ctx := &Context{Conf: conf, Emit: func(serde.Datum, EmitValue) error { emitted++; return nil }}
	key := serde.Int(0)
	invoke := func() {
		if err := ex.InvokeMap(key, rec, ctx); err != nil {
			t.Fatal(err)
		}
	}
	invoke() // warm the frame stack and the argument stack
	allocs := testing.AllocsPerRun(2000, invoke)
	if emitted == 0 {
		t.Fatal("mapper never emitted: the measured path is not the intended one")
	}
	return allocs
}

// TestCallAllocs pins the package doc's "allocates nothing on the happy
// path" for calls: builtin and helper arguments travel over the executor's
// argument stack and helper activations reuse the frame stack, so neither
// kind of call — nor a call nested in another's argument list, nor
// recursion — allocates once warm.
func TestCallAllocs(t *testing.T) {
	rec := record("http://example.com/x", 7000, 0.5, true)
	conf := map[string]serde.Datum{"threshold": serde.Int(5000)}
	for name, src := range map[string]string{
		"builtin": `
func Map(k, v *Record, ctx *Ctx) {
	if strings.HasPrefix(v.Str("url"), "http") {
		ctx.Emit(k, max(v.Int("rank"), 1, len(v.Str("url"))))
	}
}`,
		"helper": `
func hot(r *Record, t int64) bool {
	return r.Int("rank") > t
}

func Map(k, v *Record, ctx *Ctx) {
	if hot(v, ctx.ConfInt("threshold")) {
		ctx.Emit(v.Str("url"), v.Int("rank"))
	}
}`,
		"nested-recursive": `
func gcd(a int64, b int64) int64 {
	if b == 0 {
		return a
	}
	return gcd(b, a%b)
}

func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(k, gcd(v.Int("rank"), gcd(min(v.Int("rank"), 4200), ctx.ConfInt("threshold"))))
}`,
	} {
		if allocs := mapAllocs(t, src, conf, rec); allocs != 0 {
			t.Errorf("%s: %.2f allocs per record; want 0", name, allocs)
		}
	}

	// Map indexing encodes its key into the executor's scratch buffer
	// (Executor.mapKey): a read allocates nothing, a store only the key
	// string the Go map keeps. A Map body can only get a map from make,
	// which allocates, so the pin is on what 64 more reads or stores add to
	// one invocation of the same program.
	const indexing = `
func Map(k, v *Record, ctx *Ctx) {
	seen := make(map[string]bool)
	seen[v.Str("url")] = true
	hits := 0
	for i := 0; i < ctx.ConfInt("reads"); i++ {
		_, ok := seen[v.Str("url")]
		if ok && seen[v.Str("url")] {
			hits++
		}
	}
	for j := 0; j < ctx.ConfInt("stores"); j++ {
		seen[v.Str("url")] = true
	}
	ctx.Emit(k, hits)
}`
	indexAllocs := func(reads, stores int64) float64 {
		return mapAllocs(t, indexing, map[string]serde.Datum{"reads": serde.Int(reads), "stores": serde.Int(stores)}, rec)
	}
	base := indexAllocs(0, 0)
	if extra := indexAllocs(64, 0) - base; extra != 0 {
		t.Errorf("map-read: 128 map reads add %.2f allocs per record; want 0", extra)
	}
	if extra := indexAllocs(0, 64) - base; extra > 64 {
		t.Errorf("map-store: 64 map stores add %.2f allocs per record; want <= 64 (the stored key string)", extra)
	}
}

// TestRangeListAllocs pins lists as the []string strings.Fields returns,
// not a copy boxed element by element: ranging over Fields allocates what
// Fields does, once per call whatever the word count, and a list held in a
// variable adds only the one box the variable needs.
func TestRangeListAllocs(t *testing.T) {
	for name, tc := range map[string]struct {
		src  string
		want float64
	}{
		"direct": {`
func Map(k, v *Record, ctx *Ctx) {
	n := 0
	for _, w := range strings.Fields(v.Str("url")) {
		if strings.HasPrefix(w, "http://") {
			n = n + len(w)
		}
	}
	ctx.Emit(k, n)
}`, 1},
		"variable": {`
func Map(k, v *Record, ctx *Ctx) {
	words := strings.Fields(v.Str("url"))
	for i, w := range words {
		if strings.HasPrefix(w, "http://") {
			ctx.Emit(i, len(words))
		}
	}
}`, 2},
	} {
		for _, words := range []int{1, 8, 170} {
			rec := record(strings.TrimSpace(strings.Repeat("http://example.com/x ", words)), 1, 0, true)
			if got := mapAllocs(t, tc.src, nil, rec); got != tc.want {
				t.Errorf("%s, %d words: %.2f allocs per record; want %.0f", name, words, got, tc.want)
			}
		}
	}
}

// TestMapBatchAllocs pins the batch door over the aggregation shape —
// ctx.Emit(field, field), every row emitting — at zero allocations per row:
// the frame is set up once per batch and both operands go from the column
// vectors to the emitter without a record or a Value in between.
func TestMapBatchAllocs(t *testing.T) {
	p, err := lang.Parse(`
func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(v.Str("url"), v.Int("rank"))
}`)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 512
	recs := make([]*serde.Record, rows)
	for i := range recs {
		recs[i] = record("http://example.com/x", int64(i), 0.5, true)
	}
	var b serde.Batch
	fillBatch(&b, testSchema, recs, 0, nil)
	emitted := 0
	ctx := &Context{Emit: func(serde.Datum, EmitValue) error { emitted++; return nil }}
	invoke := func() {
		if err := ex.InvokeMapBatch(&b, ctx); err != nil {
			t.Fatal(err)
		}
	}
	invoke() // warm the frame stack
	if allocs := testing.AllocsPerRun(100, invoke); allocs != 0 {
		t.Errorf("%.2f allocs per batch of %d rows; want 0", allocs, rows)
	}
	if emitted == 0 {
		t.Fatal("mapper never emitted: the measured path is not the intended one")
	}
}

// Every exprFn returns a Value by value and every Emit and ValueIter passes
// an EmitValue by value. On amd64 a copy of more than 64 bytes leaves inline
// moves for a call into runtime.duffcopy (and zeroing one for duffzero),
// which at 120 and 80 bytes was a third of Map/Reduce CPU. These bounds —
// with serde's 32-byte Datum gate — keep both under that line with room for
// the error word returned beside them, so the next field someone adds fails
// here instead of silently bringing duffcopy back.
func TestValueSizes(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got > 56 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want <= 56", got)
	}
	if got := unsafe.Sizeof(EmitValue{}); got > 48 {
		t.Errorf("unsafe.Sizeof(EmitValue{}) = %d, want <= 48", got)
	}
}
