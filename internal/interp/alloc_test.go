package interp

import (
	"testing"

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
}
