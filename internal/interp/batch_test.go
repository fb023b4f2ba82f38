package interp

import (
	"reflect"
	"testing"

	"manimal/internal/lang"
	"manimal/internal/serde"
)

// fillBatch packs records into a Batch the way the batch scanner does:
// every field decoded into its column vector, base as the whole-file index
// of row 0.
func fillBatch(b *serde.Batch, recs []*serde.Record, base int64, decode func(field int) bool) {
	n := len(recs)
	b.Reset(testSchema, n, base)
	for f := 0; f < testSchema.NumFields(); f++ {
		if decode != nil && !decode(f) {
			continue
		}
		col := b.Col(f)
		switch testSchema.Field(f).Kind {
		case serde.KindString:
			dst := col.ResizeStrs(n)
			for i, r := range recs {
				dst[i] = r.At(f).Str()
			}
		case serde.KindInt64:
			dst := col.ResizeInts(n)
			for i, r := range recs {
				dst[i] = r.At(f).Int()
			}
		case serde.KindFloat64:
			dst := col.ResizeFloats(n)
			for i, r := range recs {
				dst[i] = r.At(f).Float()
			}
		case serde.KindBool:
			dst := col.ResizeBools(n)
			for i, r := range recs {
				dst[i] = r.At(f).Flag()
			}
		}
		b.SetDecoded(f)
	}
	b.SelectAll()
}

const batchEquivalenceProgram = `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("rank") > 2 {
		ctx.Emit(v.Str("url"), k)
	}
	ctx.Emit(k, v.Float("score"))
}
`

// TestInvokeMapBatchEquivalence pins the batch entry point's contract:
// over the same rows, InvokeMapBatch produces exactly the emissions of
// per-row InvokeMap with the batch's base-offset keys — including when a
// selection vector drops rows and when an undecoded column reads as zero.
func TestInvokeMapBatchEquivalence(t *testing.T) {
	recs := []*serde.Record{
		record("a", 1, 0.5, true),
		record("b", 3, 1.5, false),
		record("c", 9, 2.5, true),
		record("d", 2, 3.5, false),
		record("e", 4, 4.5, true),
	}
	const base = int64(100)
	collect := func(run func(ctx *Context, ex *Executor) error) []emitted {
		t.Helper()
		p, err := lang.Parse(batchEquivalenceProgram)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		var out []emitted
		ctx := &Context{Emit: func(k serde.Datum, v EmitValue) error {
			out = append(out, emitted{k, v})
			return nil
		}}
		if err := run(ctx, ex); err != nil {
			t.Fatal(err)
		}
		return out
	}

	t.Run("all-rows", func(t *testing.T) {
		want := collect(func(ctx *Context, ex *Executor) error {
			for i, r := range recs {
				if err := ex.InvokeMap(serde.Int(base+int64(i)), r, ctx); err != nil {
					return err
				}
			}
			return nil
		})
		var b serde.Batch
		fillBatch(&b, recs, base, nil)
		got := collect(func(ctx *Context, ex *Executor) error {
			return ex.InvokeMapBatch(&b, ctx)
		})
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("batch emissions diverge:\n got %+v\nwant %+v", got, want)
		}
	})

	t.Run("selection-vector", func(t *testing.T) {
		sel := []int{1, 2, 4} // rows a residual filter kept
		want := collect(func(ctx *Context, ex *Executor) error {
			for _, i := range sel {
				if err := ex.InvokeMap(serde.Int(base+int64(i)), recs[i], ctx); err != nil {
					return err
				}
			}
			return nil
		})
		var b serde.Batch
		fillBatch(&b, recs, base, nil)
		mask := make([]bool, len(recs))
		for _, i := range sel {
			mask[i] = true
		}
		b.SetSelMask(mask)
		got := collect(func(ctx *Context, ex *Executor) error {
			return ex.InvokeMapBatch(&b, ctx)
		})
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("selected emissions diverge:\n got %+v\nwant %+v", got, want)
		}
	})

	t.Run("undecoded-column-reads-zero", func(t *testing.T) {
		// Mask out "score": the materialized record must read 0.0 there,
		// the masked-field contract.
		var b serde.Batch
		fillBatch(&b, recs, base, func(f int) bool { return testSchema.Field(f).Name != "score" })
		masked := make([]*serde.Record, len(recs))
		for i, r := range recs {
			m := r.Clone()
			m.MustSet("score", serde.Float(0))
			masked[i] = m
		}
		want := collect(func(ctx *Context, ex *Executor) error {
			for i, r := range masked {
				if err := ex.InvokeMap(serde.Int(base+int64(i)), r, ctx); err != nil {
					return err
				}
			}
			return nil
		})
		got := collect(func(ctx *Context, ex *Executor) error {
			return ex.InvokeMapBatch(&b, ctx)
		})
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("masked emissions diverge:\n got %+v\nwant %+v", got, want)
		}
	})
}
