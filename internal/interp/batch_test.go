package interp

import (
	"testing"

	"manimal/internal/lang"
	"manimal/internal/serde"
)

// batchEquivalencePrograms are the shapes the batch door treats
// differently: field reads bound to columns, the key parameter, a record
// that escapes into Emit and into a helper (late materialization), and a
// field name computed per row (record-backed read).
var batchEquivalencePrograms = map[string]string{
	"column-bound": `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("rank") > 2 {
		ctx.Emit(v.Str("url"), k)
	}
	ctx.Emit(k, v.Float("score"))
}
`,
	"escaping-record": `
func big(r *Record) bool {
	return r.Int("rank") > 2
}

func Map(k, v *Record, ctx *Ctx) {
	if big(v) {
		ctx.Emit(v.Str("url"), v)
	}
	f := "score"
	ctx.Emit(v.Has("ok"), v.Float(f)+v.Float("score"))
}
`,
}

// TestInvokeMapBatchEquivalence pins the batch entry point's contract:
// over the same rows, InvokeMapBatch produces exactly the emissions of
// per-row InvokeMap with the batch's base-offset keys — including when a
// selection vector drops rows, when undecoded columns read as zero, and
// when one executor is fed batches of different schemas.
func TestInvokeMapBatchEquivalence(t *testing.T) {
	recs := []*serde.Record{
		record("a", 1, 0.5, true),
		record("b", 3, 1.5, false),
		record("c", 9, 2.5, true),
		record("d", 2, 3.5, false),
		record("e", 4, 4.5, true),
	}
	// The same rows under a second schema: fields reordered, one dropped.
	reordered := serde.MustSchema(
		serde.Field{Name: "score", Kind: serde.KindFloat64},
		serde.Field{Name: "rank", Kind: serde.KindInt64},
		serde.Field{Name: "url", Kind: serde.KindString},
	)
	recs2 := make([]*serde.Record, len(recs))
	for i, r := range recs {
		var err error
		if recs2[i], err = r.Project(reordered); err != nil {
			t.Fatal(err)
		}
	}
	const base = int64(100)

	for name, src := range batchEquivalencePrograms {
		t.Run(name, func(t *testing.T) {
			p, err := lang.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			// One executor per door for the whole test: bindings, the
			// late-materialization record and the frame carry over between
			// the cases below, as they do between a task's batches.
			rowEx, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			batchEx, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			// check runs rows sel of recs (masked fields zeroed) through
			// InvokeMap and the same rows as a batch (masked fields
			// undecoded) through InvokeMapBatch.
			check := func(what string, schema *serde.Schema, recs []*serde.Record, sel []int, masked ...string) {
				t.Helper()
				isMasked := func(f int) bool {
					for _, m := range masked {
						if schema.Field(f).Name == m {
							return true
						}
					}
					return false
				}
				var want, got capture
				ctxW, ctxG := want.context(nil), got.context(nil)
				for _, i := range sel {
					r := recs[i].Clone()
					for f := 0; f < schema.NumFields(); f++ {
						if isMasked(f) {
							*r.Slot(f) = serde.ZeroOf(schema.Field(f).Kind)
						}
					}
					want.note(rowEx.InvokeMap(serde.Int(base+int64(i)), r, ctxW))
				}
				var b serde.Batch
				fillBatch(&b, schema, recs, base, func(f int) bool { return !isMasked(f) })
				mask := make([]bool, len(recs))
				for _, i := range sel {
					mask[i] = true
				}
				b.SetSelMask(mask)
				got.note(batchEx.InvokeMapBatch(&b, ctxG))
				if len(want.emits) == 0 {
					t.Fatalf("%s: nothing emitted: the case does not test what it means to", what)
				}
				compareCaptures(t, what, got, want)
			}
			all := []int{0, 1, 2, 3, 4}
			check("all-rows", testSchema, recs, all)
			check("selection-vector", testSchema, recs, []int{1, 2, 4})
			check("masked-score", testSchema, recs, all, "score")
			check("masked-rank-url", testSchema, recs, all, "rank", "url")
			check("schema-change", reordered, recs2, all)
			check("schema-change-masked", reordered, recs2, []int{0, 2}, "score")
			check("schema-change-back", testSchema, recs, all)
		})
	}
}

// TestInvokeMapBatchErrors: a column-bound site whose field is missing from
// the batch's schema, or of another kind, fails like the record-backed read
// does — when it executes, and not for rows that do not reach it.
func TestInvokeMapBatchErrors(t *testing.T) {
	p, err := lang.Parse(`
func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(k, v.Int("rank"))
	if v.Int("rank") > 3 {
		ctx.Emit(k, v.Int("url"))
	}
	if v.Int("rank") > 8 {
		ctx.Emit(k, v.Str("nowhere"))
	}
}
`)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*serde.Record{record("a", 1, 0, true), record("b", 2, 0, true), record("c", 4, 0, true), record("d", 9, 0, true)}
	for _, masked := range []bool{false, true} {
		ex, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		var rows, batch capture
		ctxR, ctxB := rows.context(nil), batch.context(nil)
		for i, r := range recs {
			rows.note(ex.InvokeMap(serde.Int(int64(i)), r, ctxR))
		}
		var b serde.Batch
		// A masked "url" column still has the schema's kind: same error.
		fillBatch(&b, testSchema, recs, 0, func(f int) bool { return !masked || testSchema.Field(f).Name != "url" })
		for i := range recs {
			b.SetSel([]int32{int32(i)})
			batch.note(ex.InvokeMapBatch(&b, ctxB))
		}
		if len(rows.errs) != 2 {
			t.Fatalf("masked=%v: row door raised %v, want one kind error and one missing-field error", masked, rows.errs)
		}
		compareCaptures(t, "errors", batch, rows)
	}
}
