package analyzer

import (
	"strings"
	"testing"
)

// TestFindCombineSum pins the one Combine shape the analyzer folds — an
// int64 sum of the values re-emitted under the Combine's own key — and
// that every near miss is refused with a note saying why. A program with
// no Combine gets neither a descriptor nor a note.
func TestFindCombineSum(t *testing.T) {
	const mapFn = `
func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(v.Str("url"), v.Int("rank"))
}
`
	combine := func(body string) string {
		return mapFn + "\nfunc Combine(key Datum, values *Iter, ctx *Ctx) {\n" + body + "\n}\n"
	}
	for _, tc := range []struct {
		name   string
		source string
		fold   bool
		note   string // a substring of the rejection note; "" for none
	}{
		{name: "absent", source: mapFn},
		{name: "sum", fold: true, source: combine(`
	sum := 0
	for values.Next() {
		sum = sum + values.Int()
	}
	ctx.Emit(key, sum)`)},
		{name: "add-assign", fold: true, source: combine(`
	n := 0
	for values.Next() {
		n += values.Int()
	}
	ctx.Emit(key, n)`)},
		{name: "renamed-params", fold: true, source: mapFn + `
func Combine(k Datum, vs *Iter, c *Ctx) {
	total := 0
	for vs.Next() {
		total += vs.Int()
	}
	c.Emit(k, total)
}
`},
		{name: "extra-statement", note: "body has 4 statements", source: combine(`
	sum := 0
	extra := 1
	for values.Next() {
		sum = sum + values.Int()
	}
	ctx.Emit(key, sum)`)},
		{name: "counter", note: "loop is not", source: combine(`
	sum := 0
	for values.Next() {
		sum = sum + values.Int()
		ctx.Counter("combined")
	}
	ctx.Emit(key, sum)`)},
		{name: "log", note: "body has 4 statements", source: combine(`
	sum := 0
	for values.Next() {
		sum = sum + values.Int()
	}
	ctx.Log("combined")
	ctx.Emit(key, sum)`)},
		{name: "global-accumulator", note: "does not declare an accumulator", source: `
var total int
` + combine(`
	total = 0
	for values.Next() {
		total = total + values.Int()
	}
	ctx.Emit(key, total)`)},
		{name: "global-addend", note: "does not add values.Int()", source: `
var bonus int
` + combine(`
	sum := 0
	for values.Next() {
		sum = sum + values.Int() + bonus
	}
	ctx.Emit(key, sum)`)},
		{name: "nonzero-start", note: "literal 0", source: combine(`
	sum := 1
	for values.Next() {
		sum = sum + values.Int()
	}
	ctx.Emit(key, sum)`)},
		{name: "float", note: "does not add values.Int()", source: combine(`
	sum := 0
	for values.Next() {
		sum = sum + values.Float()
	}
	ctx.Emit(key, sum)`)},
		{name: "field-int", note: "does not add values.Int()", source: combine(`
	sum := 0
	for values.Next() {
		sum = sum + values.FieldInt("rank")
	}
	ctx.Emit(key, sum)`)},
		{name: "count", note: "does not add values.Int()", source: combine(`
	sum := 0
	for values.Next() {
		sum = sum + 1
	}
	ctx.Emit(key, sum)`)},
		{name: "reversed-addends", note: "does not add values.Int()", source: combine(`
	sum := 0
	for values.Next() {
		sum = values.Int() + sum
	}
	ctx.Emit(key, sum)`)},
		{name: "condition", note: "does not add values.Int()", source: combine(`
	sum := 0
	for values.Next() {
		if values.Int() > 0 {
			sum = sum + values.Int()
		}
	}
	ctx.Emit(key, sum)`)},
		{name: "guarded-emit", note: "last statement", source: combine(`
	sum := 0
	for values.Next() {
		sum = sum + values.Int()
	}
	if sum > 0 {
		ctx.Emit(key, sum)
	}`)},
		{name: "rewritten-key", note: "last statement", source: combine(`
	sum := 0
	for values.Next() {
		sum = sum + values.Int()
	}
	ctx.Emit(0, sum)`)},
		{name: "other-value", note: "last statement", source: combine(`
	sum := 0
	for values.Next() {
		sum = sum + values.Int()
	}
	ctx.Emit(key, sum*2)`)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := mustAnalyze(t, tc.source, webPageSchema)
			if tc.fold != (d.Combine != nil && d.Combine.Op == "sum") {
				t.Fatalf("descriptor %+v, want recognized = %v; notes %v", d.Combine, tc.fold, d.Notes)
			}
			var note string
			for _, n := range d.Notes {
				if strings.HasPrefix(n, "combine:") {
					note = n
				}
			}
			if tc.note == "" && note != "" || !strings.Contains(note, tc.note) {
				t.Fatalf("combine note %q, want one containing %q", note, tc.note)
			}
		})
	}
}
