package analyzer

import (
	"strings"
	"testing"

	"manimal/internal/lang"
	"manimal/internal/serde"
)

// TestFindAggregate pins the Map shapes the engine runs as a column
// kernel — one ctx.Emit of v.Str(f), v.Int(f) or v.Int(f) / C and of
// v.Int(g) or an int literal, over a folding sum Combine — and that every
// near miss is refused with a note saying why.
func TestFindAggregate(t *testing.T) {
	schema := serde.MustSchema(
		serde.Field{Name: "ip", Kind: serde.KindString},
		serde.Field{Name: "day", Kind: serde.KindInt64},
		serde.Field{Name: "rev", Kind: serde.KindInt64},
		serde.Field{Name: "score", Kind: serde.KindFloat64},
	)
	const sum = `
func Combine(key Datum, values *Iter, ctx *Ctx) {
	s := 0
	for values.Next() {
		s = s + values.Int()
	}
	ctx.Emit(key, s)
}
`
	mapOf := func(body string) string {
		return "func Map(k, v *Record, ctx *Ctx) {\n" + body + "\n}\n"
	}
	for _, tc := range []struct {
		name   string
		source string
		want   string // the descriptor's rendering; "" when refused
		note   string // a substring of the rejection note
	}{
		{"string key", mapOf(`ctx.Emit(v.Str("ip"), v.Int("rev"))`) + sum, `sum of v.Int("rev") by v.Str("ip")`, ""},
		{"int key", mapOf(`ctx.Emit(v.Int("day"), v.Int("rev"))`) + sum, `sum of v.Int("rev") by v.Int("day")`, ""},
		{"divided key", mapOf(`ctx.Emit(v.Int("day")/86400, v.Int("rev"))`) + sum, `sum of v.Int("rev") by v.Int("day") / 86400`, ""},
		{"negative divisor", mapOf(`ctx.Emit((v.Int("day")) / -7, 1)`) + sum, `sum of 1 by v.Int("day") / -7`, ""},
		{"constant value", mapOf(`ctx.Emit(v.Str("ip"), 1)`) + sum, `sum of 1 by v.Str("ip")`, ""},
		{"renamed params", "func Map(key, rec *Record, c *Ctx) {\n\tc.Emit(rec.Str(\"ip\"), -3)\n}\n" + sum, `sum of -3 by v.Str("ip")`, ""},
		{"guard", mapOf(`if v.Int("rev") > 0 {
	ctx.Emit(v.Str("ip"), v.Int("rev"))
}`) + sum, "", "emit is guarded"},
		{"second statement", mapOf(`r := v.Int("rev")
ctx.Emit(v.Str("ip"), r)`) + sum, "", "Map has 2 statements"},
		{"log", mapOf(`ctx.Log("visit")
ctx.Emit(v.Str("ip"), 1)`) + sum, "", "Map has 2 statements"},
		{"counter", mapOf(`ctx.Counter("visits", 1)`) + sum, "", "is not ctx.Emit(key, value)"},
		{"float value", mapOf(`ctx.Emit(v.Str("ip"), v.Float("score"))`) + sum, "", `value v.Float("score") is not`},
		{"Int on a string field", mapOf(`ctx.Emit(v.Int("ip"), 1)`) + sum, "", `field "ip" is string, not what v.Int reads`},
		{"Str on an int field", mapOf(`ctx.Emit(v.Str("day"), 1)`) + sum, "", `field "day" is int64, not what v.Str reads`},
		{"missing field", mapOf(`ctx.Emit(v.Str("url"), 1)`) + sum, "", `field "url" is not in the input schema`},
		{"divide by zero", mapOf(`ctx.Emit(v.Int("day")/0, 1)`) + sum, "", "not a non-zero int literal"},
		{"computed divisor", mapOf(`ctx.Emit(v.Int("day")/ctx.ConfInt("d"), 1)`) + sum, "", "not a non-zero int literal"},
		{"divided string", mapOf(`ctx.Emit(v.Str("ip")/2, 1)`) + sum, "", "is not v.Str(f), v.Int(f) or v.Int(f) / C"},
		{"key from a helper", `
func host(r *Record) string {
	return r.Str("ip")
}
` + mapOf(`ctx.Emit(host(v), 1)`) + sum, "", "host(v) is not a field read"},
		{"global", `
var total int
` + mapOf(`ctx.Emit(v.Str("ip"), total)`) + sum, "", "value total is not"},
		{"key param", mapOf(`ctx.Emit(k, 1)`) + sum, "", "k is not a field read"},
		{"no combine", mapOf(`ctx.Emit(v.Str("ip"), v.Int("rev"))`), "", "no int64-sum Combine"},
		{"non-sum combine", mapOf(`ctx.Emit(v.Str("ip"), v.Int("rev"))`) + `
func Combine(key Datum, values *Iter, ctx *Ctx) {
	n := 0
	for values.Next() {
		n = n + 1
	}
	ctx.Emit(key, n)
}
`, "", "no int64-sum Combine"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := lang.Parse(tc.source)
			if err != nil {
				t.Fatal(err)
			}
			d, err := Analyze(p, schema)
			if err != nil {
				t.Fatal(err)
			}
			var notes []string
			for _, n := range d.Notes {
				if strings.HasPrefix(n, "aggregate:") {
					notes = append(notes, n)
				}
			}
			if tc.want != "" {
				if d.Aggregate == nil || d.Aggregate.String() != tc.want || len(notes) != 0 {
					t.Fatalf("descriptor %v, notes %q; want %s", d.Aggregate, notes, tc.want)
				}
				return
			}
			if d.Aggregate != nil {
				t.Fatalf("recognized %s", d.Aggregate)
			}
			if len(notes) != 1 || !strings.Contains(notes[0], tc.note) || !strings.HasSuffix(notes[0], "; the interpreter runs Map") {
				t.Fatalf("notes %q; want one containing %q", notes, tc.note)
			}
		})
	}
}
