package analyzer

import (
	"strings"
	"testing"

	"manimal/internal/lang"
	"manimal/internal/serde"
)

var (
	uvSchema = serde.MustSchema(
		serde.Field{Name: "sourceIP", Kind: serde.KindString},
		serde.Field{Name: "destURL", Kind: serde.KindString},
		serde.Field{Name: "visitDate", Kind: serde.KindInt64},
		serde.Field{Name: "adRevenue", Kind: serde.KindInt64},
	)
	rkSchema = serde.MustSchema(
		serde.Field{Name: "pageURL", Kind: serde.KindString},
		serde.Field{Name: "pageRank", Kind: serde.KindInt64},
	)
)

const uvJoinSrc = `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("visitDate") >= ctx.ConfInt("dateLo") && v.Int("visitDate") < ctx.ConfInt("dateHi") {
		ctx.Emit(v.Str("destURL"), v)
	}
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	ctx.Emit(key, 1)
}
`

const rkJoinSrc = `
func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(v.Str("pageURL"), v)
}
`

func mustParse(t *testing.T, src string) *lang.Program {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDetectJoinBenchmark3Shape(t *testing.T) {
	j := DetectJoin(mustParse(t, uvJoinSrc), uvSchema, mustParse(t, rkJoinSrc), rkSchema)
	if j == nil {
		t.Fatal("Benchmark-3 join shape not detected")
	}
	if j.Left.Field != "destURL" || j.Right.Field != "pageURL" {
		t.Errorf("join fields = %q / %q", j.Left.Field, j.Right.Field)
	}
	if got := j.String(); got != `v.Str("destURL") = v.Str("pageURL")` {
		t.Errorf("String() = %q", got)
	}
}

func TestDetectJoinThroughKeyVariable(t *testing.T) {
	// The key flows through a local; resolution follows the def chain.
	src := `
func Map(k, v *Record, ctx *Ctx) {
	url := v.Str("pageURL")
	ctx.Emit(url, v.Int("pageRank"))
}
`
	j := DetectJoin(mustParse(t, uvJoinSrc), uvSchema, mustParse(t, src), rkSchema)
	if j == nil {
		t.Fatal("join via key variable not detected")
	}
	if j.Right.Field != "pageURL" {
		t.Errorf("right field = %q", j.Right.Field)
	}
}

func TestDetectJoinRejectsComputedKey(t *testing.T) {
	src := `
func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(strings.ToLower(v.Str("pageURL")), v)
}
`
	if j := DetectJoin(mustParse(t, uvJoinSrc), uvSchema, mustParse(t, src), rkSchema); j != nil {
		t.Fatalf("computed key must not be a join key, got %v", j)
	}
}

func TestDetectJoinRejectsInconsistentKeys(t *testing.T) {
	src := `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("pageRank") > 10 {
		ctx.Emit(v.Str("pageURL"), v)
	} else {
		ctx.Emit(v.Int("pageRank"), v)
	}
}
`
	if j := DetectJoin(mustParse(t, uvJoinSrc), uvSchema, mustParse(t, src), rkSchema); j != nil {
		t.Fatalf("inconsistent emit keys must not be a join, got %v", j)
	}
}

func TestDetectJoinRejectsNonEmittingMap(t *testing.T) {
	src := `
func Map(k, v *Record, ctx *Ctx) {
	ctx.Log("nothing")
}
`
	if j := DetectJoin(mustParse(t, uvJoinSrc), uvSchema, mustParse(t, src), rkSchema); j != nil {
		t.Fatalf("non-emitting map must not be a join side, got %v", j)
	}
}

func TestDetectJoinKeyThroughHelper(t *testing.T) {
	// Interprocedural: the key accessor lives in a pure helper.
	src := `
func keyOf(r *Record) string {
	return r.Str("pageURL")
}

func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(keyOf(v), v)
}
`
	j := DetectJoin(mustParse(t, uvJoinSrc), uvSchema, mustParse(t, src), rkSchema)
	if j == nil {
		t.Fatal("helper-extracted join key not detected")
	}
	if j.Right.Field != "pageURL" {
		t.Errorf("right field = %q", j.Right.Field)
	}
}

// b3Pair detects the join of a UserVisits program (Map plus Reduce) and a
// Rankings Map.
func b3Pair(t *testing.T, uvMap, reduce, rkMap string) *JoinDescriptor {
	t.Helper()
	return DetectJoin(mustParse(t, uvMap+reduce), uvSchema, mustParse(t, rkMap), rkSchema)
}

const (
	b3UVMap = `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("visitDate") >= ctx.ConfInt("dateLo") && v.Int("visitDate") < ctx.ConfInt("dateHi") {
		ctx.Emit(v.Str("destURL"), v)
	}
}
`
	b3Reduce = `
func Reduce(key Datum, values *Iter, ctx *Ctx) {
	rank := -1
	revenue := 0
	visits := 0
	for values.Next() {
		if values.HasField("pageRank") {
			rank = values.FieldInt("pageRank")
		} else {
			revenue = revenue + values.FieldInt("adRevenue")
			visits = visits + 1
		}
	}
	if visits > 0 {
		ctx.Emit(key, strconv.Itoa(rank)+"|"+strconv.Itoa(revenue)+"|"+strconv.Itoa(visits))
	}
}
`
)

func TestSemiJoinBenchmark3Pair(t *testing.T) {
	j := b3Pair(t, b3UVMap, b3Reduce, rkJoinSrc)
	if j == nil || j.SemiJoin == nil {
		t.Fatalf("Benchmark 3 pair got no semi-join: %+v", j)
	}
	if want := (SemiJoinProof{Build: 0, Tag: "pageRank", Counter: "visits"}); *j.SemiJoin != want {
		t.Errorf("proof = %+v, want %+v", *j.SemiJoin, want)
	}
}

func TestSemiJoinBuildSideAsInputOne(t *testing.T) {
	// Rankings first: the Reduce lives in the lead (Rankings) program, and
	// the negated test puts the UserVisits branch first.
	lead := rkJoinSrc + `
func Reduce(key Datum, values *Iter, ctx *Ctx) {
	rank := -1
	n := 0
	for values.Next() {
		if !values.HasField("pageRank") {
			n++
		} else {
			rank = values.FieldInt("pageRank")
		}
	}
	if n >= 1 {
		ctx.Emit(key, rank)
	}
}
`
	j := DetectJoin(mustParse(t, lead), rkSchema, mustParse(t, b3UVMap), uvSchema)
	if j == nil || j.SemiJoin == nil {
		t.Fatalf("got no semi-join: %+v", j)
	}
	if j.SemiJoin.Build != 1 || j.SemiJoin.Counter != "n" {
		t.Errorf("proof = %+v, want build 1 counted by n", *j.SemiJoin)
	}
}

// withGuard is b3Reduce with guard in place of `visits > 0`.
func withGuard(guard string) string {
	return strings.Replace(b3Reduce, "if visits > 0 {", "if "+guard+" {", 1)
}

// TestSemiJoinMirroredGuards: a guard with the literal on the left is read
// with its operator mirrored, so each of these is false when visits is 0.
func TestSemiJoinMirroredGuards(t *testing.T) {
	for _, guard := range []string{"0 < visits", "1 <= visits", "0 != visits"} {
		j := b3Pair(t, b3UVMap, withGuard(guard), rkJoinSrc)
		if j == nil || j.SemiJoin == nil {
			t.Errorf("guard %q got no semi-join: %+v", guard, j)
		}
	}
}

// TestSemiJoinNearMisses: each case is one step away from the Benchmark 3
// pair, and each step makes dropping one side's unmatched rows observable
// (or unprovable), so none may get a semi-join.
func TestSemiJoinNearMisses(t *testing.T) {
	withReduce := func(body string) string {
		return "\nfunc Reduce(key Datum, values *Iter, ctx *Ctx) {" + body + "}\n"
	}
	cases := []struct{ name, uv, reduce, rk, refusal string }{
		{"left outer join", b3UVMap, withReduce(`
	rank := -1
	visits := 0
	for values.Next() {
		if values.HasField("pageRank") {
			rank = values.FieldInt("pageRank")
		} else {
			visits = visits + 1
		}
	}
	if rank >= 0 {
		ctx.Emit(key, visits)
	}
`), rkJoinSrc, "not guarded"},
		{"full outer join", b3UVMap, withReduce(`
	rank := -1
	visits := 0
	for values.Next() {
		if values.HasField("pageRank") {
			rank = values.FieldInt("pageRank")
		} else {
			visits = visits + 1
		}
	}
	if visits == 0 {
		ctx.Emit(key, rank)
	}
	if visits > 0 {
		ctx.Emit(key, visits)
	}
`), rkJoinSrc, "not guarded"},
		{"counter on both branches", b3UVMap, withReduce(`
	rank := -1
	visits := 0
	for values.Next() {
		if values.HasField("pageRank") {
			rank = values.FieldInt("pageRank")
			visits++
		} else {
			visits = visits + 1
		}
	}
	if visits > 0 {
		ctx.Emit(key, rank)
	}
`), rkJoinSrc, "incremented for values of both inputs"},
		{"emit outside the guard", b3UVMap, withReduce(`
	rank := -1
	visits := 0
	for values.Next() {
		if values.HasField("pageRank") {
			rank = values.FieldInt("pageRank")
		} else {
			visits = visits + 1
			ctx.Emit(key, rank)
		}
	}
	if visits > 0 {
		ctx.Emit(key, rank)
	}
`), rkJoinSrc, "outside"},
		{"counter does not start at 0", b3UVMap, withReduce(`
	rank := -1
	visits := 1
	for values.Next() {
		if values.HasField("pageRank") {
			rank = values.FieldInt("pageRank")
		} else {
			visits = visits + 1
		}
	}
	if visits > 0 {
		ctx.Emit(key, rank)
	}
`), rkJoinSrc, "start at 0"},
		{"counter decremented", b3UVMap, withReduce(`
	visits := 0
	for values.Next() {
		if !values.HasField("pageRank") {
			visits = visits - 1
		}
	}
	if visits != 0 {
		ctx.Emit(key, visits)
	}
`), rkJoinSrc, "positive increment"},
		{"HasField on a field both schemas carry", b3UVMap, withReduce(`
	rank := -1
	visits := 0
	for values.Next() {
		if values.HasField("shared") {
			rank = values.FieldInt("pageRank")
		} else {
			visits = visits + 1
		}
	}
	if visits > 0 {
		ctx.Emit(key, rank)
	}
`), rkJoinSrc, "both schemas"},
		{"ctx.Counter in Reduce", b3UVMap, withReduce(`
	rank := -1
	visits := 0
	for values.Next() {
		if values.HasField("pageRank") {
			rank = values.FieldInt("pageRank")
		} else {
			visits = visits + 1
		}
	}
	if visits > 0 {
		ctx.Counter("joined")
		ctx.Emit(key, rank)
	}
`), rkJoinSrc, "ctx.Counter"},
		{"ctx.Log in Reduce", b3UVMap, withReduce(`
	rank := -1
	visits := 0
	for values.Next() {
		if values.HasField("pageRank") {
			rank = values.FieldInt("pageRank")
			ctx.Log("ranked")
		} else {
			visits = visits + 1
		}
	}
	if visits > 0 {
		ctx.Emit(key, rank)
	}
`), rkJoinSrc, "ctx.Log"},
		{"other side read with the wrong accessor", b3UVMap, withReduce(`
	rank := ""
	visits := 0
	for values.Next() {
		if values.HasField("pageRank") {
			rank = values.FieldStr("pageRank")
		} else {
			visits = visits + 1
		}
	}
	if visits > 0 {
		ctx.Emit(key, rank)
	}
`), rkJoinSrc, "may fail"},
		{"other side reads a build-side field", b3UVMap, withReduce(`
	rev := 0
	visits := 0
	for values.Next() {
		if values.HasField("pageRank") {
			rev = values.FieldInt("adRevenue")
		} else {
			visits = visits + 1
		}
	}
	if visits > 0 {
		ctx.Emit(key, rev)
	}
`), rkJoinSrc, "may fail"},
		{"Combine on the lead program", b3UVMap, b3Reduce + `
func Combine(key Datum, values *Iter, ctx *Ctx) {
	for values.Next() {
		ctx.Emit(key, values.Int())
	}
}
`, rkJoinSrc, "Combine"},
		{"Combine on the other program", b3UVMap, b3Reduce, rkJoinSrc + `
func Combine(key Datum, values *Iter, ctx *Ctx) {
	for values.Next() {
		ctx.Emit(key, values.Int())
	}
}
`, "Combine"},
		{"side effect in the filtered side's Map", b3UVMap, b3Reduce, `
func Map(k, v *Record, ctx *Ctx) {
	ctx.Log("ranking " + v.Str("pageURL"))
	ctx.Emit(v.Str("pageURL"), v)
}
`, "side effects"},
		{"filtered side's Map writes a member variable", b3UVMap, b3Reduce, `
var seen = 0

func Map(k, v *Record, ctx *Ctx) {
	seen = seen + 1
	ctx.Emit(v.Str("pageURL"), v)
}
`, "member variable"},
		{"filtered side emits a field, not its record", b3UVMap, b3Reduce, `
func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(v.Str("pageURL"), v.Int("pageRank"))
}
`, "whole record"},
		{"mirrored guard true at 0", b3UVMap, withGuard("1 >= visits"), rkJoinSrc, "not guarded"},
		{"mirrored guard never true", b3UVMap, withGuard("0 > visits"), rkJoinSrc, "not guarded"},
	}
	sharedUV := serde.MustSchema(append(uvSchema.Fields(), serde.Field{Name: "shared", Kind: serde.KindInt64})...)
	sharedRK := serde.MustSchema(append(rkSchema.Fields(), serde.Field{Name: "shared", Kind: serde.KindInt64})...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ls, rs := uvSchema, rkSchema
			if tc.refusal == "both schemas" {
				ls, rs = sharedUV, sharedRK
			}
			j := DetectJoin(mustParse(t, tc.uv+tc.reduce), ls, mustParse(t, tc.rk), rs)
			if j == nil {
				t.Fatal("join shape itself not detected")
			}
			if j.SemiJoin != nil {
				t.Fatalf("got a semi-join %+v", *j.SemiJoin)
			}
			if !strings.Contains(j.SemiJoinRefused, tc.refusal) {
				t.Errorf("refusal %q does not say %q", j.SemiJoinRefused, tc.refusal)
			}
		})
	}
}
