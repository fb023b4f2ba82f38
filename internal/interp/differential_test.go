package interp

import (
	"fmt"
	"math/rand"
	"testing"

	"manimal/internal/lang"
	"manimal/internal/programs"
	"manimal/internal/serde"
)

// The differential test is the paper's "no change to program output"
// invariant applied to our own optimization: for every benchmark program,
// the compiled-closure executor and the reference tree-walking executor
// must produce identical emitted key/value streams, user counters, and log
// lines on the same generated input — through Map, Reduce, and Combine.

// diffCase is one program under differential test.
type diffCase struct {
	name       string
	source     string
	schemaText string
	conf       map[string]serde.Datum
}

func diffCases() []diffCase {
	webPages := "url:string,rank:int64,content:string"
	userVisits := "sourceIP:string,destURL:string,visitDate:int64,adRevenue:int64," +
		"userAgent:string,countryCode:string,languageCode:string,searchWord:string,duration:int64"
	threshold := map[string]serde.Datum{"threshold": serde.Int(1000)}
	return []diffCase{
		{"benchmark1-selection", programs.Benchmark1Selection, "tuple:string", threshold},
		{"benchmark2-aggregation", programs.Benchmark2Aggregation, userVisits, nil},
		{"benchmark3-join-uservisits", programs.Benchmark3JoinUserVisits, userVisits,
			map[string]serde.Datum{"dateLo": serde.Int(300), "dateHi": serde.Int(1500)}},
		{"benchmark3-join-rankings", programs.Benchmark3JoinRankings,
			"pageURL:string,pageRank:int64,avgDuration:int64", nil},
		{"benchmark4-udf-aggregation", programs.Benchmark4UDFAggregation, "content:string", nil},
		{"selection-query", programs.SelectionQuery, webPages, threshold},
		{"projection-query", programs.ProjectionQuery, webPages, threshold},
		{"delta-query", programs.DeltaQuery, userVisits, nil},
		{"compression-query", programs.CompressionQuery, userVisits, nil},
		// Non-constant accessor field names are legal (lang.IsRecordAccessor
		// documents them defeating projection); the compiled fast path must
		// not confuse one dynamic field with another at the same call site.
		{"dynamic-fields", `
func Map(k, v *Record, ctx *Ctx) {
	for _, f := range strings.Split("url,content,rank", ",") {
		if v.Has(f) {
			if f == "rank" {
				ctx.Emit(v.Int(f), v)
			} else {
				ctx.Emit(v.Str(f), v)
			}
		}
	}
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	for values.Next() {
		for _, f := range strings.Split("url,content", ",") {
			if values.HasField(f) {
				ctx.Emit(key, values.FieldStr(f))
			}
		}
	}
}
`, webPages, nil},
		// A synthetic program covering constructs the paper benchmarks do
		// not reach: member variables, ++/--, op-assign, maps with two-value
		// lookup, ranges, min/max, math/strconv builtins, counters, logging.
		{"kitchen-sink", `
var calls int

func Map(k, v *Record, ctx *Ctx) {
	calls++
	ctx.Counter("records")
	seen := make(map[string]bool)
	best := 0
	for i, w := range strings.Fields(v.Str("content")) {
		dup, found := seen[w]
		if found && dup {
			continue
		}
		seen[w] = true
		score := min(len(w)*3, 40) + max(i, 2)
		score += strconv.Atoi(w)
		if score > best {
			best = score
		}
		if strings.HasPrefix(w, "http://") {
			ctx.Log(strings.ToUpper(w))
			ctx.Emit(w, score)
		}
	}
	rank := v.Int("rank")
	if rank%2 == 0 && len(seen) > 0 {
		ctx.Emit(strconv.Itoa(calls), math.Sqrt(math.Abs(0.0-rank)))
	}
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	sum := 0
	n := 0
	for values.Next() {
		sum += values.Int()
		n++
	}
	if n > 1 {
		ctx.Emit(key, sum)
	} else {
		ctx.Emit(key, 0-sum)
	}
}
`, webPages, nil},
	}
}

// genRecords builds count deterministic records for the schema, with field
// contents slanted so that the benchmark programs take all their branches
// (pipe-separated tuples, URL-bearing content, colliding keys).
func genRecords(t *testing.T, schemaText string, count int) []*serde.Record {
	t.Helper()
	schema, err := serde.ParseSchema(schemaText)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	vocab := []string{"alpha", "beta", "http://a.example/x", "http://b.example/y", "42", "gamma"}
	recs := make([]*serde.Record, count)
	for i := range recs {
		rec := serde.NewRecord(schema)
		for f := 0; f < schema.NumFields(); f++ {
			field := schema.Field(f)
			var d serde.Datum
			switch {
			case field.Name == "tuple":
				d = serde.String(fmt.Sprintf("url%d|%d|junk", rng.Intn(5), rng.Intn(3000)))
			case field.Name == "content":
				words := ""
				for w := 0; w < 6; w++ {
					if w > 0 {
						words += " "
					}
					words += vocab[rng.Intn(len(vocab))]
				}
				d = serde.String(words)
			case field.Kind == serde.KindString:
				d = serde.String(vocab[rng.Intn(3)])
			case field.Kind == serde.KindInt64:
				d = serde.Int(int64(rng.Intn(3000)))
			case field.Kind == serde.KindFloat64:
				d = serde.Float(rng.Float64() * 100)
			case field.Kind == serde.KindBool:
				d = serde.Bool(rng.Intn(2) == 0)
			default:
				t.Fatalf("unsupported field kind %v", field.Kind)
			}
			rec.MustSet(field.Name, d)
		}
		recs[i] = rec
	}
	return recs
}

// capture is one executor run's observable output.
type capture struct {
	emits    []emitted
	logs     []string
	counters map[string]int64
	errs     []string
}

func (c *capture) context(conf map[string]serde.Datum) *Context {
	c.counters = make(map[string]int64)
	return &Context{
		Conf: conf,
		Emit: func(k serde.Datum, v EmitValue) error {
			c.emits = append(c.emits, emitted{k, v})
			return nil
		},
		Log:     func(m string) { c.logs = append(c.logs, m) },
		Counter: func(n string, d int64) { c.counters[n] += d },
	}
}

func emitKey(d serde.Datum) string { return string(d.AppendTagged(nil)) }

func compareCaptures(t *testing.T, phase string, a, b capture) {
	t.Helper()
	if len(a.errs) != len(b.errs) {
		t.Fatalf("%s: error count differs: compiled %v vs walker %v", phase, a.errs, b.errs)
	}
	for i := range a.errs {
		if a.errs[i] != b.errs[i] {
			t.Fatalf("%s: error %d differs:\ncompiled: %s\nwalker:   %s", phase, i, a.errs[i], b.errs[i])
		}
	}
	if len(a.emits) != len(b.emits) {
		t.Fatalf("%s: emission count differs: compiled %d vs walker %d", phase, len(a.emits), len(b.emits))
	}
	for i := range a.emits {
		ka, kb := emitKey(a.emits[i].k), emitKey(b.emits[i].k)
		if ka != kb {
			t.Fatalf("%s: emission %d key differs: compiled %v vs walker %v", phase, i, a.emits[i].k, b.emits[i].k)
		}
		va, vb := a.emits[i].v, b.emits[i].v
		if va.IsRecord() != vb.IsRecord() {
			t.Fatalf("%s: emission %d value shape differs", phase, i)
		}
		if va.IsRecord() {
			if va.Rec != vb.Rec {
				t.Fatalf("%s: emission %d record differs", phase, i)
			}
		} else if emitKey(va.D) != emitKey(vb.D) {
			t.Fatalf("%s: emission %d value differs: compiled %v vs walker %v", phase, i, va.D, vb.D)
		}
	}
	if len(a.logs) != len(b.logs) {
		t.Fatalf("%s: log count differs: compiled %d vs walker %d", phase, len(a.logs), len(b.logs))
	}
	for i := range a.logs {
		if a.logs[i] != b.logs[i] {
			t.Fatalf("%s: log %d differs: %q vs %q", phase, i, a.logs[i], b.logs[i])
		}
	}
	if len(a.counters) != len(b.counters) {
		t.Fatalf("%s: counters differ: compiled %v vs walker %v", phase, a.counters, b.counters)
	}
	for n, va := range a.counters {
		if vb, ok := b.counters[n]; !ok || va != vb {
			t.Fatalf("%s: counter %q differs: compiled %d vs walker %d", phase, n, va, b.counters[n])
		}
	}
}

func TestCompiledMatchesTreeWalker(t *testing.T) {
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := lang.Parse(tc.source)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			compiledEx, err := New(prog)
			if err != nil {
				t.Fatalf("new compiled: %v", err)
			}
			walkEx, err := NewTreeWalker(prog)
			if err != nil {
				t.Fatalf("new walker: %v", err)
			}
			// The invariant is only meaningful if the compiled path is
			// actually active: no program construct may silently fall back.
			for name := range prog.Funcs {
				if !compiledEx.Compiled(name) {
					t.Fatalf("function %s fell back to the tree-walker", name)
				}
				if walkEx.Compiled(name) {
					t.Fatalf("NewTreeWalker compiled %s", name)
				}
			}

			recs := genRecords(t, tc.schemaText, 200)

			// Map phase, both executors over identical input.
			var mapC, mapW capture
			ctxC, ctxW := mapC.context(tc.conf), mapW.context(tc.conf)
			for i, r := range recs {
				if err := compiledEx.InvokeMap(serde.Int(int64(i)), r, ctxC); err != nil {
					mapC.errs = append(mapC.errs, err.Error())
				}
				if err := walkEx.InvokeMap(serde.Int(int64(i)), r, ctxW); err != nil {
					mapW.errs = append(mapW.errs, err.Error())
				}
			}
			compareCaptures(t, "map", mapC, mapW)

			// Reduce and Combine phases over the walker's (verified
			// identical) map output, grouped by key in first-seen order.
			for _, fn := range []string{lang.ReduceFuncName, lang.CombineFuncName} {
				if prog.Funcs[fn] == nil {
					continue
				}
				groups, order := groupByKey(mapW.emits)
				var redC, redW capture
				rctxC, rctxW := redC.context(tc.conf), redW.context(tc.conf)
				for _, key := range order {
					invoke := func(ex *Executor, ctx *Context, cap *capture) {
						it := &sliceIter{vals: groups[key].vals}
						var err error
						if fn == lang.ReduceFuncName {
							err = ex.InvokeReduce(groups[key].key, it, ctx)
						} else {
							err = ex.InvokeCombine(groups[key].key, it, ctx)
						}
						if err != nil {
							cap.errs = append(cap.errs, err.Error())
						}
					}
					invoke(compiledEx, rctxC, &redC)
					invoke(walkEx, rctxW, &redW)
				}
				compareCaptures(t, fn, redC, redW)
			}
		})
	}
}

type keyGroup struct {
	key  serde.Datum
	vals []EmitValue
}

func groupByKey(emits []emitted) (map[string]*keyGroup, []string) {
	groups := make(map[string]*keyGroup)
	var order []string
	for _, e := range emits {
		k := emitKey(e.k)
		g, ok := groups[k]
		if !ok {
			g = &keyGroup{key: e.k}
			groups[k] = g
			order = append(order, k)
		}
		g.vals = append(g.vals, e.v)
	}
	return groups, order
}
