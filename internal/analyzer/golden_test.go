package analyzer

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"manimal/internal/lang"
	"manimal/internal/programs"
	"manimal/internal/serde"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden descriptor corpus")

const (
	webPagesSchemaText   = "url:string,rank:int64,content:string"
	rankingsSchemaText   = "pageURL:string,pageRank:int64,avgDuration:int64"
	userVisitsSchemaText = "sourceIP:string,destURL:string,visitDate:int64,adRevenue:int64,userAgent:string,countryCode:string,languageCode:string,searchWord:string,duration:int64"
)

// goldenCase pins one corpus program's full analyzer output. The sources
// cover every program in internal/programs plus the inline mappers of
// examples/quickstart and examples/weblog (examples/adrevenue and
// examples/join reuse internal/programs constants).
type goldenCase struct {
	name   string
	source string
	schema string
}

var goldenCases = []goldenCase{
	{"benchmark1-selection", programs.Benchmark1Selection, "tuple:string"},
	{"benchmark2-aggregation", programs.Benchmark2Aggregation, userVisitsSchemaText},
	{"benchmark3-join-uservisits", programs.Benchmark3JoinUserVisits, userVisitsSchemaText},
	{"benchmark3-join-rankings", programs.Benchmark3JoinRankings, rankingsSchemaText},
	{"benchmark4-udf-aggregation", programs.Benchmark4UDFAggregation, "content:string"},
	{"selection-query", programs.SelectionQuery, webPagesSchemaText},
	{"projection-query", programs.ProjectionQuery, webPagesSchemaText},
	{"delta-query", programs.DeltaQuery, userVisitsSchemaText},
	{"compression-query", programs.CompressionQuery, userVisitsSchemaText},
	// examples/quickstart inline mapper.
	{"example-quickstart", `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("rank") > ctx.ConfInt("threshold") {
		ctx.Emit(v.Str("url"), v.Int("rank"))
	}
}
`, webPagesSchemaText},
	// examples/weblog inline mapper (with its ctx.Log side effect).
	{"example-weblog", `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("visitDate") > ctx.ConfInt("since") {
		ctx.Log("recent visit: " + v.Str("sourceIP"))
		ctx.Emit(v.Str("countryCode"), 1)
	}
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	visits := 0
	for values.Next() {
		visits = visits + values.Int()
	}
	ctx.Emit(key, visits)
}

func Combine(key Datum, values *Iter, ctx *Ctx) {
	visits := 0
	for values.Next() {
		visits = visits + values.Int()
	}
	ctx.Emit(key, visits)
}
`, userVisitsSchemaText},
}

// dumpDescriptor renders a Descriptor deterministically for golden files.
// Side-effect positions include source offsets, which are stable because
// the corpus sources are committed verbatim.
func dumpDescriptor(d *Descriptor) string {
	var b strings.Builder
	if d.Select != nil {
		fmt.Fprintf(&b, "select: %s\n", d.Select.Formula.Canon())
		fmt.Fprintf(&b, "  index-keys: %v\n", d.Select.IndexKeys)
		if d.Select.Approximate {
			fmt.Fprintf(&b, "  approximate: true\n")
		}
	} else {
		fmt.Fprintf(&b, "select: none\n")
	}
	if d.Project != nil {
		fmt.Fprintf(&b, "project: used=%v dropped=%v\n", d.Project.UsedFields, d.Project.DroppedFields)
	} else {
		fmt.Fprintf(&b, "project: none\n")
	}
	if d.Delta != nil {
		fmt.Fprintf(&b, "delta: %v\n", d.Delta.Fields)
	} else {
		fmt.Fprintf(&b, "delta: none\n")
	}
	if d.DirectOp != nil {
		fmt.Fprintf(&b, "direct-op: %v\n", d.DirectOp.Fields)
	} else {
		fmt.Fprintf(&b, "direct-op: none\n")
	}
	if d.Combine != nil {
		fmt.Fprintf(&b, "combine: %s\n", d.Combine.Op)
	} else {
		fmt.Fprintf(&b, "combine: none\n")
	}
	if d.Aggregate != nil {
		fmt.Fprintf(&b, "aggregate: %s\n", d.Aggregate)
	}
	for _, s := range d.SideEffects {
		fmt.Fprintf(&b, "side-effect: %s\n", s)
	}
	for _, n := range d.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// TestTable1MatchesPaper reproduces the analyzer-recall matrix of paper
// Table 1 over the human-annotated benchmarks, including the deliberate
// misses (Benchmark 1 projection and delta, Benchmark 4 selection), and
// requires that no optimization annotated NotPresent is ever detected.
func TestTable1MatchesPaper(t *testing.T) {
	// Detected select, project, delta per benchmark, in Table1 order.
	want := [][3]bool{
		{true, false, false},
		{false, true, true},
		{true, false, true},
		{false, false, false},
	}
	if len(programs.Table1) != len(want) {
		t.Fatalf("programs.Table1 has %d rows, want %d", len(programs.Table1), len(want))
	}
	for i, truth := range programs.Table1 {
		p, err := lang.Parse(truth.Source)
		if err != nil {
			t.Fatalf("%s: parse: %v", truth.Name, err)
		}
		schema, err := serde.ParseSchema(truth.SchemaText)
		if err != nil {
			t.Fatalf("%s: schema: %v", truth.Name, err)
		}
		d, err := Analyze(p, schema)
		if err != nil {
			t.Fatalf("%s: analyze: %v", truth.Name, err)
		}
		got := [3]bool{d.Select != nil, d.Project != nil, d.Delta != nil}
		if got != want[i] {
			t.Errorf("%s: detected select/project/delta = %v, want %v", truth.Name, got, want[i])
		}
		for j, present := range []programs.Presence{truth.Select, truth.Project, truth.Delta} {
			if present == programs.NotPresent && got[j] {
				t.Errorf("%s: false positive on %s", truth.Name, []string{"select", "project", "delta"}[j])
			}
		}
	}
}

// TestGoldenDescriptorCorpus analyzes every corpus program and compares the
// complete descriptor — including rejection notes — against the committed
// golden dumps. Run with -update to rewrite them after an intentional
// analyzer change; the diff then documents exactly what the change widened
// or narrowed.
func TestGoldenDescriptorCorpus(t *testing.T) {
	for _, tc := range goldenCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p, err := lang.Parse(tc.source)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			schema, err := serde.ParseSchema(tc.schema)
			if err != nil {
				t.Fatalf("schema: %v", err)
			}
			d, err := Analyze(p, schema)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			checkGolden(t, tc.name, dumpDescriptor(d))
		})
	}
}

// TestGoldenJoinVerdict pins the join shape and the semi-join verdict of
// paper Benchmark 3's two programs, as a job submits them (UserVisits
// first, its Reduce the job's).
func TestGoldenJoinVerdict(t *testing.T) {
	uv, err := lang.Parse(programs.Benchmark3JoinUserVisits)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := lang.Parse(programs.Benchmark3JoinRankings)
	if err != nil {
		t.Fatal(err)
	}
	uvs, err := serde.ParseSchema(userVisitsSchemaText)
	if err != nil {
		t.Fatal(err)
	}
	rks, err := serde.ParseSchema(rankingsSchemaText)
	if err != nil {
		t.Fatal(err)
	}
	j := DetectJoin(uv, uvs, rk, rks)
	if j == nil {
		t.Fatal("Benchmark 3 join not detected")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "join: %s\n", j)
	if p := j.SemiJoin; p != nil {
		fmt.Fprintf(&b, "semi-join: build input %d, tag %q, counter %s\n", p.Build, p.Tag, p.Counter)
	} else {
		fmt.Fprintf(&b, "semi-join: refused: %s\n", j.SemiJoinRefused)
	}
	for _, n := range j.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	checkGolden(t, "benchmark3-join-pair", b.String())
}

// checkGolden compares got with testdata/golden/<name>.golden, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run `go test ./internal/analyzer -run Golden -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("descriptor drifted from golden %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
