// Package programs holds the mapper-language source of the benchmark
// programs used throughout the paper's evaluation: the four tasks of Pavlo
// et al. (Section 4.1, Table 1) and the single-optimization queries of
// Section 4.3 / Appendix D. Each benchmark carries the human ground-truth
// annotation of which optimizations are present, so the Table 1 recall
// experiment can be regenerated.
package programs

// Benchmark 1 — Selection (Pavlo: SELECT pageURL, pageRank FROM Rankings
// WHERE pageRank > X). Written in the AbstractTuple style the paper
// describes: the whole tuple lives in one opaque pipe-separated string
// field, so the analyzer cannot distinguish fields (projection and
// delta-compression go undetected) but the selection chain —
// Split/Atoi/compare — is functional and therefore detected, with the key
// expression itself becoming the B+Tree key.
const Benchmark1Selection = `
func Map(k, v *Record, ctx *Ctx) {
	parts := strings.Split(v.Str("tuple"), "|")
	rank := strconv.Atoi(parts[1])
	if rank > ctx.ConfInt("threshold") {
		ctx.Emit(parts[0], rank)
	}
}
`

// Benchmark 2 — Aggregation (Pavlo: SELECT sourceIP, SUM(adRevenue) FROM
// UserVisits GROUP BY sourceIP). No selection (every record emits);
// projection (only 2 of 9 fields used) and delta-compression (numeric
// fields) are detected. Direct-operation is not applicable: Reduce emits
// its key, so recoded sourceIP values would reach the output.
const Benchmark2Aggregation = `
func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(v.Str("sourceIP"), v.Int("adRevenue"))
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	sum := 0
	for values.Next() {
		sum = sum + values.Int()
	}
	ctx.Emit(key, sum)
}

func Combine(key Datum, values *Iter, ctx *Ctx) {
	sum := 0
	for values.Next() {
		sum = sum + values.Int()
	}
	ctx.Emit(key, sum)
}
`

// Benchmark 3 — Join (Pavlo: filter UserVisits to a date range, join with
// Rankings on destURL = pageURL, report revenue and rank). The UserVisits
// map imposes the selection predicate that removes almost all records;
// recognizing it lets Manimal range-scan a visitDate index even though it
// knows nothing about join processing (paper Section 4.2).
const Benchmark3JoinUserVisits = `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("visitDate") >= ctx.ConfInt("dateLo") && v.Int("visitDate") < ctx.ConfInt("dateHi") {
		ctx.Emit(v.Str("destURL"), v)
	}
}

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

// Benchmark3JoinRankings is the Rankings-side map of the join: a straight
// re-key on pageURL. It emits whole records unconditionally, so no
// selection or projection applies to this input; an optimized join runs
// it as the probe side of a semi-join instead (analyzer.SemiJoinProof).
const Benchmark3JoinRankings = `
func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(v.Str("pageURL"), v)
}
`

// Benchmark 4 — UDF Aggregation (Pavlo: parse documents, count URL
// references). The map tokenizes text and uses a hash map (the paper's
// Java Hashtable) to de-duplicate URLs before emitting. The implicit
// selection — documents without URLs emit nothing — goes undetected: the
// analyzer has no functional model of the map (make) and conservatively
// refuses emits inside loops. Exactly the paper's Benchmark 4 miss. The
// interpreter runs the loop lazily all the same — the word list is never
// built, and the HasPrefix guard lets it jump from one "http://" to the
// next — while the selection itself stays undetected.
const Benchmark4UDFAggregation = `
func Map(k, v *Record, ctx *Ctx) {
	seen := make(map[string]bool)
	words := strings.Fields(v.Str("content"))
	for _, w := range words {
		if strings.HasPrefix(w, "http://") {
			dup := seen[w]
			if !dup {
				seen[w] = true
				ctx.Emit(w, 1)
			}
		}
	}
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	count := 0
	for values.Next() {
		count = count + values.Int()
	}
	ctx.Emit(key, count)
}
`

// SelectionQuery is the Section 4.3 single-optimization query:
// SELECT pageRank, COUNT(url) FROM WebPages WHERE pageRank > Threshold
// GROUP BY pageRank.
const SelectionQuery = `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("rank") > ctx.ConfInt("threshold") {
		ctx.Emit(v.Int("rank"), 1)
	}
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	count := 0
	for values.Next() {
		count = count + values.Int()
	}
	ctx.Emit(key, count)
}

func Combine(key Datum, values *Iter, ctx *Ctx) {
	count := 0
	for values.Next() {
		count = count + values.Int()
	}
	ctx.Emit(key, count)
}
`

// ProjectionQuery is the Appendix D projection query:
// SELECT url, pageRank FROM WebPages WHERE pageRank > threshold.
// The huge content field is never touched, so the projected index is a
// tiny fraction of the original file (paper Table 4).
const ProjectionQuery = `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("rank") > ctx.ConfInt("threshold") {
		ctx.Emit(v.Str("url"), v.Int("rank"))
	}
}
`

// DeltaQuery is the Appendix D delta-compression program: it touches only
// the numeric UserVisits fields (daily duration totals), so "projecting out
// all non-numeric fields" — exactly what the paper's Table 5 does — leaves
// a purely numeric file whose delta encoding shows the large space saving.
const DeltaQuery = `
func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(v.Int("visitDate")/86400, v.Int("duration"))
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	sum := 0
	for values.Next() {
		sum = sum + values.Int()
	}
	ctx.Emit(key, sum)
}

func Combine(key Datum, values *Iter, ctx *Ctx) {
	sum := 0
	for values.Next() {
		sum = sum + values.Int()
	}
	ctx.Emit(key, sum)
}
`

// CompressionQuery is the Appendix D compression program: it sums duration
// grouped by destURL but never emits the URL itself — destURL is used only
// as the reduce key, which is what makes direct operation on compressed
// codes safe (the group-by needs equality, nothing needs the string).
const CompressionQuery = `
func Map(k, v *Record, ctx *Ctx) {
	ctx.Emit(v.Str("destURL"), v.Int("duration"))
}

func Reduce(key Datum, values *Iter, ctx *Ctx) {
	sum := 0
	for values.Next() {
		sum = sum + values.Int()
	}
	ctx.Emit(0, sum)
}

func Combine(key Datum, values *Iter, ctx *Ctx) {
	sum := 0
	for values.Next() {
		sum = sum + values.Int()
	}
	ctx.Emit(key, sum)
}
`

// Presence is the human ground-truth annotation for one optimization in
// one benchmark (paper Table 1 legend).
type Presence uint8

// Presence values.
const (
	NotPresent Presence = iota
	Present
)

// String renders the annotation.
func (p Presence) String() string {
	if p == Present {
		return "present"
	}
	return "not-present"
}

// Table1Truth is one benchmark's human annotation row.
type Table1Truth struct {
	Name        string
	Description string
	// Source is the map program the analyzer sees (for multi-input
	// Benchmark 3 the annotated side is the UserVisits map).
	Source string
	// SchemaText describes the input schema the analyzer is given.
	SchemaText string
	Select     Presence
	Project    Presence
	Delta      Presence
}

// Table1 carries the four benchmarks with the paper's Table 1 annotations.
var Table1 = []Table1Truth{
	{
		Name:        "Benchmark-1",
		Description: "Selection",
		Source:      Benchmark1Selection,
		SchemaText:  "tuple:string",
		Select:      Present,
		Project:     Present, // goes undetected: opaque AbstractTuple
		Delta:       Present, // goes undetected: opaque AbstractTuple
	},
	{
		Name:        "Benchmark-2",
		Description: "Aggregation",
		Source:      Benchmark2Aggregation,
		SchemaText:  "sourceIP:string,destURL:string,visitDate:int64,adRevenue:int64,userAgent:string,countryCode:string,languageCode:string,searchWord:string,duration:int64",
		Select:      NotPresent,
		Project:     Present,
		Delta:       Present,
	},
	{
		Name:        "Benchmark-3",
		Description: "Join",
		Source:      Benchmark3JoinUserVisits,
		SchemaText:  "sourceIP:string,destURL:string,visitDate:int64,adRevenue:int64,userAgent:string,countryCode:string,languageCode:string,searchWord:string,duration:int64",
		Select:      Present,
		Project:     NotPresent, // whole record emitted
		Delta:       Present,
	},
	{
		Name:        "Benchmark-4",
		Description: "UDF Aggregation",
		Source:      Benchmark4UDFAggregation,
		SchemaText:  "content:string",
		Select:      Present, // goes undetected: hash-map filtering in a loop
		Project:     NotPresent,
		Delta:       NotPresent,
	},
}
