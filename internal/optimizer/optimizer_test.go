package optimizer

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"manimal/internal/analyzer"
	"manimal/internal/catalog"
	"manimal/internal/lang"
	"manimal/internal/predicate"
	"manimal/internal/serde"
	"manimal/internal/storage"
)

var uvSchema = serde.MustSchema(
	serde.Field{Name: "destURL", Kind: serde.KindString},
	serde.Field{Name: "visitDate", Kind: serde.KindInt64},
	serde.Field{Name: "duration", Kind: serde.KindInt64},
)

func describe(t *testing.T, src string) *analyzer.Descriptor {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := analyzer.Analyze(p, uvSchema)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

const selProg = `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("visitDate") > ctx.ConfInt("since") {
		ctx.Emit(v.Int("visitDate"), v.Int("duration"))
	}
}
`

func TestChooseOriginalWhenCatalogEmpty(t *testing.T) {
	d := describe(t, selProg)
	plan := Choose(d, "uv.rec", uvSchema, nil, predicate.Config{"since": serde.Int(5)}, Options{})
	if plan.Kind != PlanOriginal {
		t.Fatalf("plan = %v", plan.Kind)
	}
}

func TestChooseBTree(t *testing.T) {
	d := describe(t, selProg)
	entries := []catalog.Entry{{
		InputPath: "uv.rec", IndexPath: "uv.idx", Kind: catalog.KindBTree,
		KeyExpr: `v.Int("visitDate")`,
		Fields:  []string{"destURL", "visitDate", "duration"},
	}}
	plan := Choose(d, "uv.rec", uvSchema, entries, predicate.Config{"since": serde.Int(5)}, Options{})
	if plan.Kind != PlanBTree || plan.IndexPath != "uv.idx" {
		t.Fatalf("plan = %+v", plan)
	}
	if len(plan.Ranges) != 1 || plan.Ranges[0].String() != "(5, +inf)" {
		t.Fatalf("ranges = %v", plan.Ranges)
	}
}

func TestBTreeRequiresFieldCoverage(t *testing.T) {
	d := describe(t, selProg)
	// The index dropped duration, which the program emits: unusable.
	entries := []catalog.Entry{{
		InputPath: "uv.rec", IndexPath: "uv.idx", Kind: catalog.KindBTree,
		KeyExpr: `v.Int("visitDate")`,
		Fields:  []string{"visitDate"},
	}}
	plan := Choose(d, "uv.rec", uvSchema, entries, predicate.Config{"since": serde.Int(5)}, Options{})
	if plan.Kind != PlanOriginal {
		t.Fatalf("plan = %+v", plan)
	}
}

func TestBTreeKeyMismatchRejected(t *testing.T) {
	d := describe(t, selProg)
	entries := []catalog.Entry{{
		InputPath: "uv.rec", IndexPath: "uv.idx", Kind: catalog.KindBTree,
		KeyExpr: `v.Int("duration")`, // wrong key
		Fields:  uvSchema.FieldNames(),
	}}
	plan := Choose(d, "uv.rec", uvSchema, entries, predicate.Config{"since": serde.Int(5)}, Options{})
	if plan.Kind != PlanOriginal {
		t.Fatalf("plan = %+v", plan)
	}
}

func TestPreferMostProjectedBTree(t *testing.T) {
	d := describe(t, selProg)
	entries := []catalog.Entry{
		{InputPath: "uv.rec", IndexPath: "full.idx", Kind: catalog.KindBTree,
			KeyExpr: `v.Int("visitDate")`, Fields: uvSchema.FieldNames()},
		{InputPath: "uv.rec", IndexPath: "proj.idx", Kind: catalog.KindBTree,
			KeyExpr: `v.Int("visitDate")`, Fields: []string{"visitDate", "duration"}},
	}
	plan := Choose(d, "uv.rec", uvSchema, entries, predicate.Config{"since": serde.Int(5)}, Options{})
	if plan.IndexPath != "proj.idx" {
		t.Fatalf("plan = %+v", plan)
	}
	if len(plan.Applied) != 2 {
		t.Fatalf("applied = %v, want selection+projection", plan.Applied)
	}
}

// TestStaleIndexSkipped: an entry whose input fingerprint no longer
// matches must never be chosen, with a plan note explaining the skip —
// otherwise a rewritten input silently serves results from the old index.
func TestStaleIndexSkipped(t *testing.T) {
	d := describe(t, selProg)
	dir := t.TempDir()
	input := filepath.Join(dir, "uv.rec")
	if err := os.WriteFile(input, []byte("original contents"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(input)
	if err != nil {
		t.Fatal(err)
	}
	entries := []catalog.Entry{{
		InputPath: input, IndexPath: "uv.idx", Kind: catalog.KindBTree,
		KeyExpr:           `v.Int("visitDate")`,
		Fields:            uvSchema.FieldNames(),
		InputSizeBytes:    st.Size(),
		InputModTimeNanos: st.ModTime().UnixNano(),
	}}
	conf := predicate.Config{"since": serde.Int(5)}

	fresh := Choose(d, input, uvSchema, entries, conf, Options{})
	if fresh.Kind != PlanBTree {
		t.Fatalf("fresh index not chosen: %+v", fresh)
	}

	// Rewrite the input: size and mtime both change.
	if err := os.WriteFile(input, []byte("rewritten, different length"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(input, time.Now(), st.ModTime().Add(3*time.Second)); err != nil {
		t.Fatal(err)
	}
	stale := Choose(d, input, uvSchema, entries, conf, Options{})
	if stale.Kind != PlanOriginal {
		t.Fatalf("stale index chosen: %+v", stale)
	}
	found := false
	for _, n := range stale.Notes {
		if strings.Contains(n, "stale") {
			found = true
		}
	}
	if !found {
		t.Errorf("no stale note in plan notes: %v", stale.Notes)
	}

	// Entries without a fingerprint (older catalogs) are still usable.
	entries[0].InputSizeBytes, entries[0].InputModTimeNanos = 0, 0
	legacy := Choose(d, input, uvSchema, entries, conf, Options{})
	if legacy.Kind != PlanBTree {
		t.Fatalf("fingerprint-less entry rejected: %+v", legacy)
	}
}

// TestShardedBTreeEntryChosen: catalog.KindBTreeSharded competes exactly
// like a single-file tree.
func TestShardedBTreeEntryChosen(t *testing.T) {
	d := describe(t, selProg)
	entries := []catalog.Entry{{
		InputPath: "uv.rec", IndexPath: "uv.idx", Kind: catalog.KindBTreeSharded,
		Shards:  4,
		KeyExpr: `v.Int("visitDate")`,
		Fields:  uvSchema.FieldNames(),
	}}
	plan := Choose(d, "uv.rec", uvSchema, entries, predicate.Config{"since": serde.Int(5)}, Options{})
	if plan.Kind != PlanBTree || plan.IndexPath != "uv.idx" {
		t.Fatalf("sharded entry not chosen: %+v", plan)
	}
}

const aggProg = `
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
`

func TestChooseRecordFileRanking(t *testing.T) {
	d := describe(t, aggProg)
	entries := []catalog.Entry{
		{InputPath: "uv.rec", IndexPath: "delta.rec", Kind: catalog.KindRecordFile,
			Fields:    uvSchema.FieldNames(),
			Encodings: map[string]string{"duration": "delta"}},
		{InputPath: "uv.rec", IndexPath: "proj.rec", Kind: catalog.KindRecordFile,
			Fields: []string{"destURL", "duration"}},
	}
	plan := Choose(d, "uv.rec", uvSchema, entries, nil, Options{})
	// Projection (score 4) must beat delta alone (score 1).
	if plan.IndexPath != "proj.rec" {
		t.Fatalf("plan = %+v", plan)
	}
}

// TestRetiredFormatVariantSkipped: a catalog variant whose file is still
// in a retired record-file format is passed over with a plan note, like a
// stale one, and the next-ranked variant — or the original — runs the job.
func TestRetiredFormatVariantSkipped(t *testing.T) {
	old := writeUVFile(t, 100)
	raw, err := os.ReadFile(old)
	if err != nil {
		t.Fatal(err)
	}
	copy(raw[len(raw)-len("MANIMAL3"):], "MANIMAL3")
	if err := os.WriteFile(old, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	d := describe(t, aggProg)
	entries := []catalog.Entry{
		{InputPath: "uv.rec", IndexPath: old, Kind: catalog.KindRecordFile,
			Fields: []string{"destURL", "duration"}},
		{InputPath: "uv.rec", IndexPath: "delta.rec", Kind: catalog.KindRecordFile,
			Fields:    uvSchema.FieldNames(),
			Encodings: map[string]string{"duration": "delta"}},
	}
	plan := Choose(d, "uv.rec", uvSchema, entries, nil, Options{})
	if plan.IndexPath != "delta.rec" {
		t.Fatalf("retired-format variant not passed over: %+v", plan)
	}
	if notes := strings.Join(plan.Notes, "\n"); !strings.Contains(notes, storage.ErrUnsupportedFormat.Error()) {
		t.Fatalf("no retired-format note; notes = %v", plan.Notes)
	}
	if plan := Choose(d, "uv.rec", uvSchema, entries[:1], nil, Options{}); plan.Kind != PlanOriginal {
		t.Fatalf("only variant is unreadable, yet plan = %+v", plan)
	}
}

func TestDirectCodesGating(t *testing.T) {
	d := describe(t, aggProg)
	if d.DirectOp == nil {
		t.Fatalf("direct-op not detected; notes %v", d.Notes)
	}
	entries := []catalog.Entry{{
		InputPath: "uv.rec", IndexPath: "dict.rec", Kind: catalog.KindRecordFile,
		Fields:    uvSchema.FieldNames(),
		Encodings: map[string]string{"destURL": "dict"},
	}}
	plan := Choose(d, "uv.rec", uvSchema, entries, nil, Options{})
	if plan.Kind != PlanRecordFile || !plan.DirectCodes {
		t.Fatalf("plan = %+v", plan)
	}
	// Sorted output forbids recoded keys (paper footnote 1)...
	sorted := Choose(d, "uv.rec", uvSchema, entries, nil, Options{SortedOutput: true})
	if sorted.DirectCodes {
		t.Fatal("direct codes enabled despite SortedOutput")
	}
	// ...and with no other benefit the dict file is then pointless: the
	// optimizer reads it in decode mode only if something else is gained.
	if sorted.Kind != PlanOriginal {
		t.Fatalf("sorted plan = %+v", sorted)
	}
}

func TestNilDescriptorRunsUnmodified(t *testing.T) {
	plan := Choose(nil, "uv.rec", uvSchema, nil, nil, Options{})
	if plan.Kind != PlanOriginal {
		t.Fatalf("plan = %+v", plan)
	}
}

const loggingSelProg = `
func Map(k, v *Record, ctx *Ctx) {
	ctx.Log(v.Str("destURL"))
	if v.Int("visitDate") > ctx.ConfInt("since") {
		ctx.Emit(v.Int("visitDate"), v.Int("duration"))
	}
}
`

// TestSafeMode implements paper footnote 2: with side effects present,
// safe mode must refuse selection (skipped invocations would skip logs)
// and projection (dropped fields may be logged), while a program without
// side effects is unaffected.
func TestSafeMode(t *testing.T) {
	d := describe(t, loggingSelProg)
	if len(d.SideEffects) == 0 {
		t.Fatal("side effect not detected")
	}
	entries := []catalog.Entry{
		{InputPath: "uv.rec", IndexPath: "uv.idx", Kind: catalog.KindBTree,
			KeyExpr: `v.Int("visitDate")`, Fields: uvSchema.FieldNames()},
		{InputPath: "uv.rec", IndexPath: "proj.rec", Kind: catalog.KindRecordFile,
			Fields: []string{"visitDate", "duration"}},
		{InputPath: "uv.rec", IndexPath: "delta.rec", Kind: catalog.KindRecordFile,
			Fields:    uvSchema.FieldNames(),
			Encodings: map[string]string{"visitDate": "delta"}},
	}
	conf := predicate.Config{"since": serde.Int(5)}

	normal := Choose(d, "uv.rec", uvSchema, entries, conf, Options{})
	if normal.Kind != PlanBTree {
		t.Fatalf("normal plan = %+v", normal)
	}
	safe := Choose(d, "uv.rec", uvSchema, entries, conf, Options{SafeMode: true})
	if safe.Kind == PlanBTree {
		t.Fatal("safe mode used a selection index despite side effects")
	}
	// Lossless delta over the full field set remains allowed.
	if safe.Kind != PlanRecordFile || safe.IndexPath != "delta.rec" {
		t.Fatalf("safe plan = %+v", safe)
	}

	// A program without side effects is unaffected by safe mode.
	clean := describe(t, selProg)
	cleanSafe := Choose(clean, "uv.rec", uvSchema, entries, conf, Options{SafeMode: true})
	if cleanSafe.Kind != PlanBTree {
		t.Fatalf("safe mode blocked a side-effect-free program: %+v", cleanSafe)
	}
}

// TestPushdownOnOriginalPlan: with no usable index, the selection formula
// and used-field set still push down into the original file's scan.
func TestPushdownOnOriginalPlan(t *testing.T) {
	d := describe(t, selProg)
	input := writeUVFile(t, 2000)
	plan := Choose(d, input, uvSchema, nil, predicate.Config{"since": serde.Int(5)}, Options{})
	if plan.Kind != PlanOriginal {
		t.Fatalf("plan = %+v", plan)
	}
	pd := plan.Pushdown
	if pd == nil || pd.Filter == nil || !pd.Residual {
		t.Fatalf("pushdown = %+v; want filter+residual", pd)
	}
	// selProg reads visitDate and duration; destURL must be masked out.
	if len(pd.Fields) != 2 {
		t.Fatalf("pushdown fields = %v", pd.Fields)
	}
	wantApplied := map[string]bool{"field-prune": false, "block-skip": false}
	for _, a := range plan.Applied {
		if _, ok := wantApplied[a]; ok {
			wantApplied[a] = true
		}
	}
	for a, seen := range wantApplied {
		if !seen {
			t.Fatalf("applied = %v, missing %s (notes %v)", plan.Applied, a, plan.Notes)
		}
	}

	// An unopenable input keeps the filter but must NOT claim block-skip:
	// the file might predate stats, where the tag would be a lie.
	missing := Choose(d, filepath.Join(t.TempDir(), "absent.rec"), uvSchema, nil,
		predicate.Config{"since": serde.Int(5)}, Options{})
	if missing.Pushdown == nil || missing.Pushdown.Filter == nil {
		t.Fatalf("missing-file plan lost its filter: %+v", missing)
	}
	for _, a := range missing.Applied {
		if a == "block-skip" {
			t.Fatalf("unverifiable file tagged block-skip: %v (notes %v)", missing.Applied, missing.Notes)
		}
	}
}

// writeUVFile writes a small stats-bearing uvSchema file with a monotone
// visitDate for the pushdown tests.
func writeUVFile(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "uv.rec")
	w, err := storage.NewWriter(path, uvSchema, storage.WriterOptions{BlockSize: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r := serde.NewRecord(uvSchema)
		r.MustSet("destURL", serde.String("http://example.com/p"))
		r.MustSet("visitDate", serde.Int(int64(i)))
		r.MustSet("duration", serde.Int(int64(i%60)))
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPushdownSelectivityEstimate: over a real stats-bearing file the plan
// note reports how many blocks the zone maps can prune.
func TestPushdownSelectivityEstimate(t *testing.T) {
	dir := t.TempDir()
	input := filepath.Join(dir, "uv.rec")
	w, err := storage.NewWriter(input, uvSchema, storage.WriterOptions{BlockSize: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		r := serde.NewRecord(uvSchema)
		r.MustSet("destURL", serde.String("http://example.com/p"))
		r.MustSet("visitDate", serde.Int(int64(i))) // monotone: prunable
		r.MustSet("duration", serde.Int(int64(i%60)))
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	d := describe(t, selProg)
	plan := Choose(d, input, uvSchema, nil, predicate.Config{"since": serde.Int(3950)}, Options{})
	if plan.Pushdown == nil || plan.Pushdown.Filter == nil {
		t.Fatalf("plan = %+v", plan)
	}
	found := false
	for _, n := range plan.Notes {
		if strings.Contains(n, "blocks prunable") {
			found = true
			if strings.Contains(n, " 0/") {
				t.Fatalf("estimate pruned nothing on a monotone key: %q", n)
			}
		}
	}
	if !found {
		t.Fatalf("no block-skip estimate note; notes = %v", plan.Notes)
	}
}

// TestPushdownDisabledInSafeMode: guarded plans keep every record and
// every field, so no pushdown may be attached.
func TestPushdownDisabledInSafeMode(t *testing.T) {
	d := describe(t, loggingSelProg)
	plan := Choose(d, "uv.rec", uvSchema, nil, predicate.Config{"since": serde.Int(5)}, Options{SafeMode: true})
	if plan.Pushdown != nil {
		t.Fatalf("safe mode attached a pushdown: %+v (notes %v)", plan.Pushdown, plan.Notes)
	}
}

// TestPushdownOnRecordFileVariant: a chosen re-encoded variant also gets
// the filter, and the mask only applies when the variant stores more
// fields than the program needs.
func TestPushdownOnRecordFileVariant(t *testing.T) {
	d := describe(t, selProg)
	entries := []catalog.Entry{{
		InputPath: "uv.rec", IndexPath: "proj.rec", Kind: catalog.KindRecordFile,
		Fields: []string{"visitDate", "duration"},
	}}
	plan := Choose(d, "uv.rec", uvSchema, entries, predicate.Config{"since": serde.Int(5)}, Options{})
	if plan.Kind != PlanRecordFile {
		t.Fatalf("plan = %+v", plan)
	}
	pd := plan.Pushdown
	if pd == nil || pd.Filter == nil || !pd.Residual {
		t.Fatalf("pushdown = %+v", pd)
	}
	// The variant stores exactly the used fields: no mask needed.
	if pd.Fields != nil {
		t.Fatalf("mask on exactly-projected variant: %v", pd.Fields)
	}
}
