package storage

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"manimal/internal/predicate"
	"manimal/internal/serde"
)

// tsFilter builds the zone filter for lo <= ts < hi (unbounded sides with
// invalid datums).
func tsFilter(lo, hi serde.Datum) predicate.ZoneFilter {
	iv := predicate.Interval{Lo: lo, LoInc: true, Hi: hi}
	return predicate.ZoneFilter{{predicate.FieldInterval{Field: "ts", Iv: iv}}}
}

// oracleFilter applies a ZoneFilter to records in plain Go: the reference
// result pruned scans must match byte for byte.
func oracleFilter(recs []*serde.Record, f predicate.ZoneFilter) []*serde.Record {
	var out []*serde.Record
	for _, r := range recs {
		if f.MatchesRecord(r) {
			out = append(out, r)
		}
	}
	return out
}

// scanPushdown runs a pushdown scan over the whole file, returning cloned
// surviving records and their record indexes.
func scanPushdown(t *testing.T, path string, pd *Pushdown) ([]*serde.Record, []int64) {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sc, err := scanRows(r, 0, r.NumBlocks(), pd)
	if err != nil {
		t.Fatal(err)
	}
	var recs []*serde.Record
	var idx []int64
	for sc.Next() {
		recs = append(recs, sc.Record().Clone())
		idx = append(idx, sc.RecordIndex())
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	return recs, idx
}

// TestPrunedScanDifferential is the core zone-map correctness gate: across
// every encoding combination, a pushdown scan (block skipping + residual
// filter) returns exactly the records a full scan plus an independent
// predicate evaluation returns — including predicates straddling block
// boundaries, an all-pruned predicate, and a none-pruned predicate.
func TestPrunedScanDifferential(t *testing.T) {
	recs := makeRecords(4000, 21)
	encodings := map[string]WriterOptions{
		"plain": {BlockSize: 2 << 10},
		"delta": {BlockSize: 2 << 10, Encodings: map[string]FieldEncoding{"ts": EncodeDelta}},
		"dict":  {BlockSize: 2 << 10, Encodings: map[string]FieldEncoding{"url": EncodeDict}},
		"mixed": {BlockSize: 2 << 10, Encodings: map[string]FieldEncoding{
			"ts": EncodeDelta, "url": EncodeDict}},
	}
	minTS := recs[0].Get("ts").Int()
	maxTS := recs[len(recs)-1].Get("ts").Int() // ts is non-decreasing
	filters := map[string]predicate.ZoneFilter{
		"mid-1pct":   tsFilter(serde.Int((minTS+maxTS)/2), serde.Int((minTS+maxTS)/2+(maxTS-minTS)/100)),
		"straddle":   tsFilter(serde.Int(minTS+7), serde.Int(minTS+7+(maxTS-minTS)/3)),
		"all-pruned": tsFilter(serde.Int(maxTS+1000), serde.Datum{}),
		"none":       tsFilter(serde.Datum{}, serde.Datum{}),
		"url-eq": {{predicate.FieldInterval{Field: "url",
			Iv: predicate.PointInterval(serde.String("http://b.example/y"))}}},
		"disjunct": {
			{predicate.FieldInterval{Field: "ts", Iv: predicate.Interval{Hi: serde.Int(minTS + 100)}}},
			{predicate.FieldInterval{Field: "ts", Iv: predicate.Interval{Lo: serde.Int(maxTS - 100), LoInc: true}}},
		},
	}
	for encName, opts := range encodings {
		path := filepath.Join(t.TempDir(), encName+".rec")
		writeFile(t, path, recs, opts)
		for fName, filter := range filters {
			t.Run(encName+"/"+fName, func(t *testing.T) {
				want := oracleFilter(recs, filter)
				got, _ := scanPushdown(t, path, &Pushdown{Filter: filter, Residual: true})
				requireEqual(t, want, got)
				if fName == "none" && len(got) != len(recs) {
					t.Fatalf("unbounded filter lost records: %d of %d", len(got), len(recs))
				}
				if fName == "all-pruned" && len(got) != 0 {
					t.Fatalf("impossible predicate returned %d records", len(got))
				}
			})
		}
	}
}

// TestPrunedScanSkipsBlocks asserts the pruning actually happens (not just
// that results are right): a 1%-selectivity range over the monotone ts
// field must skip most blocks without reading them.
func TestPrunedScanSkipsBlocks(t *testing.T) {
	recs := makeRecords(4000, 22)
	path := filepath.Join(t.TempDir(), "skip.rec")
	writeFile(t, path, recs, WriterOptions{BlockSize: 2 << 10})
	minTS := recs[0].Get("ts").Int()
	maxTS := recs[len(recs)-1].Get("ts").Int()
	filter := tsFilter(serde.Int((minTS+maxTS)/2), serde.Int((minTS+maxTS)/2+(maxTS-minTS)/100))

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sc, err := scanRows(r, 0, r.NumBlocks(), &Pushdown{Filter: filter, Residual: true})
	if err != nil {
		t.Fatal(err)
	}
	for sc.Next() {
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	st := sc.Stats()
	if st.BlocksRead+st.BlocksSkipped != int64(r.NumBlocks()) {
		t.Fatalf("blocks read %d + skipped %d != total %d", st.BlocksRead, st.BlocksSkipped, r.NumBlocks())
	}
	if st.BlocksSkipped < int64(r.NumBlocks())/2 {
		t.Fatalf("1%%-selectivity scan skipped only %d of %d blocks", st.BlocksSkipped, r.NumBlocks())
	}
}

// TestFieldPruning checks the decode mask: masked fields read as their
// kind's zero value, unmasked fields decode exactly, across encodings —
// and record identity/indexes match the unpruned scan.
func TestFieldPruning(t *testing.T) {
	recs := makeRecords(3000, 23)
	for encName, opts := range map[string]WriterOptions{
		"plain": {BlockSize: 2 << 10},
		"mixed": {BlockSize: 2 << 10, Encodings: map[string]FieldEncoding{
			"ts": EncodeDelta, "url": EncodeDict}},
	} {
		t.Run(encName, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "prune.rec")
			writeFile(t, path, recs, opts)
			got, idx := scanPushdown(t, path, &Pushdown{Fields: []string{"ts"}})
			if len(got) != len(recs) {
				t.Fatalf("masked scan returned %d of %d records", len(got), len(recs))
			}
			for i, g := range got {
				if !g.Get("ts").Equal(recs[i].Get("ts")) {
					t.Fatalf("record %d: ts = %v, want %v", i, g.Get("ts"), recs[i].Get("ts"))
				}
				if g.Get("url").Str() != "" || g.Get("score").Float() != 0 {
					t.Fatalf("record %d: masked fields leaked values: %s", i, g)
				}
				if idx[i] != int64(i) {
					t.Fatalf("record %d has index %d", i, idx[i])
				}
			}
		})
	}
}

// TestResidualWithMaskDecodesFilterFields: the residual filter's fields
// are decoded even when the mask excludes them, and the combination still
// matches the oracle.
func TestResidualWithMaskDecodesFilterFields(t *testing.T) {
	recs := makeRecords(2000, 24)
	path := filepath.Join(t.TempDir(), "both.rec")
	writeFile(t, path, recs, WriterOptions{BlockSize: 2 << 10})
	minTS := recs[0].Get("ts").Int()
	maxTS := recs[len(recs)-1].Get("ts").Int()
	filter := tsFilter(serde.Int(minTS+(maxTS-minTS)/3), serde.Int(minTS+(maxTS-minTS)/2))
	got, _ := scanPushdown(t, path, &Pushdown{Filter: filter, Residual: true, Fields: []string{"url"}})
	want := oracleFilter(recs, filter)
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Get("url").Str() != want[i].Get("url").Str() || got[i].Get("ts").Int() != want[i].Get("ts").Int() {
			t.Fatalf("record %d: %s != %s", i, got[i], want[i])
		}
		if got[i].Get("score").Float() != 0 {
			t.Fatalf("record %d: masked score leaked: %s", i, got[i])
		}
	}
}

// TestRecordIndexAcrossPruning: the whole-file record position survives
// block skips and residual drops, so position-keyed consumers see stable
// keys under pruning.
func TestRecordIndexAcrossPruning(t *testing.T) {
	recs := makeRecords(3000, 25)
	path := filepath.Join(t.TempDir(), "idx.rec")
	writeFile(t, path, recs, WriterOptions{BlockSize: 2 << 10})
	minTS := recs[0].Get("ts").Int()
	maxTS := recs[len(recs)-1].Get("ts").Int()
	filter := tsFilter(serde.Int((minTS+maxTS)/2), serde.Int((minTS+maxTS)/2+(maxTS-minTS)/50))

	// Reference: full scan, recording positions of matching records.
	var wantIdx []int64
	for i, r := range recs {
		if filter.MatchesRecord(r) {
			wantIdx = append(wantIdx, int64(i))
		}
	}
	_, gotIdx := scanPushdown(t, path, &Pushdown{Filter: filter, Residual: true})
	if len(gotIdx) != len(wantIdx) {
		t.Fatalf("got %d matches, want %d", len(gotIdx), len(wantIdx))
	}
	for i := range gotIdx {
		if gotIdx[i] != wantIdx[i] {
			t.Fatalf("match %d: index %d, want %d", i, gotIdx[i], wantIdx[i])
		}
	}
}

// TestStringPrefixBounds exercises the prefix envelopes on long, highly
// similar strings (shared 16+ byte prefixes) plus an all-0xFF prefix that
// has no representable upper bound.
func TestStringPrefixBounds(t *testing.T) {
	schema := serde.MustSchema(serde.Field{Name: "s", Kind: serde.KindString})
	mk := func(vals ...string) []*serde.Record {
		out := make([]*serde.Record, len(vals))
		for i, v := range vals {
			r := serde.NewRecord(schema)
			r.MustSet("s", serde.String(v))
			out[i] = r
		}
		return out
	}
	long := strings.Repeat("prefix-shared-16", 4) // 64 bytes, same 16-byte prefix
	ff := strings.Repeat("\xff", 20)
	recs := mk(long+"aaa", long+"zzz", "short", ff)

	path := filepath.Join(t.TempDir(), "s.rec")
	w, err := NewWriter(path, schema, WriterOptions{BlockSize: 16}) // ~1 record per block
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		iv   predicate.Interval
	}{
		{"point-short", predicate.PointInterval(serde.String("short"))},
		{"point-long", predicate.PointInterval(serde.String(long + "aaa"))},
		{"above-all", predicate.Interval{Lo: serde.String("\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xfe"), LoInc: true}},
		{"below-all", predicate.Interval{Hi: serde.String("a")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			filter := predicate.ZoneFilter{{predicate.FieldInterval{Field: "s", Iv: tc.iv}}}
			want := oracleFilter(recs, filter)
			got, _ := scanPushdown(t, path, &Pushdown{Filter: filter, Residual: true})
			requireEqual(t, want, got)
		})
	}
}

// TestRetiredFormatsRejected: record files sealed with a retired trailer —
// the committed pre-stats fixture (bytes written by the v2 writer), a
// row-interleaved v3 trailer and a whole-block-checksum v4 trailer — are
// recognised and refused with ErrUnsupportedFormat naming the version and
// the remedy, never misparsed as the current layout.
func TestRetiredFormatsRejected(t *testing.T) {
	files := map[string]string{filepath.Join("testdata", "prestats-v2.rec"): "v2"}
	for _, magic := range []string{"MANIMAL3", "MANIMAL4"} {
		path := filepath.Join(t.TempDir(), magic+".rec")
		writeFile(t, path, makeRecords(100, 26), WriterOptions{})
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		copy(raw[len(raw)-len(magicFooter):], magic)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		files[path] = "v" + magic[len(magic)-1:]
	}
	for path, version := range files {
		_, err := Open(path)
		if !errors.Is(err, ErrUnsupportedFormat) {
			t.Fatalf("%s: err = %v; want ErrUnsupportedFormat", path, err)
		}
		for _, want := range []string{version, "gendata", "manimal index"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", path, err, want)
			}
		}
		if _, _, err := ReadAll(path); !errors.Is(err, ErrUnsupportedFormat) {
			t.Fatalf("ReadAll(%s): err = %v; want ErrUnsupportedFormat", path, err)
		}
	}
}

// TestWriterAbortAndCloseCleanup covers the error-path guarantees: a
// NewWriter validation failure leaves no file behind, Abort removes a
// partial file (and tolerates a second call), and a finished file
// survives Abort.
func TestWriterAbortAndCloseCleanup(t *testing.T) {
	dir := t.TempDir()

	// Invalid options: the created file must be removed.
	bad := filepath.Join(dir, "bad.rec")
	if _, err := NewWriter(bad, testSchema, WriterOptions{
		Encodings: map[string]FieldEncoding{"nope": EncodeDelta}}); err == nil {
		t.Fatal("expected error for unknown field encoding")
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("failed NewWriter left %s behind (stat err %v)", bad, err)
	}
	// A schema without fields has no segments to bound a block's records.
	if _, err := NewWriter(bad, serde.MustSchema(), WriterOptions{}); err == nil {
		t.Fatal("expected error for a schema without fields")
	}

	// Abort removes the partial file; double-abort is fine.
	part := filepath.Join(dir, "part.rec")
	w, err := NewWriter(part, testSchema, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range makeRecords(10, 27) {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := w.Abort(); err != nil {
		t.Fatalf("second abort: %v", err)
	}
	if _, err := os.Stat(part); !os.IsNotExist(err) {
		t.Fatalf("abort left %s behind", part)
	}

	// A successful Close survives a later Abort.
	good := filepath.Join(dir, "good.rec")
	w, err = NewWriter(good, testSchema, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range makeRecords(10, 28) {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(good); err != nil {
		t.Fatalf("abort-after-close removed the finished file: %v", err)
	}
}

// TestStatsEnvelopeSound fuzzes the envelope invariant directly: for every
// block, every field, Min <= every value <= Max (when Max is bounded).
func TestStatsEnvelopeSound(t *testing.T) {
	recs := makeRecords(3000, 29)
	path := filepath.Join(t.TempDir(), "env.rec")
	writeFile(t, path, recs, WriterOptions{BlockSize: 2 << 10})
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	next := 0
	for b := 0; b < r.NumBlocks(); b++ {
		stats := r.BlockStats(b)
		n := int(r.RecordsInBlocks(b, b+1))
		for _, rec := range recs[next : next+n] {
			for i := 0; i < testSchema.NumFields(); i++ {
				d := rec.At(i)
				if stats[i].Min.IsValid() && d.Compare(stats[i].Min) < 0 {
					t.Fatalf("block %d field %d: value %v below min %v", b, i, d, stats[i].Min)
				}
				if stats[i].Max.IsValid() && d.Compare(stats[i].Max) > 0 {
					t.Fatalf("block %d field %d: value %v above max %v", b, i, d, stats[i].Max)
				}
			}
		}
		next += n
	}
	if next != len(recs) {
		t.Fatalf("block records covered %d of %d", next, len(recs))
	}
}

// TestResidualGatedUnderDirectCodes: when a scan operates directly on
// dictionary codes, decoded values of dict fields are code strings, not
// the logical strings a filter's bounds constrain. The residual filter
// must therefore ignore dict-field bounds (block-level skipping still
// applies — footer stats are computed on logical values). The analyzer
// never produces this combination today; the scanner pins the defense.
func TestResidualGatedUnderDirectCodes(t *testing.T) {
	schema := serde.MustSchema(serde.Field{Name: "s", Kind: serde.KindString})
	var recs []*serde.Record
	for c := byte('a'); c <= 'z'; c++ {
		r := serde.NewRecord(schema)
		r.MustSet("s", serde.String(strings.Repeat(string(c), 2)))
		recs = append(recs, r)
	}
	path := filepath.Join(t.TempDir(), "dc.rec")
	w, err := NewWriter(path, schema, WriterOptions{
		BlockSize: 8, Encodings: map[string]FieldEncoding{"s": EncodeDict}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	filter := predicate.ZoneFilter{{predicate.FieldInterval{Field: "s",
		Iv: predicate.PointInterval(serde.String("mm"))}}}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.DirectCodes = true
	sc, err := scanRows(r, 0, r.NumBlocks(), &Pushdown{Filter: filter, Residual: true})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for sc.Next() {
		n++
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	// Block skipping on logical stats must leave the "mm" block; an
	// unguarded residual comparing code strings against "mm" would have
	// dropped every row.
	if n == 0 {
		t.Fatal("residual filter dropped all rows under DirectCodes")
	}
	st := sc.Stats()
	if st.BlocksSkipped == 0 {
		t.Fatalf("logical block skipping should still apply: %+v", st)
	}
	if st.RowsFiltered != 0 {
		t.Fatalf("residual filtered %d rows on code strings", st.RowsFiltered)
	}
}
