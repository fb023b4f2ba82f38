package bench

import (
	"strings"
	"testing"
)

// TestTable1MatchesPaper requires the analyzer-recall matrix to reproduce
// paper Table 1 exactly, including the two deliberate misses (Benchmark 1
// projection+delta, Benchmark 4 selection) and zero false positives.
func TestTable1MatchesPaper(t *testing.T) {
	rows, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	want := []Table1Row{
		{"Benchmark-1", "Selection", "Detected", "Undetected", "Undetected"},
		{"Benchmark-2", "Aggregation", "Not Present", "Detected", "Detected"},
		{"Benchmark-3", "Join", "Detected", "Not Present", "Detected"},
		{"Benchmark-4", "UDF Aggregation", "Undetected", "Not Present", "Not Present"},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, w := range want {
		if rows[i] != w {
			t.Errorf("row %d:\n got %+v\nwant %+v", i, rows[i], w)
		}
	}
	for _, r := range rows {
		for _, cell := range []string{r.Select, r.Project, r.Delta} {
			if strings.Contains(cell, "FALSE") {
				t.Fatalf("false positive in %+v — never acceptable", r)
			}
		}
	}
}

// TestTables2Through6Smoke runs every end-to-end table at scale 1 and
// checks the qualitative shape the paper reports — in work counters (input
// bytes read, intermediate bytes, file sizes), which repeat exactly; the
// seconds the same rows carry are left to the benchmark (BENCHMARK.json).
func TestTables2Through6Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end tables take a few seconds")
	}
	t2, err := RunTable2(t.TempDir(), 1)
	if err != nil {
		t.Fatalf("table 2: %v", err)
	}
	// readRatio is how many times fewer input bytes the optimized leg read.
	readRatio := func(hadoop, manimal int64) float64 { return float64(hadoop) / float64(manimal) }
	if r := readRatio(t2[0].HadoopInputBytes, t2[0].ManimalInputBytes); r <= 1 {
		t.Errorf("B1 selection read %.2fx fewer input bytes, want >1", r)
	}
	if r := readRatio(t2[2].HadoopInputBytes, t2[2].ManimalInputBytes); r <= 1 {
		t.Errorf("B3 join read %.2fx fewer input bytes, want >1", r)
	}

	t3, err := RunTable3(t.TempDir(), 1)
	if err != nil {
		t.Fatalf("table 3: %v", err)
	}
	// Intermediate sizes must shrink monotonically with selectivity.
	for i := 1; i < len(t3); i++ {
		if t3[i].IntermediateBytes >= t3[i-1].IntermediateBytes {
			t.Errorf("intermediate bytes not shrinking: %d%% %d vs %d%% %d",
				t3[i].SelectivityPct, t3[i].IntermediateBytes,
				t3[i-1].SelectivityPct, t3[i-1].IntermediateBytes)
		}
	}
	// Low selectivity must beat high selectivity: the index range scan
	// reads less the fewer rows qualify, the full scan reads the same.
	lo, hi := t3[len(t3)-1], t3[0]
	if lo.HadoopInputBytes != hi.HadoopInputBytes ||
		readRatio(lo.HadoopInputBytes, lo.ManimalInputBytes) <= readRatio(hi.HadoopInputBytes, hi.ManimalInputBytes) {
		t.Errorf("10%% read %d of %d input bytes, 60%% read %d of %d; want a larger saving at 10%%",
			lo.ManimalInputBytes, lo.HadoopInputBytes, hi.ManimalInputBytes, hi.HadoopInputBytes)
	}

	t4, err := RunTable4(t.TempDir(), 1)
	if err != nil {
		t.Fatalf("table 4: %v", err)
	}
	// Large (10 KB content) must benefit more than Small-1 (510 B), and
	// its index must be a small fraction of the original file.
	large := readRatio(t4[2].HadoopInputBytes, t4[2].ManimalInputBytes)
	small := readRatio(t4[0].HadoopInputBytes, t4[0].ManimalInputBytes)
	if large <= small {
		t.Errorf("Large read %.2fx fewer input bytes, not above Small-1's %.2fx", large, small)
	}
	if t4[2].IndexBytes*10 > t4[2].OriginalBytes {
		t.Errorf("Large projection index %d vs original %d; want <10%%",
			t4[2].IndexBytes, t4[2].OriginalBytes)
	}

	t5, err := RunTable5(t.TempDir(), 1)
	if err != nil {
		t.Fatalf("table 5: %v", err)
	}
	saving := 1 - float64(t5.DeltaBytes)/float64(t5.PostProjectionBytes)
	if saving < 0.25 {
		t.Errorf("delta space saving %.0f%%, want substantial (paper: 47%%)", saving*100)
	}

	t6, err := RunTable6(t.TempDir(), 1)
	if err != nil {
		t.Fatalf("table 6: %v", err)
	}
	if t6.IndexedBytes >= t6.OriginalBytes {
		t.Errorf("dict index %d not smaller than original %d", t6.IndexedBytes, t6.OriginalBytes)
	}
}
