package storage

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"manimal/internal/predicate"
	"manimal/internal/serde"
)

// TestSharedScanTwoSubscribers drives the share registry directly: two
// concurrent subscribers over the same range must each see every row and
// count one shared scan apiece. Only the leader's reader reads the file;
// the follower's scan mirrors the leader's counts, bytes included.
func TestSharedScanTwoSubscribers(t *testing.T) {
	schema := serde.MustSchema(
		serde.Field{Name: "a", Kind: serde.KindInt64},
		serde.Field{Name: "s", Kind: serde.KindString},
	)
	path := filepath.Join(t.TempDir(), "d.rec")
	w, err := NewWriter(path, schema, WriterOptions{BlockSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rec := serde.NewRecord(schema)
	const rows = 100000
	for i := 0; i < rows; i++ {
		rec.MustSet("a", serde.Int(int64(i)))
		rec.MustSet("s", serde.String("padding-padding-padding-padding"))
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r1, _ := Open(path)
	r2, _ := Open(path)
	defer r1.Close()
	defer r2.Close()
	n := r1.NumBlocks()
	t.Logf("blocks=%d size=%d", n, r1.Size())
	sh := NewScanShare()
	var wg sync.WaitGroup
	counts := make([]int64, 2)
	// Subscribe both before either drains: a solo subscriber could otherwise
	// race the whole scan to completion before the second arrives.
	subs := make([]*SharedScanner, 2)
	for i, r := range []*Reader{r1, r2} {
		m, ok := sh.Subscribe(r, 0, n, nil)
		if !ok {
			t.Fatalf("sub %d refused", i)
		}
		subs[i] = m
	}
	for i := range subs {
		wg.Add(1)
		go func(i int, m *SharedScanner) {
			defer wg.Done()
			for m.Next() {
				counts[i] += int64(len(m.Batch().Sel()))
			}
			if err := m.Err(); err != nil {
				t.Errorf("sub %d: %v", i, err)
			}
			m.Close()
		}(i, subs[i])
	}
	wg.Wait()
	st1, st2 := subs[0].Stats(), subs[1].Stats()
	t.Logf("counts=%v stats1=%+v stats2=%+v", counts, st1, st2)
	if counts[0] != rows || counts[1] != rows {
		t.Errorf("row counts = %v, want %d each", counts, rows)
	}
	if !st1.Shared || !st2.Shared || st1 != st2 {
		t.Errorf("stats %+v and %+v; want equal and shared", st1, st2)
	}
	if r1.BytesRead() != st1.BytesRead || r2.BytesRead() != 0 {
		t.Errorf("readers read %d and %d bytes; want %d and 0", r1.BytesRead(), r2.BytesRead(), st1.BytesRead)
	}
}

// shareFile writes a ~45-block file whose ts column rises monotonically,
// so a ts range both skips blocks and filters rows inside others.
func shareFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "share.rec")
	writeFile(t, path, makeRecords(6000, 7), WriterOptions{BlockSize: 4 << 10})
	return path
}

// openReader opens path for the duration of the test.
func openReader(t *testing.T, path string) *Reader {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// midPushdown keeps the middle half of share.rec's ts range, decoding only
// url besides the filtered ts.
func midPushdown(t *testing.T, r *Reader) *Pushdown {
	t.Helper()
	lo := r.BlockStats(r.NumBlocks() / 4)[1].Min
	hi := r.BlockStats(3 * r.NumBlocks() / 4)[1].Max
	return &Pushdown{Filter: tsFilter(serde.Int(lo.Int()+7), serde.Int(hi.Int()-7)), Residual: true, Fields: []string{"url"}}
}

// scanned is what a scan delivered: every batch's base and every selected
// row's whole-file index, plus the scan's counts afterwards.
type scanned struct {
	bases, rows []int64
	stats       ScanStats
	err         error
}

type batchIter interface {
	Next() bool
	Batch() *serde.Batch
	Err() error
	Stats() ScanStats
}

// drain consumes up to limit batches of it (all when limit < 0).
func drain(it batchIter, limit int) (s scanned) {
	for n := 0; n != limit && it.Next(); n++ {
		b := it.Batch()
		s.bases = append(s.bases, b.Base())
		for _, row := range b.Sel() {
			s.rows = append(s.rows, b.Base()+int64(row))
		}
	}
	s.err, s.stats = it.Err(), it.Stats()
	return s
}

// private is the reference: a private BatchScanner over [0, NumBlocks)
// on a fresh reader.
func private(t *testing.T, path string, pd *Pushdown) scanned {
	t.Helper()
	r := openReader(t, path)
	sc, err := r.ScanBatch(0, r.NumBlocks(), pd)
	if err != nil {
		t.Fatal(err)
	}
	return drain(sc, -1)
}

// requireSame compares a member's scan, and its counts, with the private
// reference (Shared aside: only the member shared).
func requireSame(t *testing.T, who string, got scanned, want scanned) {
	t.Helper()
	if got.err != nil {
		t.Fatalf("%s: %v", who, got.err)
	}
	if !slicesEqual(got.bases, want.bases) || !slicesEqual(got.rows, want.rows) {
		t.Errorf("%s: %d batches / %d rows, want %d / %d (or different bases/rows)",
			who, len(got.bases), len(got.rows), len(want.bases), len(want.rows))
	}
	st := got.stats
	st.Shared = false
	if st != want.stats {
		t.Errorf("%s: stats %+v; private scan %+v", who, st, want.stats)
	}
}

func slicesEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// subscribe subscribes over the whole file or fails the test.
func subscribe(t *testing.T, sh *ScanShare, r *Reader, pd *Pushdown) *SharedScanner {
	t.Helper()
	m, ok := sh.Subscribe(r, 0, r.NumBlocks(), pd)
	if !ok {
		t.Fatal("subscription declined")
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestShareLeaderCloseFollowerContinues: the leader leaves after three
// batches; its follower finishes privately and sees exactly a private
// scan — same batches, same rows, same counters.
func TestShareLeaderCloseFollowerContinues(t *testing.T) {
	path := shareFile(t)
	leadR, followR := openReader(t, path), openReader(t, path)
	pd := midPushdown(t, leadR)
	want := private(t, path, pd)
	sh := NewScanShare()
	lead, follow := subscribe(t, sh, leadR, pd), subscribe(t, sh, followR, pd)

	var got scanned
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); drain(lead, 3); lead.Close() }()
	go func() { defer wg.Done(); got = drain(follow, -1) }()
	wg.Wait()
	requireSame(t, "follower", got, want)
	if !got.stats.Shared {
		t.Error("follower scan not counted as shared")
	}
}

// TestShareLateJoinerStatsExact: a follower joining after the leader has
// published three batches catches up privately, then follows; with a
// filtered, field-masked pushdown both members' batches and counters
// (blocks read and skipped, rows filtered, bytes) equal a private scan's.
func TestShareLateJoinerStatsExact(t *testing.T) {
	path := shareFile(t)
	leadR, followR := openReader(t, path), openReader(t, path)
	pd := midPushdown(t, leadR)
	want := private(t, path, pd)
	sh := NewScanShare()
	lead := subscribe(t, sh, leadR, pd)
	head := drain(lead, 3)
	follow := subscribe(t, sh, followR, pd)

	var led, got scanned
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); led = drain(lead, -1) }()
	go func() { defer wg.Done(); got = drain(follow, -1) }()
	wg.Wait()
	led.bases, led.rows = append(head.bases, led.bases...), append(head.rows, led.rows...)
	requireSame(t, "leader", led, want)
	requireSame(t, "follower", got, want)
	if !led.stats.Shared || !got.stats.Shared {
		t.Errorf("shared = %t, %t; want both", led.stats.Shared, got.stats.Shared)
	}
}

// TestShareLeaderCorruptionFollowerOwnError: the leader fails on a corrupt
// block; the follower reads that block itself and reports its own
// CorruptBlockError, naming its own reader's path.
func TestShareLeaderCorruptionFollowerOwnError(t *testing.T) {
	path := shareFile(t)
	const bad = 5
	r0 := openReader(t, path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[r0.blocks[bad].offset+3] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	leadR, followR := openReader(t, path), openReader(t, path)
	sh := NewScanShare()
	lead, follow := subscribe(t, sh, leadR, nil), subscribe(t, sh, followR, nil)

	var led, got scanned
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); led = drain(lead, -1) }()
	go func() { defer wg.Done(); got = drain(follow, -1) }()
	wg.Wait()
	var leadErr, followErr *CorruptBlockError
	if !errors.As(led.err, &leadErr) || !errors.As(got.err, &followErr) {
		t.Fatalf("errors = %v, %v; want a CorruptBlockError each", led.err, got.err)
	}
	if followErr == leadErr || followErr.Path != followR.Path() || followErr.Block != bad {
		t.Errorf("follower error %+v is not its own read of block %d", followErr, bad)
	}
	if len(got.bases) != bad || !slicesEqual(got.bases, led.bases) {
		t.Errorf("follower saw %d batches before the corruption, leader %d; want %d", len(got.bases), len(led.bases), bad)
	}
	// The follower's scan mirrors the leader's good blocks; its reader
	// physically read only the corrupt one, which no scan counts as read.
	if got.stats != led.stats || got.stats.BlocksRead != bad {
		t.Errorf("follower stats %+v, leader %+v; want equal, %d blocks read", got.stats, led.stats, bad)
	}
	if own := leadR.BytesRead() - led.stats.BytesRead; own <= 0 || followR.BytesRead() != own {
		t.Errorf("follower reader read %d bytes, want the corrupt block's %d", followR.BytesRead(), own)
	}
}

// TestShareLoneLeaderNoGoroutine: a subscriber alone in its group scans on
// the caller's goroutine; sharing starts nothing of its own.
func TestShareLoneLeaderNoGoroutine(t *testing.T) {
	r := openReader(t, shareFile(t))
	before := runtime.NumGoroutine()
	m := subscribe(t, NewScanShare(), r, nil)
	if !m.Next() {
		t.Fatal(m.Err())
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("goroutines %d → %d across Subscribe and the first Next", before, after)
	}
}

// TestShareDeclines: neither a second attempt over the same reader nor a
// joiner more than half the range behind joins a group.
func TestShareDeclines(t *testing.T) {
	path := shareFile(t)
	r := openReader(t, path)
	n := r.NumBlocks()
	sh := NewScanShare()
	lead := subscribe(t, sh, r, nil)
	// A wrongly admitted member is closed at once, so the leader never
	// waits on it.
	if m, ok := sh.Subscribe(r, 0, n, nil); ok {
		m.Close()
		t.Error("a second subscription over the same reader joined the group")
	}
	drain(lead, n/2+1)
	if m, ok := sh.Subscribe(openReader(t, path), 0, n, nil); ok {
		m.Close()
		t.Errorf("a joiner %d blocks behind a %d-block range joined", n/2+1, n)
	}
}

// TestShareDifferentPushdownsStayApart: scans that differ in any part of
// their pushdown lead groups of their own; a field mask is a set, so its
// order does not matter.
func TestShareDifferentPushdownsStayApart(t *testing.T) {
	path := shareFile(t)
	base := midPushdown(t, openReader(t, path))
	other := *base
	other.Filter = tsFilter(serde.Int(1_000_000), serde.Int(1_050_000))
	noResidual, noMask, floatBound := *base, *base, *base
	noResidual.Residual = false
	noMask.Fields = nil
	iv := base.Filter[0][0].Iv
	floatBound.Filter = predicate.ZoneFilter{{predicate.FieldInterval{Field: "ts",
		Iv: predicate.Interval{Lo: serde.Float(float64(iv.Lo.Int())), LoInc: true, Hi: iv.Hi}}}}
	reordered := *base
	reordered.Fields = []string{"ts", "url"}
	sameSet := *base
	sameSet.Fields = []string{"url", "ts"}

	for name, tc := range map[string]struct {
		a, b  *Pushdown
		share bool
	}{
		"filter":     {base, &other, false},
		"residual":   {base, &noResidual, false},
		"mask":       {base, &noMask, false},
		"bound kind": {base, &floatBound, false},
		"nil":        {base, nil, false},
		"mask order": {&reordered, &sameSet, true},
	} {
		t.Run(name, func(t *testing.T) {
			sh := NewScanShare()
			ra, rb := openReader(t, path), openReader(t, path)
			a, b := subscribe(t, sh, ra, tc.a), subscribe(t, sh, rb, tc.b)
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); drain(a, -1) }()
			go func() { defer wg.Done(); drain(b, -1) }()
			wg.Wait()
			if shared := a.Stats().Shared || b.Stats().Shared; shared != tc.share {
				t.Errorf("shared = %t, want %t", shared, tc.share)
			}
		})
	}
}
