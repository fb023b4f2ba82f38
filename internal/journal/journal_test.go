package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"manimal/internal/durable"
	"manimal/internal/faultinject"
)

func sub(name string) Submission {
	return Submission{
		Name:       name,
		Inputs:     []Input{{Path: "data.rec", ProgramName: "count.go", Program: "func Map() {}"}},
		OutputPath: "/tmp/out.kv",
		Conf:       map[string]ConfValue{"threshold": {Kind: "int", Value: "5000"}},
		Tenant:     "acme",
	}
}

// TestRoundTrip drives the full lifecycle: Begin assigns sequential IDs,
// End and Mark attach to them, and Replay/Lookup/Stats agree on the
// result.
func TestRoundTrip(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id1, err := j.Begin(sub("first"))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := j.Begin(sub("second"))
	if err != nil {
		t.Fatal(err)
	}
	if id1 != "j00000001" || id2 != "j00000002" {
		t.Fatalf("ids = %s, %s", id1, id2)
	}
	if err := j.End(id1, StateDone, "", 42); err != nil {
		t.Fatal(err)
	}
	if err := j.Mark(id2, "interrupted"); err != nil {
		t.Fatal(err)
	}

	entries, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("replayed %d entries, want 2", len(entries))
	}
	if e := entries[0]; !e.Complete() || e.State() != StateDone || e.End.OutputRecords != 42 {
		t.Fatalf("entry 1 = %+v / %+v", e.Sub, e.End)
	}
	if e := entries[1]; e.Complete() || e.State() != "incomplete" || e.Mark == nil || e.Mark.Note != "interrupted" {
		t.Fatalf("entry 2 = %+v / %+v", e.Sub, e.Mark)
	}
	if got := entries[0].Sub; got.Name != "first" || got.Tenant != "acme" ||
		got.Conf["threshold"].Value != "5000" || len(got.Inputs) != 1 {
		t.Fatalf("submission did not round-trip: %+v", got)
	}

	e, ok, err := j.Lookup(id1)
	if err != nil || !ok || e.Sub.Name != "first" || e.State() != StateDone {
		t.Fatalf("Lookup(%s) = %+v, %v, %v", id1, e, ok, err)
	}
	if _, ok, err := j.Lookup("j00000099"); ok || err != nil {
		t.Fatalf("Lookup of unknown id = %v, %v", ok, err)
	}

	if st := j.Stats(); st.Jobs != 2 || st.Incomplete != 1 || st.Records != 4 || st.Bytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}

	// A reopened journal rebuilds the same index from the log.
	j2, err := Open(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := j2.Stats(), j.Stats(); got != want {
		t.Fatalf("reopened stats = %+v, want %+v", got, want)
	}
	if e, ok, err := j2.Lookup(id2); err != nil || !ok || e.Mark == nil || e.Complete() {
		t.Fatalf("reopened Lookup(%s) = %+v, %v, %v", id2, e, ok, err)
	}
	if err := j2.End("j00000099", StateDone, "", 0); err == nil {
		t.Error("End of a job that was never begun succeeded")
	}
}

// TestReopenResumesSequence: a journal reopened after a crash must not
// reuse IDs it already handed out, and the torn record the crash left
// behind its last durable one is neither replayed nor in the way.
func TestReopenResumesSequence(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Begin(sub("a")); err != nil {
		t.Fatal(err)
	}
	id2, err := j.Begin(sub("b"))
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: drop the handle, leave half a frame.
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{200, 0, 0, 0, 1, 2, 3, 4, kindSubmit, 'j', 'u', 'n', 'k'})
	f.Close()
	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	id3, err := j2.Begin(sub("c"))
	if err != nil {
		t.Fatal(err)
	}
	if id3 == id2 || id3 != "j00000003" {
		t.Fatalf("reopened journal assigned %s after %s", id3, id2)
	}
	entries, err := j2.Replay()
	if err != nil || len(entries) != 3 || entries[2].Sub.Name != "c" {
		t.Fatalf("replay after a torn tail = %d entries, %v", len(entries), err)
	}
}

// TestEndIdempotent: recovery may journal the same terminal state twice
// (original completion racing the recovered run); the last write wins and
// replay still sees one entry.
func TestEndIdempotent(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id, err := j.Begin(sub("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.End(id, StateFailed, "first", 0); err != nil {
		t.Fatal(err)
	}
	if err := j.End(id, StateDone, "", 7); err != nil {
		t.Fatal(err)
	}
	entries, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].State() != StateDone || entries[0].End.OutputRecords != 7 {
		t.Fatalf("replay after double End = %+v", entries)
	}
}

// TestCrashAtJournalWrite: with the journal fault point armed, Begin must
// refuse the submission (error, no record, no ID burned into replay).
func TestCrashAtJournalWrite(t *testing.T) {
	faultinject.Set(faultinject.MustParse("journal=1.0;seed=3"))
	defer faultinject.Reset()
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Begin(sub("doomed")); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Begin under journal fault = %v, want injected error", err)
	}
	faultinject.Reset()
	entries, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("refused submission left %d entries in the journal", len(entries))
	}
	// Nothing durable was written, so the sequence number is free for the
	// next accept to reuse.
	id, err := j.Begin(sub("ok"))
	if err != nil {
		t.Fatal(err)
	}
	if id != "j00000001" {
		t.Fatalf("post-fault Begin assigned %s", id)
	}
}

// TestBeginRefusesInvalidUTF8: a submission whose output or input path
// is not valid UTF-8 — legal on Linux, but JSON would replay it with U+FFFD
// in place of its bad bytes — is refused, and nothing reaches the journal;
// the same holds for its name, tenant, program name and program source.
func TestBeginRefusesInvalidUTF8(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Submission){
		"output path":    func(s *Submission) { s.OutputPath = "out\xff.kv" },
		"input path":     func(s *Submission) { s.Inputs[0].Path = "in\xfe.rec" },
		"job name":       func(s *Submission) { s.Name = "job\xff" },
		"tenant":         func(s *Submission) { s.Tenant = "acme\xff" },
		"program name":   func(s *Submission) { s.Inputs[0].ProgramName = "count\xfe.go" },
		"program source": func(s *Submission) { s.Inputs[0].Program = "func Map() {} // \xff" },
	} {
		s := sub("bad")
		mutate(&s)
		if _, err := j.Begin(s); err == nil || !strings.Contains(err.Error(), "cannot record") {
			t.Errorf("%s: Begin = %v, want a refusal", name, err)
		}
	}
	entries, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("refused submissions left %d entries in the journal", len(entries))
	}
}

// TestParseID accepts exactly the IDs idFor produces.
func TestParseID(t *testing.T) {
	if n, err := ParseID("j00000042"); err != nil || n != 42 {
		t.Fatalf("ParseID = %d, %v", n, err)
	}
	for _, bad := range []string{"", "j", "42", "j42", "jx0000001", "j000000001", "j00000000"} {
		if _, err := ParseID(bad); err == nil {
			t.Errorf("ParseID(%q) accepted", bad)
		}
	}
}

// buildLog journals n jobs (each begun, every other one ended) and returns
// the log's bytes, the offset of its last frame, and what an undamaged
// replay yields.
func buildLog(t testing.TB, dir string, n int) (raw []byte, lastFrame int, want []Entry) {
	t.Helper()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < n; i++ {
		lastFrame = int(j.Stats().Bytes)
		id, err := j.Begin(sub(fmt.Sprintf("job-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			lastFrame = int(j.Stats().Bytes)
			if err := j.End(id, StateDone, "", int64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want, err = j.Replay(); err != nil {
		t.Fatal(err)
	}
	if raw, err = os.ReadFile(filepath.Join(dir, logName)); err != nil {
		t.Fatal(err)
	}
	return raw, lastFrame, want
}

// checkDamaged opens a journal whose log is the given damaged bytes.
// Whatever the damage, Open and Replay must not panic, and must yield
// either a typed corruption error or a prefix of the undamaged replay:
// entries in order, none invented, each either as journaled or — when its
// end record was lost with the tail — incomplete.
func checkDamaged(t *testing.T, damaged []byte, want []Entry) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(dir)
	if err != nil {
		var ce *durable.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("Open of a damaged log: untyped error %v", err)
		}
		return
	}
	defer j.Close()
	got, err := j.Replay()
	if err != nil {
		t.Fatalf("Replay after a successful Open: %v", err)
	}
	if len(got) > len(want) {
		t.Fatalf("replayed %d entries from a damaged log of %d", len(got), len(want))
	}
	for i, e := range got {
		w := want[i]
		if e.Sub.ID != w.Sub.ID || e.Sub.Name != w.Sub.Name {
			t.Fatalf("entry %d = %s %q, want %s %q", i, e.Sub.ID, e.Sub.Name, w.Sub.ID, w.Sub.Name)
		}
		if e.End != nil && (w.End == nil || *e.End != *w.End) {
			t.Fatalf("entry %d end = %+v, want %+v", i, e.End, w.End)
		}
	}
	// The survivor must still be writable: the torn tail is dropped, not
	// appended behind.
	id, err := j.Begin(sub("after"))
	if err != nil {
		t.Fatal(err)
	}
	if e, ok, err := j.Lookup(id); err != nil || !ok || e.Sub.Name != "after" {
		t.Fatalf("Lookup(%s) after the damage = %+v, %v, %v", id, e.Sub, ok, err)
	}
}

// TestJournalLogDamage is the exhaustive half of the decoder's adversary:
// the log truncated at every byte offset of its last frame, and one byte
// flipped at every offset of every frame.
func TestJournalLogDamage(t *testing.T) {
	raw, lastFrame, want := buildLog(t, t.TempDir(), 4)
	if len(want) != 4 || !want[2].Complete() || want[3].Complete() {
		t.Fatalf("undamaged replay = %+v", want)
	}
	for cut := lastFrame; cut < len(raw); cut++ {
		checkDamaged(t, raw[:cut], want)
	}
	for pos := range raw {
		damaged := bytes.Clone(raw)
		damaged[pos] ^= 0x81
		checkDamaged(t, damaged, want)
	}
}

// FuzzJournalLog is the other half: arbitrary truncation plus an arbitrary
// overwrite anywhere in the log (length fields included), under the same
// contract as TestJournalLogDamage.
func FuzzJournalLog(f *testing.F) {
	raw, _, want := buildLog(f, f.TempDir(), 4)
	f.Add(uint(len(raw)), uint(0), []byte{})
	f.Add(uint(len(raw)-3), uint(8), []byte{0xff, 0xff, 0xff, 0x7f})
	f.Add(uint(len(raw)), uint(len(raw)/2), []byte{0})
	f.Add(uint(4), uint(0), []byte("MNML"))
	f.Fuzz(func(t *testing.T, keep, at uint, patch []byte) {
		damaged := bytes.Clone(raw[:keep%uint(len(raw)+1)])
		if len(damaged) > 0 {
			copy(damaged[at%uint(len(damaged)):], patch)
		}
		checkDamaged(t, damaged, want)
	})
}

// TestLegacyLayoutRefused: a directory written by the file-per-record
// journal is refused with the typed error, not half-read or overwritten.
func TestLegacyLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "00000001.submit.json")
	if err := os.WriteFile(legacy, []byte(`{"id":"j00000001"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir)
	if !errors.Is(err, ErrLegacyLayout) || !strings.Contains(err.Error(), "previous binary") {
		t.Fatalf("Open of a legacy journal = %v, want ErrLegacyLayout naming the remedy", err)
	}
	if _, err := os.Stat(filepath.Join(dir, logName)); !os.IsNotExist(err) {
		t.Errorf("refused Open still created %s (stat err = %v)", logName, err)
	}
}

// TestJournalGroupCommit: eight concurrent Begins with the first sync held
// open until the other seven have appended. The second sync covers all
// seven, so the eight complete in exactly two, and all eight replay.
func TestJournalGroupCommit(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var syncs atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	defer durable.OnSync(func(string) {
		if syncs.Add(1) == 1 {
			close(started)
			<-release
		}
	})()

	var wg sync.WaitGroup
	begin := func(i int) {
		defer wg.Done()
		if _, err := j.Begin(sub(fmt.Sprintf("w%d", i))); err != nil {
			t.Error(err)
		}
	}
	wg.Add(1)
	go begin(0)
	<-started
	wg.Add(7)
	for i := 1; i < 8; i++ {
		go begin(i)
	}
	for j.Stats().Records < 8 {
		runtime.Gosched() // appends do not wait for the held sync
	}
	close(release)
	wg.Wait()
	if n := syncs.Load(); n != 2 {
		t.Fatalf("8 concurrent Begins took %d syncs, want 2", n)
	}
	entries, err := j.Replay()
	if err != nil || len(entries) != 8 {
		t.Fatalf("replayed %d entries (err %v), want 8", len(entries), err)
	}
}
