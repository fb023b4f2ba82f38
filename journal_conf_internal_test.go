package manimal

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"manimal/internal/journal"
	"manimal/internal/serde"
	"manimal/internal/workload"
)

// TestJournalConfRoundTrip: a spec's conf survives journaling — through the
// JSON the journal stores — datum for datum, for every kind, including
// bytes and strings that look like each other's rendering.
func TestJournalConfRoundTrip(t *testing.T) {
	prog, err := ParseProgram("noop", "func Map(k, v *Record, ctx *Ctx) {}")
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{
		Name:       "conf",
		Inputs:     []InputSpec{{Path: "in.rec", Program: prog}},
		OutputPath: "out.kv",
		Conf: Conf{
			"int":    Int(math.MinInt64),
			"float":  Float(0.1),
			"inf":    Float(math.Inf(-1)),
			"string": String("0xbeef"),
			"bytes":  serde.Bytes([]byte{0, 0xbe, 0xef}),
			"empty":  serde.Bytes(nil),
			"true":   Bool(true),
			"false":  Bool(false),
		},
	}
	js, err := journalSubmission(spec)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(js)
	if err != nil {
		t.Fatal(err)
	}
	var back journal.Submission
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	got, err := specFromJournal(back)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Conf) != len(spec.Conf) {
		t.Fatalf("conf has %d entries after the journal, want %d", len(got.Conf), len(spec.Conf))
	}
	for k, want := range spec.Conf {
		if d := got.Conf[k]; !d.Equal(want) {
			t.Errorf("conf %q = %v (%v), want %v (%v)", k, d, d.Kind, want, want.Kind)
		}
	}

	spec.Conf = Conf{"bad": serde.Datum{}}
	if _, err := journalSubmission(spec); err == nil {
		t.Error("a conf datum of no kind was journaled")
	}
}

// TestJournaledSystemRefusesUnrecordableConf: a journaling System refuses
// a submission whose conf it could not replay, and journals nothing.
func TestJournaledSystemRefusesUnrecordableConf(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(50).WriteWebPages(data, 500, 32); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemWith(filepath.Join(dir, "sys"), Options{Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	prog, err := ParseProgram("noop", "func Map(k, v *Record, ctx *Ctx) {}")
	if err != nil {
		t.Fatal(err)
	}
	h, err := sys.SubmitAsync(context.Background(), JobSpec{
		Name:       "bad-conf",
		Inputs:     []InputSpec{{Path: data, Program: prog}},
		OutputPath: filepath.Join(dir, "out.kv"),
		MapOnly:    true,
		Conf:       Conf{"bad": serde.Datum{}},
	})
	if err == nil {
		_, err = h.Wait()
	}
	if err == nil || !strings.Contains(err.Error(), "journal cannot record") {
		t.Fatalf("err = %v; want the record stage's refusal", err)
	}
	entries, err := sys.Journal().Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("journal holds %d entries for a refused submission, want 0", len(entries))
	}
}

// TestJournaledSystemRefusesNonUTF8Paths: a journaling System refuses a
// submission whose input or output path is not valid UTF-8 — the journal
// would replay it with U+FFFD in place of its bad bytes, so recovery would
// read and write different files — journals nothing, leaves the output
// path untouched, and releases its claim on the output, so a valid
// submission to the same output then runs.
func TestJournaledSystemRefusesNonUTF8Paths(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(51).WriteWebPages(data, 500, 32); err != nil {
		t.Fatal(err)
	}
	badIn := filepath.Join(dir, "in\xfe.rec")
	if err := os.Link(data, badIn); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemWith(filepath.Join(dir, "sys"), Options{Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	prog, err := ParseProgram("noop", "func Map(k, v *Record, ctx *Ctx) {}")
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.kv")
	spec := func(in, out string) JobSpec {
		return JobSpec{Name: "paths", Inputs: []InputSpec{{Path: in, Program: prog}}, OutputPath: out, MapOnly: true}
	}
	for _, bad := range []JobSpec{spec(badIn, out), spec(data, filepath.Join(dir, "out\xff.kv"))} {
		h, err := sys.SubmitAsync(context.Background(), bad)
		if err == nil {
			_, err = h.Wait()
		}
		if err == nil || !strings.Contains(err.Error(), "journal cannot record") {
			t.Fatalf("input %q, output %q: err = %v; want the record stage's refusal", bad.Inputs[0].Path, bad.OutputPath, err)
		}
		if _, err := os.Lstat(bad.OutputPath); !os.IsNotExist(err) {
			t.Errorf("refused submission touched its output %q (%v)", bad.OutputPath, err)
		}
	}
	entries, err := sys.Journal().Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("journal holds %d entries for refused submissions, want 0", len(entries))
	}
	h, err := sys.SubmitAsync(context.Background(), spec(data, out))
	if err != nil {
		t.Fatalf("valid resubmission to a refused job's output: %v", err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("valid resubmission wrote no output: %v", err)
	}
}
