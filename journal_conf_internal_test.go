package manimal

import (
	"context"
	"encoding/json"
	"math"
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
