package manimal

import (
	"bytes"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"manimal/internal/durable"
	"manimal/internal/workload"
)

// TestResultCacheAcrossDevices: when the output path and the cache
// directory cannot be hardlinked (different filesystems, here simulated by
// a link call that always fails EXDEV), storing and serving fall back to
// copying and the cache works as before.
func TestResultCacheAcrossDevices(t *testing.T) {
	durable.Link = func(string, string) error { return syscall.EXDEV }
	defer func() { durable.Link = os.Link }()

	dir := t.TempDir()
	data := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(49).WriteWebPages(data, 2000, 64); err != nil {
		t.Fatal(err)
	}
	prog, err := ParseProgram("count", `
func Map(k, v *Record, ctx *Ctx) {
	if v.Int("rank") > ctx.ConfInt("threshold") {
		ctx.Emit(v.Int("rank") % 7, 1)
	}
}
func Reduce(key Datum, values *Iter, ctx *Ctx) {
	n := 0
	for values.Next() {
		n = n + values.Int()
	}
	ctx.Emit(key, n)
}
`)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(filepath.Join(dir, "sys"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string) (string, *JobReport) {
		t.Helper()
		out := filepath.Join(dir, name+".kv")
		report, err := sys.Submit(JobSpec{Name: name, OutputPath: out, NumReducers: 1,
			Inputs: []InputSpec{{Path: data, Program: prog}}, Conf: Conf{"threshold": Int(500)}})
		if err != nil {
			t.Fatal(err)
		}
		return out, report
	}
	first, _ := run("first")
	second, report := run("second")
	if kind := report.Inputs[0].Plan.Kind; kind != PlanCached {
		t.Fatalf("resubmission plan = %s, want cached", kind)
	}
	want, _ := os.ReadFile(first)
	got, _ := os.ReadFile(second)
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("copied cache output differs (%d vs %d bytes)", len(got), len(want))
	}
	a, _ := os.Stat(sys.Catalog().CacheEntries()[0].Path)
	b, _ := os.Stat(second)
	if os.SameFile(a, b) {
		t.Fatal("output shares the artifact's inode although linking failed")
	}
}
