package main

import (
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"manimal/internal/programs"
	"manimal/internal/storage"
	"manimal/internal/workload"
)

// TestInspectRetiredFormat: inspecting a file in a retired format fails
// with the storage error (main prints it and exits 1) instead of dumping
// a half-parsed footer.
func TestInspectRetiredFormat(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "storage", "testdata", "prestats-v2.rec")
	if err := cmdInspect([]string{fixture}); !errors.Is(err, storage.ErrUnsupportedFormat) {
		t.Fatalf("inspect of a v2 file: err = %v; want ErrUnsupportedFormat", err)
	}
}

// TestRunCPUProfile: `run -cpuprofile FILE` leaves a pprof CPU profile of
// the job in FILE — a non-empty gzip stream, which is how pprof writes its
// protocol buffer.
func TestRunCPUProfile(t *testing.T) {
	dir := t.TempDir()
	input := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(1).WriteWebPages(input, 500, 32); err != nil {
		t.Fatal(err)
	}
	prog := filepath.Join(dir, "prog.go")
	if err := os.WriteFile(prog, []byte(programs.SelectionQuery), 0o644); err != nil {
		t.Fatal(err)
	}
	profile := filepath.Join(dir, "cpu.pprof")
	if err := cmdRun([]string{"-sys", filepath.Join(dir, "sys"), "-prog", prog, "-input", input,
		"-out", filepath.Join(dir, "out.kv"), "-conf", "threshold=100", "-show", "0", "-cpuprofile", profile}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(profile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("profile gzip stream: %v", err)
	}
	if len(raw) == 0 {
		t.Fatal("profile is empty")
	}
}
