package main

import (
	"errors"
	"path/filepath"
	"testing"

	"manimal/internal/storage"
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
