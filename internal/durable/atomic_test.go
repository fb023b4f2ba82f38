package durable_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"manimal/internal/btree"
	"manimal/internal/catalog"
	"manimal/internal/durable"
	"manimal/internal/faultinject"
	"manimal/internal/interp"
	"manimal/internal/mapreduce"
	"manimal/internal/serde"
	"manimal/internal/storage"
)

// TestCrashBeforeRenameEveryCommitter drives every synced commit in the
// system into the crash point that sits between the temp file's fsync and
// the rename: the committer must return the injected error, the destination
// must still hold its previous bytes (or not exist, where the row has no
// previous version), no temp file may remain, and the temp file's sync must
// have gone through the counted durable.SyncFile.
func TestCrashBeforeRenameEveryCommitter(t *testing.T) {
	schema, err := serde.ParseSchema("k:int64,v:string")
	if err != nil {
		t.Fatal(err)
	}
	record := func(gen int) *serde.Record {
		r := serde.NewRecord(schema)
		r.Set("k", serde.Int(int64(gen)))
		r.Set("v", serde.String(fmt.Sprint("generation ", gen)))
		return r
	}
	rows := []struct {
		base string
		// fresh rows commit to a destination that has no previous version.
		fresh  bool
		commit func(t *testing.T, dst string, gen int) error
	}{
		{base: "data.rec", commit: func(t *testing.T, dst string, gen int) error {
			w, err := storage.NewWriter(dst, schema, storage.WriterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(record(gen)); err != nil {
				t.Fatal(err)
			}
			return w.Close()
		}},
		{base: "out.kv", commit: func(t *testing.T, dst string, gen int) error {
			o, err := mapreduce.NewKVFileOutput(dst)
			if err != nil {
				t.Fatal(err)
			}
			if err := o.Write(serde.Int(int64(gen)), interp.EmitValue{D: serde.Int(1)}); err != nil {
				t.Fatal(err)
			}
			return o.Close()
		}},
		{base: "tree.idx", commit: func(t *testing.T, dst string, gen int) error {
			b, err := btree.NewBuilder(dst, schema, "k", btree.BuilderOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Add(serde.Int(int64(gen)), record(gen)); err != nil {
				t.Fatal(err)
			}
			return b.Close()
		}},
		{base: "shards.idx", commit: func(t *testing.T, dst string, gen int) error {
			return btree.WriteManifest(dst, fmt.Sprint("k", gen), []string{dst + ".shard0"}, nil)
		}},
		{base: "manimal-catalog.json", commit: func(t *testing.T, dst string, gen int) error {
			c, err := catalog.Open(filepath.Dir(dst))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			before := c.All()
			err = c.Add(catalog.Entry{InputPath: "in.rec", IndexPath: fmt.Sprint("in.rec.idx", gen), Kind: catalog.KindBTree})
			if err == nil {
				return nil
			}
			// A snapshot that never reached the disk must not be what the
			// optimizer plans from.
			for _, failed := range []error{c.Remove(before[0].IndexPath), c.Quarantine(before[0].IndexPath, "test")} {
				if !errors.Is(failed, faultinject.ErrInjected) {
					t.Errorf("catalog mutation under a crashing snapshot commit = %v", failed)
				}
			}
			if after := c.All(); len(after) != 1 || after[0].IndexPath != before[0].IndexPath || after[0].State != "" {
				t.Errorf("catalog memory = %+v after failed commits, disk still has %+v", after, before)
			}
			return err
		}},
		// The result cache's artifact, on a filesystem that refuses links.
		{base: "cafe.kv", fresh: true, commit: func(t *testing.T, dst string, gen int) error {
			durable.Link = func(string, string) error { return syscall.EXDEV }
			defer func() { durable.Link = os.Link }()
			src := filepath.Join(filepath.Dir(dst), "..", "job-output")
			if err := os.WriteFile(src, []byte("kv"), 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := catalog.Open(filepath.Dir(filepath.Dir(dst)))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			return c.StoreCache("cafe", src, nil, 1)
		}},
	}
	for _, row := range rows {
		row := row
		t.Run(row.base, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "cache") // the cache row's layout; any directory does for the rest
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			dst := filepath.Join(dir, row.base)
			var previous []byte
			if !row.fresh {
				if err := row.commit(t, dst, 1); err != nil {
					t.Fatalf("undisturbed commit: %v", err)
				}
				if previous, err = os.ReadFile(dst); err != nil || len(previous) == 0 {
					t.Fatalf("undisturbed commit left %d bytes, %v", len(previous), err)
				}
			}

			tempSynced := false
			defer durable.OnSync(func(path string) {
				if strings.HasPrefix(path, dst+".tmp-") {
					tempSynced = true
				}
			})()
			faultinject.Set(faultinject.MustParse("crash=1@" + row.base + ";seed=1"))
			defer faultinject.Reset()
			if err := row.commit(t, dst, 2); !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("commit err = %v; want the injected crash", err)
			}
			if !tempSynced {
				t.Error("the temp file's sync was not seen by durable.OnSync")
			}
			if now, err := os.ReadFile(dst); row.fresh && !os.IsNotExist(err) {
				t.Errorf("destination exists after a crashed first commit (err = %v)", err)
			} else if !row.fresh && !bytes.Equal(now, previous) {
				t.Errorf("destination changed under a crashed commit: %d bytes, was %d (err = %v)", len(now), len(previous), err)
			}
			left, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, de := range left {
				if _, isTemp := durable.IsTemp(de.Name()); isTemp {
					t.Errorf("debris left after crashed commit: %s", de.Name())
				}
			}
		})
	}
}

// TestFileAbortAndRename: Abort is idempotent and a no-op after a commit;
// Rename issues no sync and its handle reads back what was written.
func TestFileAbortAndRename(t *testing.T) {
	dir := t.TempDir()
	dst := filepath.Join(dir, "spill")
	if err := os.WriteFile(dst, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := durable.Create(dst)
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("discarded"))
	if err := errors.Join(w.Abort(), w.Abort()); err != nil {
		t.Fatalf("Abort twice: %v", err)
	}
	if err := w.Commit(); err == nil {
		t.Fatal("Commit after Abort succeeded")
	}

	syncs := 0
	defer durable.OnSync(func(string) { syncs++ })()
	if w, err = durable.Create(dst); err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("new"))
	f, err := w.Rename()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := w.Abort(); err != nil {
		t.Fatalf("Abort after Rename: %v", err)
	}
	got := make([]byte, 3)
	if _, err := f.ReadAt(got, 0); err != nil || string(got) != "new" {
		t.Fatalf("handle after Rename reads %q, %v", got, err)
	}
	if raw, _ := os.ReadFile(dst); string(raw) != "new" || syncs != 0 {
		t.Fatalf("after Rename: destination %q, %d syncs", raw, syncs)
	}
	if des, _ := os.ReadDir(dir); len(des) != 1 {
		t.Fatalf("directory holds %d files, want only the destination", len(des))
	}
}

// TestRemoveTempsIsLiteral: recovery's sweeper treats the destination as
// a name, not a pattern.
func TestRemoveTempsIsLiteral(t *testing.T) {
	dir := t.TempDir()
	keep := []string{"out[1].kv", "out1.kv.tmp-7", "outX.kv.tmp-8", "out[1].kv.tmp-9.kv", "out[1].kv.tmp-"}
	gone := []string{"out[1].kv.tmp-123", "out*.kv.tmp-4"}
	for _, name := range append(keep, gone...) {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	durable.RemoveTemps(filepath.Join(dir, "out[1].kv"))
	durable.RemoveTemps(filepath.Join(dir, "out*.kv"))
	des, _ := os.ReadDir(dir)
	var left []string
	for _, de := range des {
		left = append(left, de.Name())
	}
	if want := "out1.kv.tmp-7 outX.kv.tmp-8 out[1].kv out[1].kv.tmp- out[1].kv.tmp-9.kv"; strings.Join(left, " ") != want {
		t.Fatalf("left %q\nwant %q", left, want)
	}
}
