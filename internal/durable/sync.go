// Package durable holds the two primitives Manimal's metadata stores are
// made crash-safe with: counted file and directory syncs, and Log, an
// append-only CRC32C-framed record log with group commit (log.go). The job
// journal (package journal) and the result-cache index (package catalog)
// are both a Log; the engine's output commit and the catalog snapshot sync
// through SyncFile/SyncDir, so one hook sees every fsync a submission
// pays.
package durable

import (
	"os"
	"sync/atomic"
)

// syncHook is called with the path about to be synced; nil (the normal
// case) costs one atomic load per sync.
var syncHook atomic.Pointer[func(path string)]

// OnSync installs fn to run before every sync this package issues — file,
// data-only and directory alike — and returns the function that removes
// it. It exists for tests: the deterministic cost gates count syncs per
// submission with it, and the group-commit test holds one open. fn runs on
// the syncing goroutine and may block.
func OnSync(fn func(path string)) (restore func()) {
	prev := syncHook.Swap(&fn)
	return func() { syncHook.Store(prev) }
}

func noteSync(path string) {
	if fn := syncHook.Load(); fn != nil {
		(*fn)(path)
	}
}

// SyncFile fsyncs f: data and metadata reach stable storage before it
// returns.
func SyncFile(f *os.File) error {
	noteSync(f.Name())
	return f.Sync()
}

// syncData makes f's data (and the size needed to read it back) durable,
// skipping metadata such as mtime where the platform can (fdatasync).
func syncData(f *os.File) error {
	noteSync(f.Name())
	return fdatasync(f)
}

// SyncDir fsyncs a directory, making the creations and renames inside it
// durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	noteSync(dir)
	return d.Sync()
}
