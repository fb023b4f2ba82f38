// Package durable is how Manimal puts bytes on disk so that a crash leaves
// them whole. It holds the only os.Rename, os.CreateTemp and fsync calls in
// the repository (CI checks), in three primitives:
//
//   - File (atomic.go): the atomic replacement every file a reader may find
//     is written through — record files, KV outputs, B+Trees, shard
//     manifests, the catalog snapshot (WriteFile) and result-cache
//     artifacts (Place: link, else copy). Commit is temp → fsync → rename →
//     directory fsync and carries the crash and kill injection points;
//     Rename is the same staging without a sync, for files a crash may take
//     (shuffle spills, the cache index).
//   - Log (log.go): an append-only CRC32C-framed record log with group
//     commit: the job journal and the result-cache index.
//   - SyncFile/SyncDir: the counted syncs under both, so one hook (OnSync)
//     sees every fsync a submission pays.
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
