package durable

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"manimal/internal/faultinject"
)

// tempInfix names the temp files commits are staged in,
// "<base>.tmp-<digits>", always beside the destination so the rename never
// crosses a filesystem.
const tempInfix = ".tmp-"

// File is one atomic replacement in progress: bytes written through it go
// to a uniquely named temp file, and the destination changes — all at once
// — only in Commit (or Rename). Until then, and after any failure, whatever
// was at the destination is untouched; concurrent writers of one
// destination never collide, the last rename wins.
type File struct {
	f    *os.File
	dst  string
	done bool // committed or aborted: the temp name is no longer ours
}

// Create starts an atomic replacement of dst.
func Create(dst string) (*File, error) {
	f, err := os.CreateTemp(filepath.Dir(dst), filepath.Base(dst)+tempInfix+"*")
	if err != nil {
		return nil, err
	}
	return &File{f: f, dst: dst}, nil
}

// Write appends to the temp file.
func (w *File) Write(p []byte) (int, error) { return w.f.Write(p) }

// TempName is the path being written, for a caller that opens a second
// handle on it (the cache index builds its new Log there).
func (w *File) TempName() string { return w.f.Name() }

// Commit makes what was written durable and then visible: fsync the temp
// file, close it, rename it onto the destination, fsync the directory
// (best effort — the rename itself succeeded, and some filesystems refuse
// a directory sync). The crash and kill points sit between the file sync
// and the rename. On any failure the temp file is removed and the
// destination is as it was.
func (w *File) Commit() error {
	err := SyncFile(w.f)
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = commitPoint(w.dst)
	}
	if err == nil {
		err = rename(w.f.Name(), w.dst)
	}
	if err != nil {
		w.Abort()
		return err
	}
	w.done = true
	SyncDir(filepath.Dir(w.dst))
	return nil
}

// Rename commits without a single sync and hands back the still-open
// read-write handle, which follows the file to its new name. It is for
// files whose loss costs only a redo — shuffle spills, the result-cache
// index — and so passes no crash point either.
func (w *File) Rename() (*os.File, error) {
	if err := rename(w.f.Name(), w.dst); err != nil {
		w.Abort()
		return nil, err
	}
	w.done = true
	return w.f, nil
}

// Abort closes and removes the temp file. It is idempotent, a no-op after
// a successful Commit or Rename, and tolerant of the file being gone.
func (w *File) Abort() error {
	if w.done {
		return nil
	}
	w.done = true
	w.f.Close()
	if err := os.Remove(w.f.Name()); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// rename is the one os.Rename; every caller removes tmp when it fails.
func rename(tmp, dst string) error { return os.Rename(tmp, dst) }

// commitPoint is where a commit to dst can be made to fail (crash=…) or
// the process to die (kill=…@commit:<base>), keyed by dst's base name.
func commitPoint(dst string) error {
	base := filepath.Base(dst)
	if err := faultinject.Fail(faultinject.PointCrashRename, base); err != nil {
		return err
	}
	faultinject.Kill("commit:" + base)
	return nil
}

// WriteFile atomically replaces dst with data (Create, Write, Commit).
func WriteFile(dst string, data []byte) error {
	return commitFrom(dst, bytes.NewReader(data))
}

func commitFrom(dst string, src io.Reader) error {
	w, err := Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(w, src); err != nil {
		w.Abort()
		return err
	}
	return w.Commit()
}

// Link is os.Link, replaceable by tests to stand in for a filesystem that
// refuses hardlinks.
var Link = os.Link

// Place atomically makes dst a file with src's contents. Where the
// filesystem allows, it hardlinks src under a temp name and renames that
// over dst — src is already durable, so this costs no copy and no sync.
// Any link error (cross-device, permissions, a filesystem without links)
// falls back to a committed copy. After a link the two names share an
// inode: whoever relies on src staying as it was must check it.
func Place(src, dst string) error {
	tmp := fmt.Sprintf("%s%s%d", dst, tempInfix, rand.Uint64())
	if Link(src, tmp) != nil {
		in, err := os.Open(src)
		if err != nil {
			return err
		}
		defer in.Close()
		return commitFrom(dst, in)
	}
	err := commitPoint(dst)
	if err == nil {
		err = rename(tmp, dst)
	}
	// Renaming one link of an inode over another is a successful no-op
	// that leaves both names, so the temp name may still be there.
	os.Remove(tmp)
	return err
}

// IsTemp reports whether name is a temp file of some commit, and of which
// destination base name: "<base>.tmp-<digits>".
func IsTemp(name string) (base string, ok bool) {
	i := strings.LastIndex(name, tempInfix)
	if i <= 0 {
		return "", false
	}
	suffix := name[i+len(tempInfix):]
	if suffix == "" || strings.Trim(suffix, "0123456789") != "" {
		return "", false
	}
	return name[:i], true
}

// RemoveTemps deletes what interrupted commits to dst left beside it. dst
// is a user's path, not a pattern: "out[1].kv" finds its own temps and
// "out*.kv" nobody else's. For recovery only: a live commit's temp file
// would go too.
func RemoveTemps(dst string) {
	dir := filepath.Dir(dst)
	des, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, de := range des {
		if base, ok := IsTemp(de.Name()); ok && base == filepath.Base(dst) {
			os.Remove(filepath.Join(dir, de.Name()))
		}
	}
}
