//go:build !linux

package durable

import "os"

// fdatasync falls back to a full fsync where the platform's syscall
// package has no fdatasync.
func fdatasync(f *os.File) error { return f.Sync() }
