package durable

import (
	"os"
	"syscall"
)

// fdatasync flushes f's data and the metadata needed to read it back (its
// size) — not its timestamps, which saves the inode write an append-only
// log would otherwise pay on every commit.
func fdatasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err != syscall.EINTR {
			return os.NewSyscallError("fdatasync", err)
		}
	}
}
