package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// Log file layout: an 8-byte magic, then frames
//
//	len  uint32 LE   payload length
//	crc  uint32 LE   CRC32C over kind ‖ payload
//	kind uint8       caller-defined record kind
//	payload
//
// appended one write call each to a file opened O_APPEND, so frames from a
// second handle on the same file interleave whole instead of overwriting
// one another. Nothing is ever rewritten in place.
const (
	logMagic    = "MNMLLOG1"
	frameHeader = 9

	// MaxRecord bounds one record's payload. A length field above it is
	// damage, not a record, so no read is ever sized from an unchecked
	// length.
	MaxRecord = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports damage that is not a torn tail: a complete frame in
// the middle of the log fails its checksum with more data behind it, or the
// file does not start with the log magic. Everything before Offset was read
// intact.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("durable: %s: corrupt record at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// Log is an append-only record log. Append and Sync together give group
// commit: writers append under the log's lock and then ask for their record
// to be made durable; one fdatasync covers every record appended before it
// started, so concurrent writers share syncs instead of queueing one each.
// A Log that is only appended to and never synced (the result-cache index)
// is a cheap best-effort store: a crash loses an unsynced tail, which Open
// then ignores.
//
// Safe for concurrent use. A failed write or sync poisons the Log — every
// later Append and Sync returns that error — because after either the file
// may end in a partial frame that nothing must be appended behind.
type Log struct {
	path string
	f    *os.File

	mu     sync.Mutex
	size   int64 // end of the last intact frame: where the next one goes
	onDisk int64 // file size; > size while a torn tail awaits truncation
	synced int64 // every frame that ends at or before this offset is durable
	err    error
	buf    []byte // frame assembly, reused under mu

	// syncMu admits one syncer at a time; the writers queued behind it
	// usually find their record already covered when they get in.
	syncMu sync.Mutex
}

// Open opens the log at path, creating it if absent, and calls fn for
// every intact record in order (payload is only valid during the call; an
// error from fn aborts Open). A torn tail — a final frame cut short, or
// failing its checksum with nothing behind it — is what a crash between
// append and sync leaves: it is ignored, and truncated away by the first
// Append, so merely opening an existing log never modifies it. Damage
// anywhere else is a *CorruptError.
func Open(path string, fn func(off int64, kind byte, payload []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	l := &Log{path: path, f: f}
	if err := l.load(fn); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

func (l *Log) load(fn func(off int64, kind byte, payload []byte) error) error {
	st, err := l.f.Stat()
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	l.onDisk = st.Size()
	if l.onDisk < int64(len(logMagic)) {
		// New, or died before its header landed: either way empty.
		head := make([]byte, l.onDisk)
		if _, err := io.ReadFull(io.NewSectionReader(l.f, 0, l.onDisk), head); err != nil {
			return fmt.Errorf("durable: %w", err)
		}
		if string(head) != logMagic[:len(head)] {
			return &CorruptError{Path: l.path, Reason: "not a record log (bad magic)"}
		}
		if err := l.f.Truncate(0); err != nil {
			return fmt.Errorf("durable: %w", err)
		}
		if _, err := l.f.WriteString(logMagic); err != nil {
			return fmt.Errorf("durable: %w", err)
		}
		l.onDisk = int64(len(logMagic))
		l.size = l.onDisk
		return nil
	}
	var magic [len(logMagic)]byte
	if _, err := l.f.ReadAt(magic[:], 0); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if string(magic[:]) != logMagic {
		return &CorruptError{Path: l.path, Reason: "not a record log (bad magic)"}
	}
	end, err := l.scan(l.onDisk, fn)
	if err != nil {
		return err
	}
	l.size, l.synced = end, end
	return nil
}

// Scan calls fn for every record appended so far, in order.
func (l *Log) Scan(fn func(off int64, kind byte, payload []byte) error) error {
	l.mu.Lock()
	end := l.size
	l.mu.Unlock()
	_, err := l.scan(end, fn)
	return err
}

// scan reads frames from the header up to limit and returns the offset the
// intact prefix ends at.
func (l *Log) scan(limit int64, fn func(off int64, kind byte, payload []byte) error) (int64, error) {
	off := int64(len(logMagic))
	r := bufio.NewReaderSize(io.NewSectionReader(l.f, off, limit-off), 64<<10)
	var (
		hdr     [frameHeader]byte
		payload []byte
	)
	for limit-off >= frameHeader {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return off, fmt.Errorf("durable: %s: %w", l.path, err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		next := off + frameHeader + n
		if n > MaxRecord || next > limit {
			// The frame does not fit in the file: a torn append, or a
			// damaged length field, which cannot be told apart from one.
			return off, nil
		}
		if int64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return off, fmt.Errorf("durable: %s: %w", l.path, err)
		}
		if frameCRC(&hdr, payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
			if next == limit || l.zeroFrom(off, limit) {
				return off, nil // torn tail: the last frame, or a zero-filled extent
			}
			return off, &CorruptError{Path: l.path, Offset: off, Reason: "checksum mismatch"}
		}
		if fn != nil {
			if err := fn(off, hdr[8], payload); err != nil {
				return off, err
			}
		}
		off = next
	}
	return off, nil // at the end, or short of one header: a torn tail
}

// zeroFrom reports whether the file is all zero bytes from off to limit —
// what a filesystem that extended the size before the data landed leaves
// after a crash.
func (l *Log) zeroFrom(off, limit int64) bool {
	r := bufio.NewReader(io.NewSectionReader(l.f, off, limit-off))
	for {
		b, err := r.ReadByte()
		if err != nil {
			return err == io.EOF
		}
		if b != 0 {
			return false
		}
	}
}

// frameCRC is the checksum a frame with this header's kind byte and this
// payload must carry.
func frameCRC(hdr *[frameHeader]byte, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum(hdr[8:], castagnoli), castagnoli, payload)
}

// Append writes one record and returns the offset of its frame. The record
// is in the file but not yet durable: pass the offset to Sync for that.
func (l *Log) Append(kind byte, payload []byte) (int64, error) {
	n := len(payload)
	if n > MaxRecord {
		return 0, fmt.Errorf("durable: %s: record of %d bytes exceeds the %d-byte limit", l.path, n, MaxRecord)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.onDisk > l.size {
		if err := l.f.Truncate(l.size); err != nil {
			l.err = fmt.Errorf("durable: %s: dropping torn tail: %w", l.path, err)
			return 0, l.err
		}
	}
	b := append(l.buf[:0], make([]byte, frameHeader)...)
	b = append(b, payload...)
	binary.LittleEndian.PutUint32(b[0:4], uint32(n))
	b[8] = kind
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(b[8:], castagnoli))
	l.buf = b
	off := l.size
	if _, err := l.f.Write(b); err != nil {
		l.err = fmt.Errorf("durable: %s: %w", l.path, err)
		return 0, l.err
	}
	l.size += int64(len(b))
	l.onDisk = l.size
	return off, nil
}

// Sync returns once the record whose frame starts at off is durable. The
// caller that finds no sync in flight performs one fdatasync covering
// everything appended so far; callers that queued behind it return without
// syncing when it covered their record too.
func (l *Log) Sync(off int64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.err != nil || l.synced > off {
		err := l.err
		l.mu.Unlock()
		return err
	}
	target := l.size
	l.mu.Unlock()
	err := syncData(l.f)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.err = fmt.Errorf("durable: %s: %w", l.path, err)
		return l.err
	}
	l.synced = target
	return nil
}

// ReadAt returns the record whose frame starts at off (an offset Open,
// Scan or Append reported).
func (l *Log) ReadAt(off int64) (kind byte, payload []byte, err error) {
	l.mu.Lock()
	end := l.size
	l.mu.Unlock()
	var hdr [frameHeader]byte
	if off < int64(len(logMagic)) || off+frameHeader > end {
		return 0, nil, &CorruptError{Path: l.path, Offset: off, Reason: "no record at this offset"}
	}
	if _, err := l.f.ReadAt(hdr[:], off); err != nil {
		return 0, nil, fmt.Errorf("durable: %s: %w", l.path, err)
	}
	n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	if n > MaxRecord || off+frameHeader+n > end {
		return 0, nil, &CorruptError{Path: l.path, Offset: off, Reason: "length runs past the end of the log"}
	}
	payload = make([]byte, n)
	if _, err := l.f.ReadAt(payload, off+frameHeader); err != nil {
		return 0, nil, fmt.Errorf("durable: %s: %w", l.path, err)
	}
	if frameCRC(&hdr, payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return 0, nil, &CorruptError{Path: l.path, Offset: off, Reason: "checksum mismatch"}
	}
	return hdr[8], payload, nil
}

// Size is the log's length in bytes: header plus every intact frame.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Close releases the file. It does not sync: records whose durability
// matters were passed to Sync.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		l.err = errors.New("durable: " + l.path + ": log is closed")
	}
	return l.f.Close()
}
