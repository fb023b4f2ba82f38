package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

type rec struct {
	off     int64
	kind    byte
	payload string
}

// collect opens the log at path and returns its records.
func collect(t *testing.T, path string) (*Log, []rec) {
	t.Helper()
	var recs []rec
	l, err := Open(path, func(off int64, kind byte, payload []byte) error {
		recs = append(recs, rec{off, kind, string(payload)})
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l, recs
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, recs := collect(t, path)
	if len(recs) != 0 {
		t.Fatalf("new log has %d records", len(recs))
	}
	var offs []int64
	for i := 0; i < 5; i++ {
		off, err := l.Append(byte(i+1), []byte(fmt.Sprintf("record-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	if err := l.Sync(offs[4]); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := l.ReadAt(offs[2])
	if err != nil || kind != 3 || string(payload) != "record-2" {
		t.Fatalf("ReadAt = %d %q %v", kind, payload, err)
	}
	if _, _, err := l.ReadAt(offs[2] + 1); err == nil {
		t.Error("ReadAt accepted an offset inside a frame")
	}
	var scanned int
	if err := l.Scan(func(off int64, kind byte, payload []byte) error {
		if off != offs[scanned] {
			t.Errorf("record %d scanned at %d, appended at %d", scanned, off, offs[scanned])
		}
		scanned++
		return nil
	}); err != nil || scanned != 5 {
		t.Fatalf("Scan saw %d records, err %v", scanned, err)
	}

	_, recs = collect(t, path)
	if len(recs) != 5 || recs[4].payload != "record-4" || recs[0].off != offs[0] {
		t.Fatalf("reopened log = %+v", recs)
	}
	if _, err := l.Append(1, make([]byte, MaxRecord+1)); err == nil {
		t.Error("Append accepted a record over MaxRecord")
	}
}

// TestLogTornTail: a tail cut at any byte of the last frame is ignored by
// Open without touching the file, and dropped by the next Append.
func TestLogTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, _ := collect(t, path)
	l.Append(1, []byte("first"))
	last, _ := l.Append(2, []byte("second"))
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := int(last); cut < len(whole); cut++ {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, recs := collect(t, path)
		if len(recs) != 1 || recs[0].payload != "first" {
			t.Fatalf("cut at %d: records = %+v", cut, recs)
		}
		if st, _ := os.Stat(path); st.Size() != int64(cut) {
			t.Fatalf("cut at %d: Open changed the file size to %d", cut, st.Size())
		}
		if off, err := l2.Append(3, []byte("third")); err != nil || off != last {
			t.Fatalf("cut at %d: Append after a torn tail = %d, %v (want offset %d)", cut, off, err, last)
		}
		if _, recs := collect(t, path); len(recs) != 2 || recs[1].payload != "third" {
			t.Fatalf("cut at %d: after append records = %+v", cut, recs)
		}
	}
}

// TestLogDamage flips every byte of a three-record log in turn. Open must
// return either the records before the damage (a clean truncation) or a
// *CorruptError; damage in a frame that has data behind it must be the
// error, never a silently shortened log — unless it hit the length field,
// which cannot be told from a torn append.
func TestLogDamage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, _ := collect(t, path)
	var offs []int64
	for _, p := range []string{"alpha", "beta", "gamma"} {
		off, _ := l.Append(7, []byte(p))
		offs = append(offs, off)
	}
	whole, _ := os.ReadFile(path)
	for pos := range whole {
		damaged := bytes.Clone(whole)
		damaged[pos] ^= 0x5a
		os.WriteFile(path, damaged, 0o644)
		var got []string
		l2, err := Open(path, func(_ int64, _ byte, payload []byte) error {
			got = append(got, string(payload))
			return nil
		})
		before := 0 // records wholly before the flipped byte
		for before < len(offs) && frameEnd(offs, before, len(whole)) <= int64(pos) {
			before++
		}
		var ce *CorruptError
		switch {
		case err == nil:
			l2.Close()
			if len(got) != before {
				t.Errorf("flip at %d: Open returned %d records, %d precede the damage", pos, len(got), before)
			}
			inLength := before < len(offs) && int64(pos) < offs[before]+4
			if before < len(offs)-1 && !inLength {
				t.Errorf("flip at %d: mid-log damage silently truncated", pos)
			}
		case errors.As(err, &ce):
			if len(got) > before {
				t.Errorf("flip at %d: %d records delivered before the error, %d precede the damage", pos, len(got), before)
			}
		default:
			t.Errorf("flip at %d: untyped error %v", pos, err)
		}
	}
}

func frameEnd(offs []int64, i, size int) int64 {
	if i+1 < len(offs) {
		return offs[i+1]
	}
	return int64(size)
}

// TestLogZeroTail: a zero-filled extent behind the last intact frame (size
// extended, data never written) is a torn tail, not corruption.
func TestLogZeroTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, _ := collect(t, path)
	l.Append(1, []byte("kept"))
	end := l.Size()
	if err := os.Truncate(path, end+100); err != nil {
		t.Fatal(err)
	}
	_, recs := collect(t, path)
	if len(recs) != 1 || recs[0].payload != "kept" {
		t.Fatalf("records = %+v", recs)
	}
}
