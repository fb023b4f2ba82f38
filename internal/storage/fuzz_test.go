package storage

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzRecordFooter feeds arbitrary footer bytes — block index, segment
// lengths and checksums, zone-map stats, dictionaries — behind a valid
// header and data section. Open must either succeed or fail with
// ErrMalformedFile; a file that opens must scan, full and field-pruned, to
// the end or to a CorruptBlockError; and nothing may panic or allocate more
// than a small multiple of the file's size.
func FuzzRecordFooter(f *testing.F) {
	src := filepath.Join(f.TempDir(), "seed.rec")
	w, err := NewWriter(src, testSchema, WriterOptions{
		BlockSize: 1 << 10,
		Encodings: map[string]FieldEncoding{"url": EncodeDict, "ts": EncodeDelta},
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range makeRecords(300, 41) {
		if err := w.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(src)
	if err != nil {
		f.Fatal(err)
	}
	tail := 8 + len(magicFooter)
	ftrLen := int(binary.LittleEndian.Uint64(raw[len(raw)-tail:]))
	body := raw[:len(raw)-tail-ftrLen] // header and data section
	footer := raw[len(raw)-tail-ftrLen : len(raw)-tail]

	f.Add(footer)
	f.Add(footer[:len(footer)/2])
	f.Add([]byte{})
	f.Add(binary.AppendUvarint(nil, 1<<62))
	f.Fuzz(func(t *testing.T, ftr []byte) {
		file := append(append([]byte(nil), body...), ftr...)
		file = binary.LittleEndian.AppendUint64(file, uint64(len(ftr)))
		file = append(file, magicFooter...)
		path := filepath.Join(t.TempDir(), "fuzz.rec")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := Open(path)
		if err != nil {
			if !errors.Is(err, ErrMalformedFile) {
				t.Fatalf("Open: err = %v; want ErrMalformedFile", err)
			}
			return
		}
		defer r.Close()
		for _, pd := range []*Pushdown{nil, {Fields: []string{"ts"}}} {
			sc, err := r.ScanPushdown(0, r.NumBlocks(), pd)
			if err != nil {
				t.Fatal(err)
			}
			for sc.Next() {
			}
			if err := sc.Err(); err != nil && !errors.Is(err, ErrCorruptBlock) {
				t.Fatalf("scan: err = %v; want nil or ErrCorruptBlock", err)
			}
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(file))+1<<20 {
			t.Fatalf("opening and scanning a %d-byte file allocated %d bytes", len(file), grew)
		}
	})
}
