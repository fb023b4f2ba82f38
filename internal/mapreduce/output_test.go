package mapreduce

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"manimal/internal/faultinject"
	"manimal/internal/interp"
	"manimal/internal/serde"
)

// kvFileBytes wraps body in a KV file's magic and a trailer claiming count
// pairs.
func kvFileBytes(count uint64, body []byte) []byte {
	b := append([]byte(kvMagic), body...)
	b = binary.LittleEndian.AppendUint64(b, count)
	return append(b, kvMagic...)
}

// kvFrame frames payload with the given key and value lengths, which need
// not match it.
func kvFrame(kl, vl int, payload ...[]byte) []byte {
	b := binary.AppendUvarint(nil, uint64(kl))
	b = binary.AppendUvarint(b, uint64(vl))
	for _, p := range payload {
		b = append(b, p...)
	}
	return b
}

func writeTemp(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.kv")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadKVFileRejectsMalformed(t *testing.T) {
	kb := serde.Int(7).AppendTagged(nil)
	vb := encodeValue(interp.EmitValue{D: serde.String("v")}, nil)
	good := kvFrame(len(kb), len(vb), kb, vb)
	pairs, err := ReadKVFile(writeTemp(t, kvFileBytes(2, append(append([]byte(nil), good...), good...))))
	if err != nil || len(pairs) != 2 || pairs[1].Key.Int() != 7 || pairs[1].Value.D.Str() != "v" {
		t.Fatalf("well-formed file: %d pairs, err %v", len(pairs), err)
	}
	for _, c := range []struct {
		name string
		file []byte
	}{
		{"count beyond what the body holds", kvFileBytes(1<<62, good)},
		{"key length past the body", kvFileBytes(1, []byte{0xff, 0x7f, 0x00})},
		{"value length into the trailer", kvFileBytes(1, kvFrame(len(kb), len(vb)+8, kb, vb))},
		{"key shorter than its frame", kvFileBytes(1, kvFrame(len(kb)+1, len(vb), kb, []byte{0}, vb))},
		{"value shorter than its frame", kvFileBytes(1, kvFrame(len(kb), len(vb)+1, kb, vb, []byte{0}))},
		{"bytes after the last pair", kvFileBytes(1, append(append([]byte(nil), good...), good...))},
		{"fewer pairs than counted", kvFileBytes(2, good)},
		{"bad value tag", kvFileBytes(1, kvFrame(len(kb), 1, kb, []byte{9}))},
		{"unterminated length", kvFileBytes(1, []byte{0x80, 0x80, 0x80, 0x80})},
		{"short trailer", []byte(kvMagic + kvMagic)},
	} {
		t.Run(c.name, func(t *testing.T) {
			pairs, err := ReadKVFile(writeTemp(t, c.file))
			if !errors.Is(err, ErrMalformedKVFile) {
				t.Fatalf("got %d pairs, err %v; want ErrMalformedKVFile", len(pairs), err)
			}
		})
	}
}

// TestKVFileOutputDeferred pins where the KV output's file appears: not
// before the first Write, never after an Abort of an unwritten output, and
// as a valid empty file when an unwritten output is closed.
func TestKVFileOutputDeferred(t *testing.T) {
	entries := func(dir string) []string {
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, de := range des {
			names = append(names, de.Name())
		}
		return names
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "out.kv")
	o, err := NewKVFileOutput(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := entries(dir); len(got) != 0 {
		t.Fatalf("before the first Write: %v", got)
	}
	if err := o.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := entries(dir); len(got) != 0 {
		t.Fatalf("after aborting an unwritten output: %v", got)
	}

	o, _ = NewKVFileOutput(path)
	if err := o.Write(serde.Int(1), interp.EmitValue{D: serde.Int(2)}); err != nil {
		t.Fatal(err)
	}
	if got := entries(dir); len(got) != 1 || got[0] == "out.kv" {
		t.Fatalf("after the first Write: %v; want one temp file", got)
	}
	if err := o.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := entries(dir); len(got) != 0 {
		t.Fatalf("after aborting a written output: %v", got)
	}

	o, _ = NewKVFileOutput(path)
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if got := entries(dir); len(got) != 1 || got[0] != "out.kv" {
		t.Fatalf("after closing an unwritten output: %v", got)
	}
	pairs, err := ReadKVFile(path)
	if err != nil || len(pairs) != 0 {
		t.Fatalf("closed unwritten output reads %d pairs, err %v", len(pairs), err)
	}
}

// FuzzReadKVFile feeds arbitrary bytes, seeded from real KV outputs, to
// ReadKVFile: it must decode them or fail with ErrMalformedKVFile, never
// panic, and allocate at most a small multiple of the file's size.
func FuzzReadKVFile(f *testing.F) {
	rec := serde.NewRecord(wordSchema)
	rec.MustSet("text", serde.String("hello world"))
	path := filepath.Join(f.TempDir(), "seed.kv")
	o, _ := NewKVFileOutput(path)
	for i, p := range []struct {
		k serde.Datum
		v interp.EmitValue
	}{
		{serde.Int(1), interp.EmitValue{D: serde.String("v1")}},
		{serde.String("k2"), interp.EmitValue{Rec: rec}},
		{serde.Float(2.5), interp.EmitValue{D: serde.Bool(true)}},
		{serde.Bytes([]byte{0, 1}), interp.EmitValue{Rec: rec}},
	} {
		if err := o.Write(p.k, p.v); err != nil {
			f.Fatal(i, err)
		}
	}
	if err := o.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(kvFileBytes(0, nil))
	f.Add(kvFileBytes(1<<62, seed[len(kvMagic):len(seed)-len(kvMagic)-8]))
	f.Add(kvFileBytes(1, []byte{0xff, 0x7f, 0x00}))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := writeTemp(t, data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadKVFile(path)
		runtime.ReadMemStats(&after)
		if err != nil && !errors.Is(err, ErrMalformedKVFile) {
			t.Fatalf("err = %v; want nil or ErrMalformedKVFile", err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+1<<20 {
			t.Fatalf("reading a %d-byte file allocated %d bytes", len(data), grew)
		}
	})
}

// TestSharedOutputPartitionOrder: a reduce job's one shared output holds
// its partitions in partition order, whatever order the reduce tasks
// commit in. Twenty runs over four slots, with reduce task 0 straggling so
// that the other partitions commit first, are byte-equal to the one-slot
// run. A map-only job's output follows its split order the same way.
func TestSharedOutputPartitionOrder(t *testing.T) {
	lines := make([]string, 300)
	for i := range lines {
		lines[i] = fmt.Sprintf("w%03d w%03d w%03d", i%97, (i*7)%89, (i*13)%83)
	}
	run := func(parallel int, mapOnly bool) []byte {
		t.Helper()
		in, err := NewMemInput(wordSchema, textRecords(lines...))
		if err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(t.TempDir(), "out.kv")
		kv, err := NewKVFileOutput(out)
		if err != nil {
			t.Fatal(err)
		}
		job := &Job{
			Name:    "partition-order",
			Inputs:  []MapInput{{Input: in, Mapper: func() (Mapper, error) { return wordCountMapper{}, nil }}},
			Reducer: func() (Reducer, error) { return sumReducer{}, nil },
			Output:  kv,
			Config:  Config{WorkDir: t.TempDir(), NumReducers: 4, MaxParallelTasks: parallel},
		}
		if mapOnly {
			job.Reducer = nil
		}
		if _, err := NewScheduler(4).Run(context.Background(), job); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for _, tc := range []struct {
		name    string
		mapOnly bool
		faults  string
	}{
		{"reduce", false, "straggle=1.0:20ms@reduce:0:;seed=3"},
		{"map-only", true, "straggle=1.0:20ms@map:0:;seed=3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := run(1, tc.mapOnly)
			faultinject.Set(faultinject.MustParse(tc.faults))
			defer faultinject.Reset()
			for i := 0; i < 20; i++ {
				if got := run(4, tc.mapOnly); !bytes.Equal(got, want) {
					t.Fatalf("run %d: output (%d bytes) differs from the one-slot run (%d bytes)", i, len(got), len(want))
				}
			}
		})
	}
}
