package mapreduce

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"

	"manimal/internal/btree"
	"manimal/internal/durable"
	"manimal/internal/interp"
	"manimal/internal/serde"
	"manimal/internal/storage"
)

const kvMagic = "MANIMALK"

// ErrMalformedKVFile marks KV data that does not decode: a bad magic or
// trailer, a pair count the body cannot hold, a length past the bytes
// left, a key or value that does not fill its frame, or bytes after the
// last pair.
var ErrMalformedKVFile = errors.New("mapreduce: malformed KV file")

// minKVFrame is the fewest bytes a framed pair can take: two one-byte
// lengths, a key tag and a value tag.
const minKVFrame = 4

// kvEncoder frames pairs in the one encoding KV output files and held
// task output share: uvarint klen | uvarint vlen | tagged key | value.
type kvEncoder struct {
	enc     valueEncoder
	hdr     [2 * binary.MaxVarintLen64]byte
	scratch []byte
}

// frame encodes the pair (k, v) and returns its frame in two parts, the
// length header and the tagged key and value, which the writer copies
// out: both are valid only until the next call.
func (e *kvEncoder) frame(k serde.Datum, v interp.EmitValue) (hdr, body []byte) {
	e.scratch = k.AppendTagged(e.scratch[:0])
	kl := len(e.scratch)
	e.scratch = e.enc.appendValue(e.scratch, v)
	hdr = binary.AppendUvarint(e.hdr[:0], uint64(kl))
	hdr = binary.AppendUvarint(hdr, uint64(len(e.scratch)-kl))
	return hdr, e.scratch
}

// readKVs decodes buf as exactly n framed pairs and hands each to fn, in
// order. Every length is checked against the bytes left, so malformed data
// fails with ErrMalformedKVFile instead of panicking or reading past its
// frame; fn's own errors are returned as they are.
func readKVs(buf []byte, n uint64, fn func(serde.Datum, interp.EmitValue) error) error {
	if n > uint64(len(buf))/minKVFrame {
		return fmt.Errorf("%w: %d pairs cannot fit in %d bytes", ErrMalformedKVFile, n, len(buf))
	}
	var dec valueDecoder
	for i := uint64(0); i < n; i++ {
		kl, a := binary.Uvarint(buf)
		if a <= 0 {
			return fmt.Errorf("%w: pair %d: bad key length", ErrMalformedKVFile, i)
		}
		vl, b := binary.Uvarint(buf[a:])
		if b <= 0 {
			return fmt.Errorf("%w: pair %d: bad value length", ErrMalformedKVFile, i)
		}
		buf = buf[a+b:]
		if kl > uint64(len(buf)) || vl > uint64(len(buf))-kl {
			return fmt.Errorf("%w: pair %d: %d+%d bytes past the %d left", ErrMalformedKVFile, i, kl, vl, len(buf))
		}
		key, kn, err := serde.DecodeTagged(buf[:kl])
		if err == nil && uint64(kn) != kl {
			err = fmt.Errorf("key fills %d of its %d bytes", kn, kl)
		}
		if err != nil {
			return fmt.Errorf("%w: pair %d: %v", ErrMalformedKVFile, i, err)
		}
		val, vn, err := dec.decode(buf[kl : kl+vl])
		if err == nil && uint64(vn) != vl {
			err = fmt.Errorf("value fills %d of its %d bytes", vn, vl)
		}
		if err != nil {
			return fmt.Errorf("%w: pair %d: %v", ErrMalformedKVFile, i, err)
		}
		buf = buf[kl+vl:]
		if err := fn(key, val); err != nil {
			return err
		}
	}
	if len(buf) != 0 {
		return fmt.Errorf("%w: %d bytes after the last pair", ErrMalformedKVFile, len(buf))
	}
	return nil
}

// KVFileOutput writes the job's (key, value) pairs to a simple streaming
// container: the default final-output format. Pairs stream into an atomic
// replacement of the final path (durable.File) that Close commits, so a
// crashed or canceled job never leaves a partial output where the caller's
// path points. The replacement is created by the first write, or by Close
// when nothing was written: a job canceled before it emits never touches
// its output path, and a job that emits nothing still commits a valid
// empty file. As a job's shared output it is handed each task's framed
// bytes (writeFramed), which it writes as they are.
type KVFileOutput struct {
	path  string
	f     *durable.File
	w     *bufio.Writer
	count uint64
	kv    kvEncoder
}

// NewKVFileOutput returns a KV output destined for path (committed by
// Close). It creates nothing until the first Write or Close, so the error
// is always nil.
func NewKVFileOutput(path string) (*KVFileOutput, error) {
	return &KVFileOutput{path: path}, nil
}

// open starts the atomic replacement and writes the header.
func (o *KVFileOutput) open() error {
	f, err := durable.Create(o.path)
	if err != nil {
		return fmt.Errorf("mapreduce: create output %s: %w", o.path, err)
	}
	o.f, o.w = f, bufio.NewWriterSize(f, 256<<10)
	o.w.WriteString(kvMagic) // fits the empty buffer: it cannot fail
	return nil
}

// Write implements Output. The key and value are fully serialized before
// Write returns; callers may reuse the backing record afterwards.
func (o *KVFileOutput) Write(k serde.Datum, v interp.EmitValue) error {
	if o.f == nil {
		if err := o.open(); err != nil {
			return err
		}
	}
	hdr, body := o.kv.frame(k, v)
	o.w.Write(hdr) // a bufio.Writer's first error sticks: the next Write reports it
	if _, err := o.w.Write(body); err != nil {
		return err
	}
	o.count++
	return nil
}

// writeFramed implements SharedOutput. A task that emitted nothing brings
// no chunks and, like an unwritten Write, creates nothing.
func (o *KVFileOutput) writeFramed(chunks [][]byte, pairs uint64) error {
	if len(chunks) == 0 {
		return nil
	}
	if o.f == nil {
		if err := o.open(); err != nil {
			return err
		}
	}
	for _, c := range chunks {
		if _, err := o.w.Write(c); err != nil {
			return err
		}
	}
	o.count += pairs
	return nil
}

// Close writes the trailer, then commits the file.
func (o *KVFileOutput) Close() error {
	if o.f == nil {
		if err := o.open(); err != nil {
			return err
		}
	}
	var tr [8]byte
	binary.LittleEndian.PutUint64(tr[:], o.count)
	o.w.Write(tr[:]) // a bufio.Writer's first error sticks: Flush reports it
	o.w.WriteString(kvMagic)
	if err := o.w.Flush(); err != nil {
		o.f.Abort()
		return err
	}
	if err := o.f.Commit(); err != nil {
		return fmt.Errorf("mapreduce: commit output: %w", err)
	}
	return nil
}

// Abort implements Output: the partial temp file, if one was created, is
// removed; the final path is never touched.
func (o *KVFileOutput) Abort() error {
	if o.f == nil {
		return nil
	}
	return o.f.Abort()
}

// KVPair is one read-back output pair.
type KVPair struct {
	Key   serde.Datum
	Value interp.EmitValue
}

// ReadKVFile loads an entire KV output file (tooling and tests). A file
// that does not decode fails with ErrMalformedKVFile.
func ReadKVFile(path string) ([]KVPair, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < 2*len(kvMagic)+8 || string(raw[:len(kvMagic)]) != kvMagic ||
		string(raw[len(raw)-len(kvMagic):]) != kvMagic {
		return nil, fmt.Errorf("%w: %s is not a Manimal KV file", ErrMalformedKVFile, path)
	}
	tr := len(raw) - len(kvMagic) - 8
	count := binary.LittleEndian.Uint64(raw[tr:])
	body := raw[len(kvMagic):tr]
	out := make([]KVPair, 0, min(count, uint64(len(body))/minKVFrame))
	err = readKVs(body, count, func(k serde.Datum, v interp.EmitValue) error {
		out = append(out, KVPair{Key: k, Value: v})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// SortKVPairs orders pairs by key then scalar value, for deterministic
// comparison of outputs produced with different parallelism.
func SortKVPairs(pairs []KVPair) {
	sort.Slice(pairs, func(i, j int) bool {
		if c := pairs[i].Key.Compare(pairs[j].Key); c != 0 {
			return c < 0
		}
		return pairs[i].Value.D.Compare(pairs[j].Value.D) < 0
	})
}

// RecordFileOutput writes emitted record values into a storage record file
// (used by index-generation jobs for projection and compression indexes).
// Emitted values must be records matching the schema; keys are dropped.
type RecordFileOutput struct {
	w *storage.Writer
}

// NewRecordFileOutput creates a record-file output with the given per-field
// encodings.
func NewRecordFileOutput(path string, schema *serde.Schema, opts storage.WriterOptions) (*RecordFileOutput, error) {
	w, err := storage.NewWriter(path, schema, opts)
	if err != nil {
		return nil, err
	}
	return &RecordFileOutput{w: w}, nil
}

// Write implements Output. Records with a wider schema are projected down
// to the output schema (how projection index-generation drops fields).
func (o *RecordFileOutput) Write(_ serde.Datum, v interp.EmitValue) error {
	if v.Rec == nil {
		return fmt.Errorf("mapreduce: record-file output needs record values")
	}
	rec, err := conformRecord(v.Rec, o.w.Schema())
	if err != nil {
		return err
	}
	return o.w.Append(rec)
}

// Close implements Output.
func (o *RecordFileOutput) Close() error { return o.w.Close() }

// Abort implements Output: the partial record file is removed.
func (o *RecordFileOutput) Abort() error { return o.w.Abort() }

// BTreeOutput bulk-loads emitted (key, record) pairs into a B+Tree index
// (or one shard of a sharded index). Keys must arrive in non-decreasing
// order, which the engine guarantees per reduce task (each partition's
// shuffle merge is key-ordered); selection index-generation jobs run with
// N reducers under a RangePartitioner, giving each reduce task its own
// BTreeOutput (via Job.OutputFor) so every shard bulk-loads in parallel.
type BTreeOutput struct {
	b *btree.Builder
}

// NewBTreeOutput creates a B+Tree output.
func NewBTreeOutput(path string, schema *serde.Schema, keyExpr string) (*BTreeOutput, error) {
	b, err := btree.NewBuilder(path, schema, keyExpr, btree.BuilderOptions{})
	if err != nil {
		return nil, err
	}
	return &BTreeOutput{b: b}, nil
}

// Write implements Output. Records with a wider schema are projected down
// to the tree's stored schema (combined selection+projection indexes).
func (o *BTreeOutput) Write(k serde.Datum, v interp.EmitValue) error {
	if v.Rec == nil {
		return fmt.Errorf("mapreduce: B+Tree output needs record values")
	}
	rec, err := conformRecord(v.Rec, o.b.Schema())
	if err != nil {
		return err
	}
	return o.b.Add(k, rec)
}

// Close implements Output.
func (o *BTreeOutput) Close() error { return o.b.Close() }

// Abort implements Output: the partial index file is removed.
func (o *BTreeOutput) Abort() error { return o.b.Abort() }

// conformRecord projects a record down to the target schema when needed.
func conformRecord(rec *serde.Record, schema *serde.Schema) (*serde.Record, error) {
	if rec.Schema().Equal(schema) {
		return rec, nil
	}
	return rec.Project(schema)
}

// DiscardOutput counts and drops pairs; used by benchmarks that measure
// pure processing cost.
type DiscardOutput struct{ N int64 }

// Write implements Output.
func (o *DiscardOutput) Write(serde.Datum, interp.EmitValue) error {
	o.N++
	return nil
}

// writeFramed implements SharedOutput.
func (o *DiscardOutput) writeFramed(_ [][]byte, pairs uint64) error {
	o.N += int64(pairs)
	return nil
}

// Close implements Output.
func (o *DiscardOutput) Close() error { return nil }

// Abort implements Output.
func (o *DiscardOutput) Abort() error { return nil }
