package mapreduce

import (
	"bufio"
	"bytes"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"manimal/internal/durable"
	"manimal/internal/faultinject"
	"manimal/internal/interp"
	"manimal/internal/serde"
)

// Value tags within shuffle segments and KV output files.
const (
	valTagDatum  = 0
	valTagRecord = 1
)

// valueEncoder serializes emitted values into a caller-supplied destination
// without per-value allocations: the record-payload scratch buffer is
// reused, and the encoded schema of record values is cached by schema
// pointer (record streams overwhelmingly emit one schema, shared per file
// or program, so pointer identity is an effective key).
type valueEncoder struct {
	lastSchema  *serde.Schema
	schemaBytes []byte
	payload     []byte
}

// appendValue appends the wire encoding of v (scalar datum or whole record,
// with embedded schema so heterogeneous record streams — e.g. a repartition
// join's two sides — decode correctly).
func (e *valueEncoder) appendValue(dst []byte, v interp.EmitValue) []byte {
	if v.Rec == nil {
		dst = append(dst, valTagDatum)
		return v.D.AppendTagged(dst)
	}
	dst = append(dst, valTagRecord)
	if sch := v.Rec.Schema(); sch != e.lastSchema {
		e.schemaBytes = sch.AppendBinary(e.schemaBytes[:0])
		e.lastSchema = sch
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.schemaBytes)))
	dst = append(dst, e.schemaBytes...)
	e.payload = v.Rec.AppendBinary(e.payload[:0])
	dst = binary.AppendUvarint(dst, uint64(len(e.payload)))
	return append(dst, e.payload...)
}

// encodeValue is the stateless form of valueEncoder.appendValue, for
// one-off encodings (tests, tooling) that do not sit on a hot path.
func encodeValue(v interp.EmitValue, dst []byte) []byte {
	var e valueEncoder
	return e.appendValue(dst, v)
}

// valueDecoder is the inverse of valueEncoder. It caches decoded schemas
// keyed on their raw encoded bytes so record-valued streams parse each
// distinct schema once instead of once per value.
type valueDecoder struct {
	schemas map[string]*serde.Schema
}

func (d *valueDecoder) schema(raw []byte) (*serde.Schema, error) {
	// The map index expression converts without allocating; the string key
	// is materialized only on the (rare) miss path.
	if s, ok := d.schemas[string(raw)]; ok {
		return s, nil
	}
	s, _, err := serde.DecodeSchema(raw)
	if err != nil {
		return nil, err
	}
	if d.schemas == nil {
		d.schemas = make(map[string]*serde.Schema)
	}
	d.schemas[string(raw)] = s
	return s, nil
}

// decodeInto decodes one value into *out in place (a 72-byte EmitValue
// copy per value matters on the merge hot path). Decoded records are
// freshly allocated — reducers may buffer them across values.
func (d *valueDecoder) decodeInto(buf []byte, out *interp.EmitValue) (int, error) {
	if len(buf) < 1 {
		return 0, fmt.Errorf("mapreduce: truncated value")
	}
	switch buf[0] {
	case valTagDatum:
		out.Rec = nil
		n, err := serde.DecodeTaggedInto(buf[1:], &out.D)
		return n + 1, err
	case valTagRecord:
		pos := 1
		sl, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("mapreduce: truncated value schema length")
		}
		pos += n
		if pos+int(sl) > len(buf) {
			return 0, fmt.Errorf("mapreduce: truncated value schema")
		}
		sch, err := d.schema(buf[pos : pos+int(sl)])
		if err != nil {
			return 0, err
		}
		pos += int(sl)
		pl, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("mapreduce: truncated value payload length")
		}
		pos += n
		if pos+int(pl) > len(buf) {
			return 0, fmt.Errorf("mapreduce: truncated value payload")
		}
		rec, _, err := serde.DecodeRecord(sch, buf[pos:pos+int(pl)])
		if err != nil {
			return 0, err
		}
		*out = interp.EmitValue{Rec: rec}
		return pos + int(pl), nil
	default:
		return 0, fmt.Errorf("mapreduce: bad value tag %d", buf[0])
	}
}

func (d *valueDecoder) decode(buf []byte) (interp.EmitValue, int, error) {
	var v interp.EmitValue
	n, err := d.decodeInto(buf, &v)
	return v, n, err
}

// decodeValue is the stateless (uncached) form of valueDecoder.decode.
func decodeValue(buf []byte) (interp.EmitValue, int, error) {
	var d valueDecoder
	return d.decode(buf)
}

// slabEntry locates one buffered intermediate pair inside a partition slab:
// klen bytes of order-preserving sort-key encoding at off, immediately
// followed by vlen bytes of encoded value. Sorting and spilling move these
// 16-byte entries, never the pair bytes themselves.
type slabEntry struct {
	off  int64
	klen uint32
	vlen uint32
}

// partBuf buffers one partition's pairs: a byte slab holding the
// concatenated key/value encodings plus the index locating each pair. Both
// backing arrays are truncated (not freed) between spills, so a long map
// task settles into zero allocations per emitted record.
type partBuf struct {
	slab []byte
	idx  []slabEntry
}

func (pb *partBuf) key(e slabEntry) []byte {
	return pb.slab[e.off : e.off+int64(e.klen)]
}

func (pb *partBuf) value(e slabEntry) []byte {
	return pb.slab[e.off+int64(e.klen) : e.off+int64(e.klen)+int64(e.vlen)]
}

// append adds one pair whose key bytes are kb and whose value is encoded
// directly into the slab by enc.
func (pb *partBuf) append(kb []byte, v interp.EmitValue, enc *valueEncoder) int {
	off := len(pb.slab)
	pb.slab = append(pb.slab, kb...)
	pb.slab = enc.appendValue(pb.slab, v)
	n := len(pb.slab) - off
	pb.idx = append(pb.idx, slabEntry{off: int64(off), klen: uint32(len(kb)), vlen: uint32(n - len(kb))})
	return n
}

func (pb *partBuf) reset() {
	pb.slab = pb.slab[:0]
	pb.idx = pb.idx[:0]
}

// sort orders the index entries by key bytes. The comparison indexes
// straight into the slab — no closure over per-entry slice headers, no
// reflection-based swapping as with sort.Slice over a struct of slices.
func (pb *partBuf) sort() {
	slab := pb.slab
	slices.SortFunc(pb.idx, func(a, b slabEntry) int {
		return bytes.Compare(slab[a.off:a.off+int64(a.klen)], slab[b.off:b.off+int64(b.klen)])
	})
}

// spillFile is one map-task spill: every partition's sorted run
// concatenated into a single image, located by per-partition byte spans.
// An image of at most memSpillMax bytes stays in memory (mem) and never
// touches the file system. A larger one is written to a file the map task
// keeps open after writing (up to a per-task budget; see
// spillKeepOpenPerTask), so reduce tasks usually read their partition's
// span through positioned reads on the shared handle — one file create per
// spill and zero reopens. refs counts the partitions holding data in this
// spill; each reduce task drops its reference once it has merged its span,
// and the last reference releases the image or deletes the file, so memory
// and WorkDir shrink while the reduce phase is still running.
type spillFile struct {
	// mem is the in-memory image; nil for a disk spill and once released
	// (a losing reduce attempt may still be opening cursors then).
	mem   atomic.Pointer[[]byte]
	f     *os.File // disk spills: nil once closed under the fd budget; cursors then reopen path
	path  string   // the file of a disk spill; for every spill, its base name is the fault-injection key
	parts []span
	refs  atomic.Int32
	done  sync.Once
}

// memSpillMax caps the spill images kept in memory. Mid-task spills
// trigger at Config.SpillBufferBytes (32 MiB by default), so by default
// only a task's final spill — the whole shuffle of a small job — is this
// small, and such a job makes no file-system call for its shuffle.
const memSpillMax = 1 << 20

// span locates one partition's section inside a spill image; n == 0 means
// the partition was empty in this spill.
type span struct {
	off int64
	n   int64
}

// spillKeepOpenPerTask bounds how many spill-file handles one map task
// keeps open: a task that spills more than this closes the extra handles
// right after writing (reduce-side cursors transparently reopen them), so
// job-wide fd usage cannot grow with shuffle volume.
const spillKeepOpenPerTask = 16

// release drops an in-memory image, or closes the spill file (if still
// open) and deletes it from WorkDir. Safe to call more than once: the
// reduce phase releases spills as their last partition is consumed and the
// engine sweeps whatever is left on job exit.
func (sf *spillFile) release() {
	sf.done.Do(func() {
		if sf.mem.Swap(nil) != nil {
			return
		}
		if sf.f != nil {
			sf.f.Close()
		}
		os.Remove(sf.path)
	})
}

// consumed drops partition p's reference; the last consumer releases the
// file. Callers must have closed their cursors into the file first.
func (sf *spillFile) consumed(p int) {
	if sf.parts[p].n == 0 {
		return
	}
	if sf.refs.Add(-1) == 0 {
		sf.release()
	}
}

// emitterBufs is a shuffle emitter's reusable backing memory — partition
// slabs, the combiner buffer, scratches — pooled across map tasks so every
// task after the first starts with warmed, right-sized buffers instead of
// growing fresh ones.
type emitterBufs struct {
	parts  []partBuf
	comb   partBuf
	keyBuf []byte
	segBuf []byte
}

var emitterBufsPool = sync.Pool{New: func() any { return new(emitterBufs) }}

// shuffleEmitter buffers one map task's output per partition, sorting and
// spilling to disk (with optional combiner) when the buffer exceeds the
// threshold and at task end. All per-record state — slabs, index arrays,
// the key scratch, the value encoder's schema cache — is reused across
// records and spills (and pooled across tasks; see release); values handed
// to emit are fully serialized before emit returns, so callers may reuse
// the backing record.
type shuffleEmitter struct {
	taskID    int
	attempt   int // task attempt; spill names embed it so retried and speculative attempts never collide
	workDir   string
	parts     []partBuf
	comb      partBuf // combiner output buffer, reused across groups
	keyBuf    []byte  // sort-key scratch (partitioning needs the key before placement)
	enc       valueEncoder
	dec       valueDecoder
	bytes     int
	threshold int
	combiner  ReducerFactory
	combInst  Reducer // the task's one combiner instance, built at the first spill
	counters  counterAdder
	conf      map[string]serde.Datum
	part      Partitioner
	files     []*spillFile // one per spill
	segBuf    []byte       // reused spill-file image buffer (one write per spill)
	bufs      *emitterBufs // pool ticket; nil after release

	// Counter deltas batch locally and flush at each spill: Counters.Add
	// takes a mutex, far too expensive twice per emitted record.
	pendRecords int64
	pendBytes   int64
}

// counterAdder is the counter sink the shuffle writes through: the shared
// job Counters directly, or a per-attempt delta recorder whose additions
// roll back if the attempt loses or fails.
type counterAdder interface {
	Add(name string, delta int64)
}

func newShuffleEmitter(taskID, attempt, numParts int, workDir string, threshold int, combiner ReducerFactory, counters counterAdder, conf map[string]serde.Datum, part Partitioner) *shuffleEmitter {
	bufs := emitterBufsPool.Get().(*emitterBufs)
	if cap(bufs.parts) < numParts {
		bufs.parts = make([]partBuf, numParts)
	}
	bufs.parts = bufs.parts[:numParts]
	for i := range bufs.parts {
		bufs.parts[i].reset()
	}
	bufs.comb.reset()
	return &shuffleEmitter{
		taskID:    taskID,
		attempt:   attempt,
		workDir:   workDir,
		parts:     bufs.parts,
		comb:      bufs.comb,
		keyBuf:    bufs.keyBuf,
		segBuf:    bufs.segBuf,
		bufs:      bufs,
		threshold: threshold,
		combiner:  combiner,
		counters:  counters,
		conf:      conf,
		part:      part,
	}
}

// discard deletes the attempt's spill files and returns the emitter's
// buffers to the pool: the cleanup for an attempt that failed or lost the
// commit race, whose spills must never reach the reduce phase.
func (se *shuffleEmitter) discard() {
	for _, sf := range se.files {
		sf.release()
	}
	se.files = nil
	se.release()
}

// release returns the emitter's backing buffers to the pool. Called once,
// after the task's final spill; the emitter must not be used afterwards.
func (se *shuffleEmitter) release() {
	if se.bufs == nil {
		return
	}
	se.bufs.parts = se.parts
	se.bufs.comb = se.comb
	se.bufs.keyBuf = se.keyBuf
	se.bufs.segBuf = se.segBuf
	emitterBufsPool.Put(se.bufs)
	se.bufs = nil
}

func (se *shuffleEmitter) emit(key serde.Datum, value interp.EmitValue) error {
	se.keyBuf = key.AppendSortKey(se.keyBuf[:0])
	p := se.part.Partition(se.keyBuf, len(se.parts))
	n := se.parts[p].append(se.keyBuf, value, &se.enc)
	se.bytes += n
	se.pendRecords++
	se.pendBytes += int64(n)
	if se.bytes >= se.threshold {
		return se.spill()
	}
	return nil
}

// spill sorts every non-empty partition buffer and publishes one spill
// image holding all partitions' sorted runs.
func (se *shuffleEmitter) spill() error {
	if se.pendRecords > 0 {
		se.counters.Add(CtrMapOutputRecords, se.pendRecords)
		se.counters.Add(CtrMapOutputBytes, se.pendBytes)
		se.pendRecords, se.pendBytes = 0, 0
	}
	// Serialize all partitions into one file image in the reused scratch:
	// each pair is a klen/vlen header plus its contiguous slab bytes.
	buf := se.segBuf[:0]
	spans := make([]span, len(se.parts))
	var hdr [2 * binary.MaxVarintLen64]byte
	for p := range se.parts {
		pb := &se.parts[p]
		if len(pb.idx) == 0 {
			continue
		}
		pb.sort()
		out := pb
		if se.combiner != nil {
			var err error
			out, err = se.combine(pb)
			if err != nil {
				se.segBuf = buf
				return err
			}
		}
		off := len(buf)
		for _, e := range out.idx {
			n := binary.PutUvarint(hdr[:], uint64(e.klen))
			n += binary.PutUvarint(hdr[n:], uint64(e.vlen))
			buf = append(buf, hdr[:n]...)
			buf = append(buf, out.slab[e.off:e.off+int64(e.klen)+int64(e.vlen)]...)
		}
		spans[p] = span{off: int64(off), n: int64(len(buf) - off)}
		pb.reset()
	}
	se.segBuf = buf
	se.bytes = 0
	if len(buf) == 0 {
		return nil
	}
	path := filepath.Join(se.workDir, fmt.Sprintf("map%06d_a%02d_s%03d.spill", se.taskID, se.attempt, len(se.files)))
	sf, err := newSpill(path, buf, spans)
	if err != nil {
		return err
	}
	if sf.f != nil && len(se.files) >= spillKeepOpenPerTask {
		sf.f.Close()
		sf.f = nil
	}
	se.files = append(se.files, sf)
	se.counters.Add(CtrSpills, 1)
	return nil
}

// combine runs the combiner over each key group of a sorted partition
// buffer, collecting its output into the reused combiner buffer and
// re-sorting it (Hadoop-style map-side pre-aggregation). The combiner is
// built once per emitter, at the task's first spill, and serves every
// partition of every spill: compiling the program per partition per spill
// cost more than combining did. Like a task's Mapper and Reducer it
// therefore carries its member-variable state across all the groups the
// task combines.
func (se *shuffleEmitter) combine(pb *partBuf) (*partBuf, error) {
	if se.combInst == nil {
		c, err := se.combiner()
		if err != nil {
			return nil, err
		}
		se.combInst = c
	}
	c := se.combInst
	out := &se.comb
	out.reset()
	emit := func(key serde.Datum, value interp.EmitValue) error {
		se.keyBuf = key.AppendSortKey(se.keyBuf[:0])
		out.append(se.keyBuf, value, &se.enc)
		return nil
	}
	ctx := &interp.Context{
		Conf: se.conf,
		Emit: emit,
		Counter: func(name string, delta int64) {
			se.counters.Add("user."+name, delta)
		},
	}
	for lo := 0; lo < len(pb.idx); {
		hi := lo + 1
		for hi < len(pb.idx) && bytes.Equal(pb.key(pb.idx[hi]), pb.key(pb.idx[lo])) {
			hi++
		}
		key, _, err := serde.DecodeSortKey(pb.key(pb.idx[lo]))
		if err != nil {
			return nil, err
		}
		it := &slabValueIter{pb: pb, idx: pb.idx[lo:hi], dec: &se.dec, pos: -1}
		if err := c.Reduce(key, it, ctx); err != nil {
			return nil, err
		}
		if it.err != nil {
			return nil, it.err
		}
		lo = hi
	}
	out.sort()
	return out, nil
}

// slabValueIter iterates the values of one in-memory key group.
type slabValueIter struct {
	pb  *partBuf
	idx []slabEntry
	dec *valueDecoder
	pos int
	cur interp.EmitValue
	err error
}

func (it *slabValueIter) Next() bool {
	if it.err != nil || it.pos+1 >= len(it.idx) {
		return false
	}
	it.pos++
	if _, err := it.dec.decodeInto(it.pb.value(it.idx[it.pos]), &it.cur); err != nil {
		it.err = err
		return false
	}
	return true
}

func (it *slabValueIter) Value() interp.EmitValue { return it.cur }

// newSpill publishes a serialized spill image: a copy of an image of at
// most memSpillMax bytes stays in memory (image is the emitter's reused
// scratch); a larger one is written into a temp file renamed onto path once
// complete, whose open handle the reduce phase reads through (it survives
// the rename, so no reopen is needed). The first disk spill of a job
// creates its WorkDir. No fsync: spills are transient intermediate state
// whose loss just fails the attempt, and syncing every spill would tax the
// shuffle benchmarks for no durability the job needs. A failed write
// leaves no file behind.
func newSpill(path string, image []byte, spans []span) (*spillFile, error) {
	if err := faultinject.Fail(faultinject.PointSpill, filepath.Base(path)); err != nil {
		return nil, err
	}
	sf := &spillFile{path: path, parts: spans}
	for _, sp := range spans {
		if sp.n > 0 {
			sf.refs.Add(1)
		}
	}
	if len(image) <= memSpillMax {
		mem := append([]byte(nil), image...)
		sf.mem.Store(&mem)
		return sf, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("mapreduce: create spill directory: %w", err)
	}
	w, err := durable.Create(path)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: create spill file: %w", err)
	}
	if _, err := w.Write(image); err != nil {
		w.Abort()
		return nil, err
	}
	if sf.f, err = w.Rename(); err != nil {
		return nil, fmt.Errorf("mapreduce: commit spill file: %w", err)
	}
	return sf, nil
}

// segReaders pools the merge-side read buffers: a k-way merge opens one
// buffered reader per segment, and allocating (and zeroing) a fresh 256 KiB
// buffer per segment per reduce task dwarfs the cost of the merge itself.
var segReaders = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 256<<10) },
}

// segCursor streams one partition's sorted run out of one spill during the
// merge: straight out of an in-memory image, or through a buffered,
// positioned section reader on a spill file's shared handle (reduce tasks
// never reopen spill files they can share). Keys and values are read into
// cursor-owned buffers, double-buffered: the k/v slices exposed before an
// advance stay intact through the advance (and the heap re-sift it
// triggers), so no caller can observe a half-overwritten pair.
type segCursor struct {
	r interface {
		io.Reader
		io.ByteReader
	}
	pooled *bufio.Reader // r when it came from segReaders, returned at close
	owned  *os.File      // non-nil when the cursor had to reopen a budget-closed spill
	k      []byte
	v      []byte
	bufs   [2][]byte // alternating backing buffers for one k+v pair
	flip   int
	err    error
	eof    bool
}

func newSegCursor(sf *spillFile, sp span) (*segCursor, error) {
	if err := faultinject.Fail(faultinject.PointSpill, filepath.Base(sf.path)); err != nil {
		return nil, err
	}
	c := &segCursor{}
	if mem := sf.mem.Load(); mem != nil {
		c.r = bytes.NewReader((*mem)[sp.off : sp.off+sp.n])
		return c, nil
	}
	ra := io.ReaderAt(sf.f)
	if sf.f == nil {
		// The map task closed this handle under its fd budget; reopen it
		// for the duration of this cursor.
		f, err := os.Open(sf.path)
		if err != nil {
			return nil, err
		}
		c.owned, ra = f, f
	}
	c.pooled = segReaders.Get().(*bufio.Reader)
	c.pooled.Reset(io.NewSectionReader(ra, sp.off, sp.n))
	c.r = c.pooled
	return c, nil
}

func (c *segCursor) advance() bool {
	kl, err := binary.ReadUvarint(c.r)
	if err == io.EOF {
		c.eof = true
		return false
	}
	if err != nil {
		c.err = err
		return false
	}
	vl, err := binary.ReadUvarint(c.r)
	if err != nil {
		c.err = err
		return false
	}
	n := int(kl) + int(vl)
	buf := c.bufs[c.flip]
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	c.bufs[c.flip] = buf
	c.flip ^= 1
	if _, err := io.ReadFull(c.r, buf); err != nil {
		c.err = err
		return false
	}
	c.k = buf[:kl:kl]
	c.v = buf[kl:]
	return true
}

func (c *segCursor) close() {
	c.r = nil
	if c.pooled != nil {
		c.pooled.Reset(nil)
		segReaders.Put(c.pooled)
		c.pooled = nil
	}
	if c.owned != nil {
		c.owned.Close()
		c.owned = nil
	}
}

// cursorHeap is a min-heap of segment cursors ordered by current key.
type cursorHeap []*segCursor

func (h cursorHeap) Len() int           { return len(h) }
func (h cursorHeap) Less(i, j int) bool { return bytes.Compare(h[i].k, h[j].k) < 0 }
func (h cursorHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x any)        { *h = append(*h, x.(*segCursor)) }
func (h *cursorHeap) Pop() any {
	old := *h
	n := len(old)
	c := old[n-1]
	*h = old[:n-1]
	return c
}

// mergeIter performs the k-way merge of one partition's segments and
// exposes key groups to the reducer. The group-key buffer is reused across
// groups; decoded values are freshly allocated (reducers may buffer them).
type mergeIter struct {
	h       cursorHeap
	cursors []*segCursor
	dec     valueDecoder
	err     error

	groupKey   []byte
	curVal     interp.EmitValue
	groupEnded bool
}

// newMergeIter opens one cursor per spill that holds data for
// partition p.
func newMergeIter(files []*spillFile, p int) (*mergeIter, error) {
	m := &mergeIter{}
	for _, sf := range files {
		sp := sf.parts[p]
		if sp.n == 0 {
			continue
		}
		c, err := newSegCursor(sf, sp)
		if err != nil {
			m.closeAll()
			return nil, err
		}
		m.cursors = append(m.cursors, c)
		if c.advance() {
			m.h = append(m.h, c)
		} else if c.err != nil {
			m.closeAll()
			return nil, c.err
		}
	}
	heap.Init(&m.h)
	return m, nil
}

func (m *mergeIter) closeAll() {
	for _, c := range m.cursors {
		c.close()
	}
}

// nextGroup positions at the next key group; returns false at stream end.
func (m *mergeIter) nextGroup() bool {
	if m.err != nil || m.h.Len() == 0 {
		return false
	}
	m.groupKey = append(m.groupKey[:0], m.h[0].k...)
	m.groupEnded = false
	return true
}

// nextValue advances within the current group.
func (m *mergeIter) nextValue() bool {
	if m.err != nil || m.groupEnded {
		return false
	}
	if m.h.Len() == 0 || !bytes.Equal(m.h[0].k, m.groupKey) {
		m.groupEnded = true
		return false
	}
	c := m.h[0]
	if _, err := m.dec.decodeInto(c.v, &m.curVal); err != nil {
		m.err = err
		return false
	}
	if c.advance() {
		heap.Fix(&m.h, 0)
	} else {
		if c.err != nil {
			m.err = c.err
			return false
		}
		heap.Pop(&m.h)
	}
	return true
}

// drainGroup consumes any values the reducer did not read, so the merge is
// positioned at the next group.
func (m *mergeIter) drainGroup() {
	for m.nextValue() {
	}
}

// groupValueIter adapts one merge group to interp.ValueIter.
type groupValueIter struct {
	m *mergeIter
	n int64
}

func (g *groupValueIter) Next() bool {
	if g.m.nextValue() {
		g.n++
		return true
	}
	return false
}

func (g *groupValueIter) Value() interp.EmitValue { return g.m.curVal }
