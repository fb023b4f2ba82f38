package mapreduce

import (
	"bufio"
	"bytes"
	"cmp"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

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
// task settles into zero allocations per emitted record. In a task with a
// Combine the slab holds the partition's combTable keys and value chains
// instead, and the index stays empty.
type partBuf struct {
	slab []byte
	idx  []slabEntry
}

func (pb *partBuf) key(e slabEntry) []byte {
	return pb.slab[e.off : e.off+int64(e.klen)]
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

// appendLink appends one chain link holding v — an unset next-link offset,
// then v's encoding — and returns the link's offset and v's encoded length.
func (pb *partBuf) appendLink(v interp.EmitValue, enc *valueEncoder) (int64, int) {
	at := len(pb.slab)
	pb.slab = enc.appendValue(binary.LittleEndian.AppendUint64(pb.slab, 0), v)
	return int64(at), len(pb.slab) - at - linkBytes
}

func (pb *partBuf) reset() {
	pb.slab = pb.slab[:0]
	pb.idx = pb.idx[:0]
}

// sort orders the index entries by key bytes, equal keys by slab offset —
// emission order — so a key's values leave the spill in the order they
// were emitted. Each run of equal keys is put in offset order after the
// key sort: comparing offsets inside it would cost pdqsort its shortcut
// for equal keys. The comparison indexes straight into the slab — no
// closure over per-entry slice headers, no reflection-based swapping as
// with sort.Slice over a struct of slices.
func (pb *partBuf) sort() {
	slab := pb.slab
	slices.SortFunc(pb.idx, func(a, b slabEntry) int {
		return bytes.Compare(slab[a.off:a.off+int64(a.klen)], slab[b.off:b.off+int64(b.klen)])
	})
	for i := 0; i < len(pb.idx); {
		j := i + 1
		for j < len(pb.idx) && bytes.Equal(pb.key(pb.idx[i]), pb.key(pb.idx[j])) {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(pb.idx[i:j], func(a, b slabEntry) int { return cmp.Compare(a.off, b.off) })
		}
		i = j
	}
}

// SumCombiner marks a combiner that is exactly an int64 sum of a group's
// values re-emitted under the group's own key — the Combine the analyzer
// reports as CombineDescriptor{Op: "sum"}. A map task whose combiner is one
// folds (see Folding on shuffleEmitter). Reduce must still be that Combine,
// for the keys a task combines after it unfolds.
type SumCombiner interface {
	Reducer
	FoldsInt64Sum()
}

// combTable is one partition's buffer in a map task with a Combine: an
// open-addressing table over the partition's distinct keys, whose slots
// hold entry ids. Each key's sort-key bytes live once in the partition's
// slab; its entry carries either the key's running int64 sum, while the
// task folds, or the tail of the key's value chain.
//
// A chain is the key's values in emission order, as links in the slab:
// an 8-byte little-endian offset of the next link, then one encoded value.
// The first link directly follows the key's bytes; the last link's next
// offset is never read.
type combTable struct {
	slots []int32 // entry id + 1, 0 = empty; a power of two, at most half full
	shift uint8   // 32 - log2(len(slots)): a hash's slot is its top bits after fibMul
	ents  []combEntry
}

// combEntry is one distinct key of a combining partition.
type combEntry struct {
	off  int64 // the key's sort-key bytes are slab[off : off+klen]
	klen uint32
	hash uint32 // fnv1a of the key, kept for regrowth
	val  int64  // folding: the running sum; chained: the offset of the chain's last link
}

// linkBytes is the next-link offset heading each chain link.
const linkBytes = 8

// foldEntryBytes is what one distinct key costs a folding task beyond its
// key bytes: its entry and its two table slots. The spill budget counts it.
const foldEntryBytes = int(unsafe.Sizeof(combEntry{})) + 8

// fibMul spreads a key's FNV hash over the table's slots. The partition
// already took the hash modulo the reducer count, so its low bits are
// partly fixed within a partition; the top bits of the product are not.
const fibMul = 0x9E3779B1

const combMinSlots = 64

// reset empties the table, keeping its slots' capacity.
func (t *combTable) reset() {
	if len(t.slots) == 0 {
		t.ents = t.ents[:0]
		t.resize(combMinSlots)
	} else if len(t.ents) > 0 {
		t.ents = t.ents[:0]
		clear(t.slots)
	}
}

// resize rebuilds the table with size slots from the entries' kept hashes.
func (t *combTable) resize(size int) {
	t.slots = make([]int32, size)
	t.shift = uint8(33 - bits.Len(uint(size)))
	mask := uint32(size - 1)
	for id, e := range t.ents {
		s := (e.hash * fibMul) >> t.shift
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = int32(id) + 1
	}
}

// find returns the id of key kb, whose hash is h, or -1 and the empty slot
// an insert of kb takes.
func (t *combTable) find(slab, kb []byte, h uint32) (int32, uint32) {
	mask := uint32(len(t.slots) - 1)
	for s := (h * fibMul) >> t.shift; ; s = (s + 1) & mask {
		id := t.slots[s] - 1
		if id < 0 {
			return -1, s
		}
		if e := t.ents[id]; e.hash == h && string(slab[e.off:e.off+int64(e.klen)]) == string(kb) {
			return id, s
		}
	}
}

// insert adds e in slot s, as find returned it, and returns e's id.
func (t *combTable) insert(s uint32, e combEntry) int32 {
	id := int32(len(t.ents))
	t.slots[s] = id + 1
	t.ents = append(t.ents, e)
	if 2*len(t.ents) > len(t.slots) {
		t.resize(2 * len(t.slots))
	}
	return id
}

// sort orders the entries by key: only the distinct keys are sorted.
func (t *combTable) sort(slab []byte) {
	slices.SortFunc(t.ents, func(a, b combEntry) int {
		return bytes.Compare(slab[a.off:a.off+int64(a.klen)], slab[b.off:b.off+int64(b.klen)])
	})
}

// appendSums appends a sorted folding table's spill run: one (key,
// Int(sum)) pair per key, framed as a spill frames the pairs a sum Combine
// emits, so the bytes are identical.
func (t *combTable) appendSums(buf, slab []byte) []byte {
	for _, e := range t.ents {
		buf = binary.AppendUvarint(buf, uint64(e.klen))
		buf = binary.AppendUvarint(buf, uint64(intValueLen(e.val)))
		buf = append(buf, slab[e.off:e.off+int64(e.klen)]...)
		buf = serde.Int(e.val).AppendTagged(append(buf, valTagDatum))
	}
	return buf
}

// intValueLen is the length of valueEncoder's encoding of Int(v) — the
// value tag, the datum kind and v's zigzag varint — computed without
// encoding it.
func intValueLen(v int64) int {
	ux := uint64(v)<<1 ^ uint64(v>>63)
	return 2 + (bits.Len64(ux|1)+6)/7
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
// slabs, combining tables, the combiner buffer, scratches — pooled across
// map tasks so every task after the first starts with warmed, right-sized
// buffers instead of growing fresh ones.
type emitterBufs struct {
	parts  []partBuf
	tables []combTable
	comb   partBuf
	keyBuf []byte
	segBuf []byte
	codes  codeSums
}

var emitterBufsPool = sync.Pool{New: func() any { return new(emitterBufs) }}

// shuffleEmitter buffers one map task's output per partition and spills
// every partition's sorted run when the buffer exceeds the threshold and
// at task end. All per-record state — slabs, tables, the key scratch, the
// value encoder's schema cache — is reused across records and spills (and
// pooled across tasks; see release); values handed to emit are fully
// serialized before emit returns, so callers may reuse the backing record.
//
// A pair takes one of two paths. With no Combine it is appended to its
// partition's slab and index, and spill sorts the index (partBuf.sort).
// With a Combine it goes into its partition's combTable: the key's one
// FNV-1a hash (fnv1a) picks its table slot and, under HashPartitioner,
// whose hash it is, its partition. A key's bytes are stored once, at its
// first emit, and each value is linked onto the key's chain in emission
// order. Spill sorts only the distinct keys and runs the Combine over each
// key's chain, in key order, into the combiner buffer, which it re-sorts
// only if the Combine re-keyed out of order. Either path charges a pair's
// key and value bytes against the spill budget, so a Combine sees the same
// groups at the same spills as it would over sorted pairs.
//
// # Folding
//
// A task whose combiner is a SumCombiner folds instead (foldInt): an
// emitted int is added to its key's running sum in the table entry with
// wrapping +, exactly the interpreter's. There is no value chain and no
// Combine call:
// spill writes each (key, Int(sum)), byte for byte the run the Combine
// writes over the same chain. map.output.records and map.output.bytes
// still count every emitted pair, at the length its encoding would have.
// The spill budget counts what the fold holds — each distinct key's bytes
// plus foldEntryBytes — not the pairs, so a folding task spills later and
// less often than one that chains: one whose distinct keys fit the budget
// spills once, at its end.
//
// The first record or non-int value unfolds the task for good: each key's
// sum becomes the first link of its chain, and the task continues chaining,
// where the Combine sees partial sums plus the later values — and fails on
// a non-int exactly as it would have without the fold.
//
// A folding task whose input has an Aggregate Map emits nothing through
// emit: the aggregate kernel (aggregate.go) walks each batch's key and
// value vectors and folds every selected row through the same foldInt, so
// its spills, spill points and counters are emit's by construction. A key
// that is a dictionary code instead adds into codeSums, a dense array
// indexed by code, when the dictionary fits the spill budget
// (DenseCodes): a code's first pair in a spill charges what foldInt
// charges for a new key, and spill moves each code's sum into the tables
// (flushCodes), computing its sort key, hash and partition once. Such a
// task never unfolds: its values are all ints.
type shuffleEmitter struct {
	taskID    int
	attempt   int // task attempt; spill names embed it so retried and speculative attempts never collide
	workDir   string
	parts     []partBuf
	tables    []combTable // per partition, in the pooled bufs; nil without a Combine
	folding   bool
	hashPart  bool    // part is HashPartitioner: a Combine task takes the partition from its own hash
	comb      partBuf // combiner output buffer, reused across keys
	keyBuf    []byte  // sort-key scratch (partitioning needs the key before placement)
	enc       valueEncoder
	dec       valueDecoder
	bytes     int
	threshold int
	combiner  ReducerFactory
	combInst  Reducer // the task's one combiner instance, built by emitter
	counters  counterAdder
	conf      map[string]serde.Datum
	part      Partitioner
	files     []*spillFile // one per spill
	segBuf    []byte       // reused spill-file image buffer (one write per spill)
	codes     codeSums     // the aggregate kernel's dense sums of dictionary codes
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
	var tables []combTable
	if combiner != nil {
		if cap(bufs.tables) < numParts {
			bufs.tables = make([]combTable, numParts)
		}
		tables = bufs.tables[:numParts]
		for i := range tables {
			tables[i].reset()
		}
	}
	bufs.comb.reset()
	bufs.codes.reset()
	_, hashPart := part.(HashPartitioner)
	return &shuffleEmitter{
		taskID:    taskID,
		attempt:   attempt,
		workDir:   workDir,
		parts:     bufs.parts,
		tables:    tables,
		hashPart:  hashPart,
		comb:      bufs.comb,
		keyBuf:    bufs.keyBuf,
		segBuf:    bufs.segBuf,
		codes:     bufs.codes,
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
	se.bufs.codes = se.codes
	emitterBufsPool.Put(se.bufs)
	se.bufs = nil
}

// emitter returns the function the task emits through, once per task. A
// task with a combiner builds its one combiner instance here, and a
// SumCombiner makes the task fold.
func (se *shuffleEmitter) emitter() (func(serde.Datum, interp.EmitValue) error, error) {
	if se.combiner != nil {
		c, err := se.combiner()
		if err != nil {
			return nil, err
		}
		se.combInst = c
		_, se.folding = c.(SumCombiner)
	}
	return se.emit, nil
}

// emit buffers one pair on the task's path: sorted pairs, or with a
// Combine its key's combTable entry (see shuffleEmitter).
func (se *shuffleEmitter) emit(key serde.Datum, value interp.EmitValue) error {
	se.keyBuf = key.AppendSortKey(se.keyBuf[:0])
	kb := se.keyBuf
	if se.tables == nil {
		n := se.parts[se.part.Partition(kb, len(se.parts))].append(kb, value, &se.enc)
		return se.charge(n, n)
	}
	if se.folding && (value.Rec != nil || value.D.Kind != serde.KindInt64) {
		se.unfold()
	}
	if se.folding {
		return se.foldInt(kb, value.D.Int())
	}
	p, h, id, s := se.place(kb)
	pb, t := &se.parts[p], &se.tables[p]
	seen := id >= 0
	if !seen {
		pb.slab = append(pb.slab, kb...)
		id = t.insert(s, combEntry{off: int64(len(pb.slab) - len(kb)), klen: uint32(len(kb)), hash: h})
	}
	e := &t.ents[id]
	at, vlen := pb.appendLink(value, &se.enc)
	if seen {
		binary.LittleEndian.PutUint64(pb.slab[e.val:], uint64(at))
	}
	e.val = at
	return se.charge(len(kb)+vlen, len(kb)+vlen)
}

// place finds key kb in a combining task's tables: kb's partition, its
// FNV-1a hash (fnv1a) — which, under HashPartitioner, picks the partition —
// and its entry id in the partition's table, or -1 and the empty slot an
// insert of kb takes.
func (se *shuffleEmitter) place(kb []byte) (p int, h uint32, id int32, s uint32) {
	h = fnv1a(kb)
	if se.hashPart {
		p = int(h % uint32(len(se.parts)))
	} else {
		p = se.part.Partition(kb, len(se.parts))
	}
	id, s = se.tables[p].find(se.parts[p].slab, kb, h)
	return p, h, id, s
}

// foldInt is a folding task's one fold: it adds v to key kb's running sum,
// wrapping like the interpreter's int64 +, and counts the pair it stands
// for. A key's first pair stores its bytes and charges them, plus
// foldEntryBytes, against the spill budget; later pairs charge nothing.
// emit's folding branch and the aggregate kernel both fold through it.
func (se *shuffleEmitter) foldInt(kb []byte, v int64) error {
	if !se.addSum(kb, v) {
		se.pendRecords++
		se.pendBytes += int64(len(kb) + intValueLen(v))
		return nil
	}
	return se.charge(len(kb)+foldEntryBytes, len(kb)+intValueLen(v))
}

// addSum adds v to key kb's running sum, storing kb's bytes and a new
// entry if the tables do not hold kb yet, which it reports.
func (se *shuffleEmitter) addSum(kb []byte, v int64) (inserted bool) {
	p, h, id, s := se.place(kb)
	t := &se.tables[p]
	if id >= 0 {
		t.ents[id].val += v
		return false
	}
	pb := &se.parts[p]
	t.insert(s, combEntry{off: int64(len(pb.slab)), klen: uint32(len(kb)), hash: h, val: v})
	pb.slab = append(pb.slab, kb...)
	return true
}

// charge counts one emitted pair of n encoded bytes and adds held bytes to
// the spill budget, spilling once the budget is spent.
func (se *shuffleEmitter) charge(held, n int) error {
	se.pendRecords++
	se.pendBytes += int64(n)
	se.bytes += held
	if se.bytes >= se.threshold {
		return se.spill()
	}
	return nil
}

// unfold ends the task's fold: each key's running sum becomes the first
// link of its chain, and from here on the task chains values.
func (se *shuffleEmitter) unfold() {
	se.folding = false
	se.bytes = 0
	for p := range se.tables {
		pb, t := &se.parts[p], &se.tables[p]
		keys := pb.slab
		pb.slab = se.comb.slab[:0]
		for i := range t.ents {
			e := &t.ents[i]
			pb.slab = append(pb.slab, keys[e.off:e.off+int64(e.klen)]...)
			at, vlen := pb.appendLink(interp.EmitValue{D: serde.Int(e.val)}, &se.enc)
			e.off, e.val = at-int64(e.klen), at
			se.bytes += int(e.klen) + vlen
		}
		se.comb.slab = keys[:0]
	}
}

// spill writes every non-empty partition's run — its sorted pairs, its
// folded sums, or what the Combine makes of its chains — into one spill
// image and publishes it.
func (se *shuffleEmitter) spill() error {
	se.flushCodes()
	if se.pendRecords > 0 {
		se.counters.Add(CtrMapOutputRecords, se.pendRecords)
		se.counters.Add(CtrMapOutputBytes, se.pendBytes)
		se.pendRecords, se.pendBytes = 0, 0
	}
	// Serialize all partitions into one file image in the reused scratch:
	// each pair is a klen/vlen header plus its contiguous bytes.
	buf := se.segBuf[:0]
	spans := make([]span, len(se.parts))
	for p := range se.parts {
		pb := &se.parts[p]
		off := len(buf)
		if se.tables == nil {
			pb.sort()
			buf = pb.appendRun(buf)
		} else if t := &se.tables[p]; len(t.ents) > 0 {
			t.sort(pb.slab)
			if se.folding {
				buf = t.appendSums(buf, pb.slab)
			} else {
				out, err := se.combine(pb.slab, t)
				if err != nil {
					se.segBuf = buf
					return err
				}
				buf = out.appendRun(buf)
			}
			t.reset()
		}
		if len(buf) > off {
			spans[p] = span{off: int64(off), n: int64(len(buf) - off)}
		}
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

// appendRun appends the buffer's pairs, in index order, as a spill run:
// each a klen/vlen header plus its contiguous slab bytes.
func (pb *partBuf) appendRun(buf []byte) []byte {
	var hdr [2 * binary.MaxVarintLen64]byte
	for _, e := range pb.idx {
		n := binary.PutUvarint(hdr[:], uint64(e.klen))
		n += binary.PutUvarint(hdr[n:], uint64(e.vlen))
		buf = append(buf, hdr[:n]...)
		buf = append(buf, pb.slab[e.off:e.off+int64(e.klen)+int64(e.vlen)]...)
	}
	return buf
}

// combine runs the combiner over each key of a sorted combTable, in key
// order, with the key's chain as its values, collecting its output into
// the reused combiner buffer (Hadoop-style map-side pre-aggregation). The
// output is re-sorted only if the combiner did not keep it in key order,
// as one that re-keys may not. The combiner is built once per emitter,
// when the task starts (see emitter), and serves every partition of every
// spill: compiling the program per partition per spill cost more than
// combining did. Like a task's Mapper and Reducer it therefore carries its
// member-variable state across all the keys the task combines.
func (se *shuffleEmitter) combine(slab []byte, t *combTable) (*partBuf, error) {
	c := se.combInst
	out := &se.comb
	out.reset()
	sorted := true
	emit := func(key serde.Datum, value interp.EmitValue) error {
		se.keyBuf = key.AppendSortKey(se.keyBuf[:0])
		if n := len(out.idx); sorted && n > 0 && bytes.Compare(out.key(out.idx[n-1]), se.keyBuf) > 0 {
			sorted = false
		}
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
	it := &chainIter{slab: slab, dec: &se.dec}
	for _, e := range t.ents {
		key, _, err := serde.DecodeSortKey(slab[e.off : e.off+int64(e.klen)])
		if err != nil {
			return nil, err
		}
		it.at, it.tail = e.off+int64(e.klen), e.val
		if err := c.Reduce(key, it, ctx); err != nil {
			return nil, err
		}
		if it.err != nil {
			return nil, it.err
		}
	}
	if !sorted {
		out.sort()
	}
	return out, nil
}

// chainIter iterates one key's chain of values, in emission order.
type chainIter struct {
	slab     []byte
	at, tail int64 // the next link, -1 once the tail was read; the last link
	dec      *valueDecoder
	cur      interp.EmitValue
	err      error
}

func (it *chainIter) Next() bool {
	if it.err != nil || it.at < 0 {
		return false
	}
	link := it.slab[it.at:]
	if it.at == it.tail {
		it.at = -1
	} else {
		it.at = int64(binary.LittleEndian.Uint64(link))
	}
	if _, err := it.dec.decodeInto(link[linkBytes:], &it.cur); err != nil {
		it.err = err
		return false
	}
	return true
}

func (it *chainIter) Value() interp.EmitValue { return it.cur }

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
	rank   int           // the spill's place in (map task, spill) order
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

// cursorHeap is a min-heap of segment cursors ordered by current key, and
// equal keys by spill rank: a key's values merge in (map task, spill,
// emission) order, the same on every run.
type cursorHeap []*segCursor

func (h cursorHeap) Len() int { return len(h) }
func (h cursorHeap) Less(i, j int) bool {
	c := bytes.Compare(h[i].k, h[j].k)
	return c < 0 || c == 0 && h[i].rank < h[j].rank
}
func (h cursorHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x any)   { *h = append(*h, x.(*segCursor)) }
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
// partition p; files are in (map task, spill) order.
func newMergeIter(files []*spillFile, p int) (*mergeIter, error) {
	m := &mergeIter{}
	for rank, sf := range files {
		sp := sf.parts[p]
		if sp.n == 0 {
			continue
		}
		c, err := newSegCursor(sf, sp)
		if err != nil {
			m.closeAll()
			return nil, err
		}
		c.rank = rank
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
