package mapreduce

import (
	"fmt"

	"manimal/internal/btree"
	"manimal/internal/serde"
	"manimal/internal/storage"
)

// ScanStats re-exports the scan-pruning counters (blocks read/skipped,
// rows residual-filtered) record-file inputs accumulate.
type ScanStats = storage.ScanStats

// Input is a source of (key, record) pairs divisible into splits that map
// tasks consume in parallel. The key plays Hadoop's "record offset" role
// for plain files and is the index key for B+Tree-indexed input.
type Input interface {
	Schema() *serde.Schema
	// Splits partitions the input into about target independent splits.
	Splits(target int) ([]Split, error)
	// BytesRead reports data bytes scanned so far (for counters).
	BytesRead() int64
	// ScanStats reports pruning effect so far; inputs without zone-map
	// pruning return zeros.
	ScanStats() ScanStats
	Close() error
}

// Split is one map task's share of an input.
type Split interface {
	Open() (RecordIter, error)
}

// BatchSplit is optionally implemented by splits that can serve decoded
// column-vector batches instead of one record at a time; the engine hands
// them whole to mappers that implement BatchMapper. The two modes are
// equivalent by contract: same records, same keys, same counters.
type BatchSplit interface {
	OpenBatch() (BatchIter, error)
}

// BatchIter iterates a split block-batch-wise. The batch (and everything
// borrowed from it: column slices, selection vector, string/bytes values)
// is reused across iterations — valid only until the next NextBatch — per
// the package's buffer-ownership contract.
type BatchIter interface {
	NextBatch() bool
	Batch() *serde.Batch
	Err() error
	Close() error
}

// RecordIter iterates a split's records. Implementations may reuse the
// record across iterations: Record() is valid only until the next call to
// Next(), and callers that retain it must Clone() it (see the package
// comment's buffer-ownership contract).
type RecordIter interface {
	Next() bool
	Key() serde.Datum
	Record() *serde.Record
	Err() error
	Close() error
}

// FileInput reads a Manimal record file (plain, projected, or compressed),
// optionally with a scan pushdown (zone-map block skipping, residual row
// filtering, field-pruned decoding) chosen by the optimizer.
type FileInput struct {
	r     *storage.Reader
	pd    *storage.Pushdown
	share *storage.ScanShare
}

// SetShare installs a scan-sharing registry consulted by batch scans: a
// split whose file and block range match another in-flight subscribed
// scan (typically the same split of an identical concurrent job) rides one
// shared physical scan instead of decoding privately (see
// storage.ScanShare). Nil — the default — keeps every scan private.
func (f *FileInput) SetShare(sh *storage.ScanShare) { f.share = sh }

// OpenFile opens a record file as an input. directCodes enables
// direct-operation mode on dictionary-compressed fields: codes are passed
// to map() without decompression.
func OpenFile(path string, directCodes bool) (*FileInput, error) {
	return OpenFileWith(path, directCodes, nil)
}

// OpenFileWith is OpenFile with a scan pushdown (nil scans everything).
func OpenFileWith(path string, directCodes bool, pd *storage.Pushdown) (*FileInput, error) {
	r, err := storage.Open(path)
	if err != nil {
		return nil, err
	}
	r.DirectCodes = directCodes
	return &FileInput{r: r, pd: pd}, nil
}

// Reader exposes the underlying storage reader (for size statistics).
func (f *FileInput) Reader() *storage.Reader { return f.r }

// Schema implements Input.
func (f *FileInput) Schema() *serde.Schema { return f.r.Schema() }

// BytesRead implements Input.
func (f *FileInput) BytesRead() int64 { return f.r.BytesRead() }

// ScanStats implements Input.
func (f *FileInput) ScanStats() ScanStats { return f.r.ScanStats() }

// Close implements Input.
func (f *FileInput) Close() error { return f.r.Close() }

// Splits implements Input, partitioning storage blocks evenly. With a
// pushdown filter, fully-pruned block ranges are dropped up front — they
// never become map-task work — and the remaining blocks are balanced
// across splits by SURVIVING block count.
func (f *FileInput) Splits(target int) ([]Split, error) {
	n := f.r.NumBlocks()
	if target < 1 {
		target = 1
	}
	var kept []int
	if f.pd != nil && f.pd.Filter != nil {
		skip, _ := f.r.SkippableBlocks(f.pd.Filter)
		for i := 0; i < n; i++ {
			if !skip[i] {
				kept = append(kept, i)
			}
		}
	} else {
		kept = make([]int, n)
		for i := range kept {
			kept[i] = i
		}
	}
	if target > len(kept) {
		target = len(kept)
	}
	var out []Split
	if len(kept) == 0 {
		// Every block is provably predicate-free: the job runs zero map
		// tasks over this input. Account the whole file as skipped.
		f.r.AddBlocksSkipped(int64(n))
		return out, nil
	}
	per := len(kept) / target
	extra := len(kept) % target
	pos := 0
	covered := 0
	for i := 0; i < target; i++ {
		cnt := per
		if i < extra {
			cnt++
		}
		chunk := kept[pos : pos+cnt]
		pos += cnt
		// The split spans first..last surviving block; interior pruned
		// blocks are skipped (and counted) by the scanner itself.
		lo, hi := chunk[0], chunk[len(chunk)-1]+1
		covered += hi - lo
		out = append(out, &fileSplit{r: f.r, lo: lo, hi: hi, pd: f.pd, share: f.share})
	}
	// Blocks outside every split never reach a scanner; count them here so
	// blocks read + skipped always totals the blocks planned over.
	f.r.AddBlocksSkipped(int64(n - covered))
	return out, nil
}

type fileSplit struct {
	r      *storage.Reader
	lo, hi int
	pd     *storage.Pushdown
	share  *storage.ScanShare
}

func (s *fileSplit) Open() (RecordIter, error) {
	sc, err := s.r.ScanPushdown(s.lo, s.hi, s.pd)
	if err != nil {
		return nil, err
	}
	return &fileIter{sc: sc}, nil
}

// OpenBatch implements BatchSplit: a batch scan over the split's block
// range. With a share registry installed the scan first tries to subscribe
// to (or found) a shared physical scan of the same range; subscription can
// be refused (e.g. an existing group too far ahead), in which case the
// split scans privately.
func (s *fileSplit) OpenBatch() (BatchIter, error) {
	if s.share != nil {
		if m, ok := s.share.Subscribe(s.r, s.lo, s.hi, s.pd); ok {
			return &sharedBatchIter{m: m}, nil
		}
	}
	sc, err := s.r.ScanBatch(s.lo, s.hi, s.pd)
	if err != nil {
		return nil, err
	}
	return &fileBatchIter{sc: sc}, nil
}

type sharedBatchIter struct {
	m *storage.SharedScanner
}

func (it *sharedBatchIter) NextBatch() bool     { return it.m.Next() }
func (it *sharedBatchIter) Batch() *serde.Batch { return it.m.Batch() }
func (it *sharedBatchIter) Err() error          { return it.m.Err() }
func (it *sharedBatchIter) Close() error        { return it.m.Close() }

type fileBatchIter struct {
	sc *storage.BatchScanner
}

func (it *fileBatchIter) NextBatch() bool     { return it.sc.Next() }
func (it *fileBatchIter) Batch() *serde.Batch { return it.sc.Batch() }
func (it *fileBatchIter) Err() error          { return it.sc.Err() }
func (it *fileBatchIter) Close() error        { return nil }

type fileIter struct {
	sc *storage.Scanner
}

func (it *fileIter) Next() bool { return it.sc.Next() }

// Key is the record's whole-file position, which the scanner preserves
// across block skips and residual drops: pruned and unpruned runs of a
// key-reading program observe identical keys.
func (it *fileIter) Key() serde.Datum      { return serde.Int(it.sc.RecordIndex()) }
func (it *fileIter) Record() *serde.Record { return it.sc.Record() }
func (it *fileIter) Err() error            { return it.sc.Err() }
func (it *fileIter) Close() error          { return nil }

// IndexedInput scans only the relevant key ranges of a B+Tree selection
// index (paper Section 2.1: "use the index to skip map invocations that do
// not yield output data"). The index may be a lone tree or a shard set.
type IndexedInput struct {
	t      btree.Index
	ranges []ByteRange
}

// ByteRange is one [Lo, Hi) key-byte scan range; nil bounds are unbounded.
type ByteRange struct {
	Lo, Hi []byte
}

// OpenIndexed opens a B+Tree index (single file or shard manifest)
// restricted to the given ranges.
func OpenIndexed(path string, ranges []ByteRange) (*IndexedInput, error) {
	t, err := btree.OpenIndex(path)
	if err != nil {
		return nil, err
	}
	return &IndexedInput{t: t, ranges: ranges}, nil
}

// Index exposes the underlying logical index (for statistics).
func (ix *IndexedInput) Index() btree.Index { return ix.t }

// Schema implements Input.
func (ix *IndexedInput) Schema() *serde.Schema { return ix.t.Schema() }

// BytesRead implements Input.
func (ix *IndexedInput) BytesRead() int64 { return ix.t.BytesRead() }

// ScanStats implements Input; B+Tree scans prune via key ranges, not zone
// maps, so the counters stay zero.
func (ix *IndexedInput) ScanStats() ScanStats { return ScanStats{} }

// Close implements Input.
func (ix *IndexedInput) Close() error { return ix.t.Close() }

// Splits implements Input: the plan's scan ranges fan out across about
// target map tasks. When there are fewer ranges than target, each range is
// sub-split at shard and leaf-page boundaries (Index.RangeCuts), so even a
// single-range selection parallelizes instead of running as one map task.
// Ranges produced by interval merging are disjoint, and cut keys partition
// a range exactly, so splits never overlap.
func (ix *IndexedInput) Splits(target int) ([]Split, error) {
	if target < 1 {
		target = 1
	}
	if len(ix.ranges) == 0 {
		return nil, nil
	}
	per := 1
	if len(ix.ranges) < target {
		per = (target + len(ix.ranges) - 1) / len(ix.ranges)
	}
	var out []Split
	for _, r := range ix.ranges {
		lo := r.Lo
		if per > 1 {
			cuts, err := ix.t.RangeCuts(r.Lo, r.Hi, per)
			if err != nil {
				return nil, err
			}
			for _, c := range cuts {
				out = append(out, &indexSplit{t: ix.t, r: ByteRange{Lo: lo, Hi: c}})
				lo = c
			}
		}
		out = append(out, &indexSplit{t: ix.t, r: ByteRange{Lo: lo, Hi: r.Hi}})
	}
	return out, nil
}

type indexSplit struct {
	t btree.Index
	r ByteRange
}

func (s *indexSplit) Open() (RecordIter, error) {
	it, err := s.t.Scan(s.r.Lo, s.r.Hi)
	if err != nil {
		return nil, err
	}
	return &indexIter{it: it}, nil
}

type indexIter struct {
	it  btree.Cursor
	key serde.Datum
	err error
}

func (ii *indexIter) Next() bool {
	if !ii.it.Next() {
		return false
	}
	d, err := ii.it.KeyDatum()
	if err != nil {
		ii.err = err
		return false
	}
	ii.key = d
	return true
}

func (ii *indexIter) Key() serde.Datum      { return ii.key }
func (ii *indexIter) Record() *serde.Record { return ii.it.Record() }
func (ii *indexIter) Err() error {
	if ii.err != nil {
		return ii.err
	}
	return ii.it.Err()
}
func (ii *indexIter) Close() error { return nil }

// MemInput serves records from memory; used by tests and tiny examples.
type MemInput struct {
	schema  *serde.Schema
	records []*serde.Record
}

// NewMemInput wraps records (all must share the schema).
func NewMemInput(schema *serde.Schema, records []*serde.Record) (*MemInput, error) {
	for i, r := range records {
		if !r.Schema().Equal(schema) {
			return nil, fmt.Errorf("mapreduce: mem record %d schema mismatch", i)
		}
	}
	return &MemInput{schema: schema, records: records}, nil
}

// Schema implements Input.
func (m *MemInput) Schema() *serde.Schema { return m.schema }

// BytesRead implements Input.
func (m *MemInput) BytesRead() int64 { return 0 }

// ScanStats implements Input.
func (m *MemInput) ScanStats() ScanStats { return ScanStats{} }

// Close implements Input.
func (m *MemInput) Close() error { return nil }

// Splits implements Input.
func (m *MemInput) Splits(target int) ([]Split, error) {
	if target < 1 {
		target = 1
	}
	if target > len(m.records) {
		target = len(m.records)
	}
	var out []Split
	if len(m.records) == 0 {
		return out, nil
	}
	per := (len(m.records) + target - 1) / target
	for lo := 0; lo < len(m.records); lo += per {
		hi := lo + per
		if hi > len(m.records) {
			hi = len(m.records)
		}
		out = append(out, &memSplit{recs: m.records[lo:hi], base: int64(lo)})
	}
	return out, nil
}

type memSplit struct {
	recs []*serde.Record
	base int64
}

func (s *memSplit) Open() (RecordIter, error) {
	return &memIter{recs: s.recs, pos: -1, base: s.base}, nil
}

type memIter struct {
	recs []*serde.Record
	pos  int
	base int64
}

func (it *memIter) Next() bool {
	if it.pos+1 >= len(it.recs) {
		return false
	}
	it.pos++
	return true
}

func (it *memIter) Key() serde.Datum      { return serde.Int(it.base + int64(it.pos)) }
func (it *memIter) Record() *serde.Record { return it.recs[it.pos] }
func (it *memIter) Err() error            { return nil }
func (it *memIter) Close() error          { return nil }
