package mapreduce

import (
	"fmt"

	"manimal/internal/btree"
	"manimal/internal/serde"
	"manimal/internal/storage"
)

// ScanStats is what one scan — a split's iterator, or planning — read,
// skipped and filtered. Inputs without zone-map pruning report only bytes,
// or nothing.
type ScanStats = storage.ScanStats

// Input is a source of (key, record) pairs divisible into splits that map
// tasks consume in parallel. A record file's key plays Hadoop's "record
// offset" role: the record's whole-file index. A B+Tree-indexed input's
// key is the entry's index key datum, carried by each batch's key column.
type Input interface {
	// Splits partitions the input into about target independent splits,
	// and reports what planning them read or pruned.
	Splits(target int) ([]Split, ScanStats, error)
	Close() error
}

// Split is one map task's share of an input, served as decoded
// column-vector batches.
type Split interface {
	OpenBatch() (BatchIter, error)
}

// BatchIter iterates a split batch-wise: a record-file block, a B+Tree
// leaf, or a MemInput split at a time. The batch (and everything borrowed
// from it: column slices, selection vector, key column, string/bytes
// values) is reused across iterations — valid only until the next Next —
// per the package's buffer-ownership contract.
type BatchIter interface {
	Next() bool
	Batch() *serde.Batch
	Err() error
	Close() error
	// Stats reports what the iteration has read so far; it is final once
	// the iterator is closed.
	Stats() ScanStats
}

// FileInput reads a Manimal record file (plain, projected, or compressed),
// optionally with a scan pushdown (zone-map block skipping, residual row
// filtering, field-pruned decoding) chosen by the optimizer.
type FileInput struct {
	r  *storage.Reader
	pd *storage.Pushdown
}

// OpenFile opens a record file as an input with the dictionary-field
// materialization codes (see storage.CodeMode) and a scan pushdown (nil
// scans everything).
func OpenFile(path string, codes storage.CodeMode, pd *storage.Pushdown) (*FileInput, error) {
	r, err := storage.Open(path)
	if err != nil {
		return nil, err
	}
	r.Codes = codes
	return &FileInput{r: r, pd: pd}, nil
}

// Reader exposes the underlying storage reader (for size statistics).
func (f *FileInput) Reader() *storage.Reader { return f.r }

// Schema returns the file's record schema.
func (f *FileInput) Schema() *serde.Schema { return f.r.Schema() }

// Close implements Input.
func (f *FileInput) Close() error { return f.r.Close() }

// Splits implements Input, partitioning storage blocks evenly. With a
// pushdown filter, fully-pruned block ranges are dropped up front — they
// never become map-task work, and planning counts them as skipped — and
// the remaining blocks are balanced across splits by SURVIVING block count.
func (f *FileInput) Splits(target int) ([]Split, ScanStats, error) {
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
		return out, ScanStats{BlocksSkipped: int64(n)}, nil
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
		out = append(out, &fileSplit{r: f.r, lo: lo, hi: hi, pd: f.pd})
	}
	// Blocks outside every split never reach a scanner; count them here so
	// blocks read + skipped always totals the blocks planned over.
	return out, ScanStats{BlocksSkipped: int64(n - covered)}, nil
}

type fileSplit struct {
	r      *storage.Reader
	lo, hi int
	pd     *storage.Pushdown
}

// OpenBatch implements Split: a batch scan over the split's block range.
func (s *fileSplit) OpenBatch() (BatchIter, error) {
	sc, err := s.r.ScanBatch(s.lo, s.hi, s.pd)
	if err != nil {
		return nil, err
	}
	return fileBatchIter{sc}, nil
}

type fileBatchIter struct{ *storage.BatchScanner }

func (fileBatchIter) Close() error { return nil }

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

// Schema returns the schema of the index's stored records.
func (ix *IndexedInput) Schema() *serde.Schema { return ix.t.Schema() }

// Close implements Input.
func (ix *IndexedInput) Close() error { return ix.t.Close() }

// Splits implements Input: the plan's scan ranges fan out across about
// target map tasks. When there are fewer ranges than target, each range is
// sub-split at shard and leaf-page boundaries (Index.RangeCuts), so even a
// single-range selection parallelizes instead of running as one map task.
// Ranges produced by interval merging are disjoint, and cut keys partition
// a range exactly, so splits never overlap. The pages the cuts cost count
// as planning's bytes; B+Tree scans prune by key range, not zone maps.
func (ix *IndexedInput) Splits(target int) ([]Split, ScanStats, error) {
	if target < 1 {
		target = 1
	}
	var st ScanStats
	if len(ix.ranges) == 0 {
		return nil, st, nil
	}
	per := 1
	if len(ix.ranges) < target {
		per = (target + len(ix.ranges) - 1) / len(ix.ranges)
	}
	var out []Split
	for _, r := range ix.ranges {
		lo := r.Lo
		if per > 1 {
			cuts, read, err := ix.t.RangeCuts(r.Lo, r.Hi, per)
			st.BytesRead += read
			if err != nil {
				return nil, st, err
			}
			for _, c := range cuts {
				out = append(out, &indexSplit{t: ix.t, r: ByteRange{Lo: lo, Hi: c}})
				lo = c
			}
		}
		out = append(out, &indexSplit{t: ix.t, r: ByteRange{Lo: lo, Hi: r.Hi}})
	}
	return out, st, nil
}

type indexSplit struct {
	t btree.Index
	r ByteRange
}

// OpenBatch implements Split: the range's entries a leaf at a time, keyed
// by their index key datums.
func (s *indexSplit) OpenBatch() (BatchIter, error) {
	c, err := s.t.ScanBatch(s.r.Lo, s.r.Hi)
	if err != nil {
		return nil, err
	}
	return indexBatchIter{c}, nil
}

type indexBatchIter struct{ btree.BatchCursor }

func (indexBatchIter) Close() error        { return nil }
func (it indexBatchIter) Stats() ScanStats { return ScanStats{BytesRead: it.BytesRead()} }

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

// Schema returns the records' schema.
func (m *MemInput) Schema() *serde.Schema { return m.schema }

// Close implements Input.
func (m *MemInput) Close() error { return nil }

// Splits implements Input.
func (m *MemInput) Splits(target int) ([]Split, ScanStats, error) {
	if target < 1 {
		target = 1
	}
	if target > len(m.records) {
		target = len(m.records)
	}
	var out []Split
	if len(m.records) == 0 {
		return out, ScanStats{}, nil
	}
	per := (len(m.records) + target - 1) / target
	for lo := 0; lo < len(m.records); lo += per {
		hi := lo + per
		if hi > len(m.records) {
			hi = len(m.records)
		}
		out = append(out, &memSplit{schema: m.schema, recs: m.records[lo:hi], base: int64(lo)})
	}
	return out, ScanStats{}, nil
}

type memSplit struct {
	schema *serde.Schema
	recs   []*serde.Record
	base   int64
}

// memBatchRows is how many records a memSplit batch holds: it bounds the
// column copy a batch makes and spaces mapSplit's per-batch cancel checks.
const memBatchRows = 1024

// OpenBatch implements Split: the split's records in batches of
// memBatchRows, keyed by their positions in the input. String and bytes
// values alias the records.
func (s *memSplit) OpenBatch() (BatchIter, error) {
	return &memBatchIter{s: s}, nil
}

// memBatchIter copies its split's records into column vectors one batch
// at a time.
type memBatchIter struct {
	s     *memSplit
	off   int // the split offset of the next batch's first record
	batch serde.Batch
}

func (it *memBatchIter) Next() bool {
	recs := it.s.recs[it.off:]
	if len(recs) == 0 {
		return false
	}
	if len(recs) > memBatchRows {
		recs = recs[:memBatchRows]
	}
	schema := it.s.schema
	b := &it.batch
	b.Reset(schema, len(recs), it.s.base+int64(it.off))
	it.off += len(recs)
	for f := 0; f < schema.NumFields(); f++ {
		col := b.Col(f)
		col.Resize(schema.Field(f).Kind, len(recs))
		for r, rec := range recs {
			d := rec.At(f)
			switch col.Kind() {
			case serde.KindInt64:
				col.Ints()[r] = d.Int()
			case serde.KindFloat64:
				col.Floats()[r] = d.Float()
			case serde.KindString:
				col.Strs()[r] = d.Str()
			case serde.KindBytes:
				col.Raws()[r] = d.Raw()
			case serde.KindBool:
				col.Bools()[r] = d.Flag()
			}
		}
		b.SetDecoded(f)
	}
	b.SelectAll()
	return true
}

func (it *memBatchIter) Batch() *serde.Batch { return &it.batch }
func (it *memBatchIter) Err() error          { return nil }
func (it *memBatchIter) Close() error        { return nil }
func (it *memBatchIter) Stats() ScanStats    { return ScanStats{} }
