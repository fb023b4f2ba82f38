package storage

import (
	"fmt"
	"math"

	"manimal/internal/compress"
	"manimal/internal/serde"
)

// BatchScanner is the scan pipeline: each call to Next loads the next
// surviving block, bulk-decodes its unmasked fields into flat column
// vectors, evaluates the residual filter as interval kernels over those
// vectors, and exposes the result as one serde.Batch with a selection
// vector — rows are never materialized unless the consumer asks
// (Batch.MaterializeInto). It is the only code that decodes a block;
// Scanner is a row cursor on top of it.
//
// Buffer ownership: the scanner reuses one Batch, its vectors, and the
// segment buffer they alias across blocks. Everything borrowed from the
// batch — column slices, the selection vector, string/bytes values — is
// valid only until the next call to Next; retainers must copy.
type BatchScanner struct {
	r       *Reader
	blockLo int
	blockHi int
	raw     []byte
	batch   serde.Batch
	deltas  []*compress.DeltaDecoder

	decode      []bool // per-field decode mask; nil decodes everything
	blockFilter *compiledFilter
	rowFilter   *compiledFilter
	segs        [][]byte // the loaded block's decoded segments, aliasing raw
	mask        []bool   // reused residual-filter row mask
	tmp         []bool   // reused per-conjunct mask
	raws        []int64  // reused delta/dict raw value scratch
	nextIdx     int64
	blockIdx    int
	valid       bool
	err         error
	// publishEmpty makes Next return blocks whose every row the residual
	// filter dropped (empty selection) instead of passing them over. Shared
	// scans need them: the producer's filter is the relaxed union of its
	// subscribers', so a union-empty block may still hold rows some
	// subscriber's own residual admits, and per-subscriber read accounting
	// wants every non-skipped block delivered exactly once.
	publishEmpty bool
}

// ScanBatch returns a batch scanner over blocks [lo, hi) with the given
// pushdown applied (nil scans everything).
func (r *Reader) ScanBatch(lo, hi int, pd *Pushdown) (*BatchScanner, error) {
	if lo < 0 || hi > len(r.blocks) || lo > hi {
		return nil, fmt.Errorf("storage: block range [%d,%d) out of [0,%d)", lo, hi, len(r.blocks))
	}
	s := &BatchScanner{
		r:       r,
		blockLo: lo,
		blockHi: hi,
		deltas:  make([]*compress.DeltaDecoder, r.schema.NumFields()),
		segs:    make([][]byte, r.schema.NumFields()),
		nextIdx: r.RecordsInBlocks(0, lo),
	}
	for i, e := range r.encodings {
		if e == EncodeDelta {
			d, err := compress.NewDeltaDecoder(r.schema.Field(i).Kind)
			if err != nil {
				return nil, err
			}
			s.deltas[i] = d
		}
	}
	if pd != nil {
		if pd.Filter != nil {
			bf := r.compileFilter(pd.Filter, false)
			s.blockFilter = &bf
			if pd.Residual {
				rf := r.compileFilter(pd.Filter, true)
				s.rowFilter = &rf
			}
		}
		s.decode = r.decodeMaskFor(pd, s.rowFilter)
	}
	return s, nil
}

// decodeMaskFor computes the per-field decode mask a pushdown implies: the
// masked field set, widened by every field the residual filter constrains
// (the filter reads its fields off the decoded row, so they decode
// regardless of the mask). Nil means decode everything.
func (r *Reader) decodeMaskFor(pd *Pushdown, rowFilter *compiledFilter) []bool {
	if pd == nil || pd.Fields == nil {
		return nil
	}
	decode := make([]bool, r.schema.NumFields())
	for _, name := range pd.Fields {
		if i := r.schema.IndexOf(name); i >= 0 {
			decode[i] = true
		}
	}
	if rowFilter != nil {
		for _, c := range rowFilter.conjuncts {
			for _, b := range c {
				decode[b.field] = true
			}
		}
	}
	return decode
}

// Next advances to the next block with at least one surviving row,
// returning false at the end of the range or on error (check Err). Blocks
// the zone maps rule out are skipped without I/O; blocks whose every row
// the residual filter drops are read, counted, and passed over.
func (s *BatchScanner) Next() bool {
	if s.err != nil {
		return false
	}
	s.valid = false
	for {
		if s.blockLo >= s.blockHi {
			return false
		}
		b := s.blockLo
		s.blockLo++
		base := s.nextIdx
		s.nextIdx += s.r.blocks[b].records
		if s.blockFilter != nil && s.r.blockSkippable(s.blockFilter, b) {
			s.r.blocksSkipped.Add(1)
			continue
		}
		if err := s.loadColumns(b, base); err != nil {
			s.err = err
			return false
		}
		if len(s.batch.Sel()) == 0 && !s.publishEmpty {
			continue
		}
		s.blockIdx = b
		s.valid = true
		return true
	}
}

// Batch returns the current decoded block after a successful Next. The
// batch and everything borrowed from it are reused: valid only until the
// next call to Next.
func (s *BatchScanner) Batch() *serde.Batch {
	if !s.valid {
		return nil
	}
	return &s.batch
}

// BlockIndex returns the file block index of the current batch, valid after
// a successful Next. Shared-scan producers use it to track the publication
// frontier across scanner reopens.
func (s *BatchScanner) BlockIndex() int { return s.blockIdx }

// Err returns the first error encountered while scanning.
func (s *BatchScanner) Err() error { return s.err }

// loadColumns reads the segments of block bi's unmasked fields,
// bulk-decodes them into the batch's column vectors, and computes the
// selection vector, flushing the residual-drop count per block.
func (s *BatchScanner) loadColumns(bi int, base int64) error {
	raw, err := s.r.readSegments(bi, s.decode, s.raw, s.segs)
	s.raw = raw
	if err != nil {
		return err
	}
	n := int(s.r.blocks[bi].records)
	s.batch.Reset(s.r.schema, n, base)
	for i, seg := range s.segs {
		if s.decode != nil && !s.decode[i] {
			continue
		}
		if err := s.decodeColumn(i, seg, n); err != nil {
			return s.r.corruptBlock(bi, fmt.Errorf("field %q: %w", s.r.schema.Field(i).Name, err))
		}
		s.batch.SetDecoded(i)
	}
	s.selectRows(n)
	return nil
}

// decodeColumn bulk-decodes one field's segment (n values) into its vector.
func (s *BatchScanner) decodeColumn(i int, seg []byte, n int) error {
	kind := s.r.schema.Field(i).Kind
	col := s.batch.Col(i)
	switch s.r.encodings[i] {
	case EncodePlain:
		var (
			used int
			err  error
		)
		switch kind {
		case serde.KindInt64:
			used, err = serde.DecodeInt64Column(seg, col.ResizeInts(n))
		case serde.KindFloat64:
			used, err = serde.DecodeFloat64Column(seg, col.ResizeFloats(n))
		case serde.KindString:
			used, err = serde.DecodeStringColumnShared(seg, col.ResizeStrs(n))
		case serde.KindBytes:
			used, err = serde.DecodeBytesColumnShared(seg, col.ResizeRaws(n))
		case serde.KindBool:
			used, err = serde.DecodeBoolColumn(seg, col.ResizeBools(n))
		default:
			return fmt.Errorf("invalid kind %v", kind)
		}
		if err != nil {
			return err
		}
		if used != len(seg) {
			return fmt.Errorf("segment not fully consumed")
		}
		return nil
	case EncodeDelta:
		// Delta chains decode to raw int64s (bit patterns for float64);
		// int64 columns decode straight into the vector, float64 via the
		// raw scratch.
		if kind == serde.KindFloat64 {
			s.raws = growInt64(s.raws, n)
			used, err := s.deltas[i].DecodeColumn(seg, s.raws)
			if err != nil {
				return err
			}
			if used != len(seg) {
				return fmt.Errorf("segment not fully consumed")
			}
			dst := col.ResizeFloats(n)
			for j, bits := range s.raws {
				dst[j] = math.Float64frombits(uint64(bits))
			}
			return nil
		}
		used, err := s.deltas[i].DecodeColumn(seg, col.ResizeInts(n))
		if err != nil {
			return err
		}
		if used != len(seg) {
			return fmt.Errorf("segment not fully consumed")
		}
		return nil
	case EncodeDict:
		s.raws = growInt64(s.raws, n)
		used, err := serde.DecodeUvarintColumn(seg, s.raws)
		if err != nil {
			return err
		}
		if used != len(seg) {
			return fmt.Errorf("segment not fully consumed")
		}
		dst := col.ResizeStrs(n)
		if s.r.DirectCodes {
			for j, code := range s.raws {
				dst[j] = compress.CodeString(uint64(code))
			}
			return nil
		}
		dict := s.r.dicts[i]
		for j, code := range s.raws {
			term, err := dict.Decode(uint64(code))
			if err != nil {
				return err
			}
			dst[j] = term
		}
		return nil
	default:
		return fmt.Errorf("unknown encoding %d", s.r.encodings[i])
	}
}

// selectRows computes the selection vector for the loaded block: without a
// residual filter every row survives; with one, each conjunct's bounds AND
// into a per-conjunct mask via the interval kernels, conjuncts OR into the
// row mask (DNF), and the mask compacts into the selection vector.
func (s *BatchScanner) selectRows(n int) {
	if s.rowFilter == nil {
		s.batch.SelectAll()
		return
	}
	s.mask, s.tmp = applyFilterSel(s.rowFilter, &s.batch, &s.batch, s.mask, s.tmp)
	if dropped := int64(n - len(s.batch.Sel())); dropped > 0 {
		s.r.rowsFiltered.Add(dropped)
	}
}

// applyFilterSel evaluates rf's DNF over src's decoded columns and compacts
// the surviving rows into dst's selection vector; src and dst may be the
// same batch (the private-scan case) or dst may be a column-aliased view of
// src (a shared-scan subscriber re-selecting a shared block). A nil rf
// selects every row. mask and tmp are caller-owned scratch, returned after
// possible growth.
func applyFilterSel(rf *compiledFilter, src, dst *serde.Batch, mask, tmp []bool) ([]bool, []bool) {
	if rf == nil {
		dst.SelectAll()
		return mask, tmp
	}
	n := src.Len()
	tmp = growBool(tmp, n)
	// A single-conjunct filter (the common shape: one range predicate) needs
	// no DNF accumulator — its conjunct mask IS the row mask.
	single := len(rf.conjuncts) == 1
	if !single {
		mask = growBool(mask, n)
		for i := range mask {
			mask[i] = false
		}
	}
	for _, bounds := range rf.conjuncts {
		for i := range tmp {
			tmp[i] = true
		}
		for _, b := range bounds {
			col := src.Col(b.field)
			switch col.Kind() {
			case serde.KindInt64:
				b.iv.FilterInt64(col.Ints(), tmp)
			case serde.KindFloat64:
				b.iv.FilterFloat64(col.Floats(), tmp)
			case serde.KindString:
				b.iv.FilterString(col.Strs(), tmp)
			case serde.KindBytes:
				b.iv.FilterBytes(col.Raws(), tmp)
			case serde.KindBool:
				b.iv.FilterBool(col.Bools(), tmp)
			}
		}
		if single {
			break
		}
		for i := range mask {
			mask[i] = mask[i] || tmp[i]
		}
	}
	if single {
		dst.SetSelMask(tmp)
	} else {
		dst.SetSelMask(mask)
	}
	return mask, tmp
}

func growBool(s []bool, n int) []bool {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]bool, n)
}

func growInt64(s []int64, n int) []int64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int64, n)
}
