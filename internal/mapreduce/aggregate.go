package mapreduce

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"unsafe"

	"manimal/internal/analyzer"
	"manimal/internal/interp"
	"manimal/internal/serde"
)

// aggKernel is the BatchMapper a folding map task (see Job.FoldSum) runs
// for an input whose Map the analyzer recognized as an aggregate, one emit
// of a field-derived key and an int value:
//
//	ctx.Emit(v.Str(Key), v.Int(Value))     // or v.Int(Key), or v.Int(Key) / Div
//	ctx.Emit(v.Str(Key), Const)            // Value == ""
//
// mapSplit's loop hands it each batch in place of the Mapper: no Map call,
// no Emit, no per-row datums. Each selected row's key and value go straight
// from the batch's column vectors into the shuffle's fold, with exactly the
// pairs, sums, spills and counters the Map would have produced. A task
// that does not fold calls the Mapper as usual.
type aggKernel struct {
	agg *analyzer.AggregateDescriptor
	se  *shuffleEmitter
}

// MapBatch folds every selected row of b into the task's shuffle.
func (k *aggKernel) MapBatch(b *serde.Batch, _ *interp.Context) error {
	agg, se := k.agg, k.se
	key, err := aggColumn(b, agg.Key, agg.KeyKind)
	if err != nil {
		return err
	}
	var vals []int64
	if agg.Value != "" {
		col, err := aggColumn(b, agg.Value, serde.KindInt64)
		if err != nil {
			return err
		}
		vals = col.Ints()
	}
	sel := b.Sel()
	if codes, terms := key.Codes(); codes != nil {
		if DenseCodes(terms, se.threshold) {
			return se.foldCodes(codes, terms, sel, vals, agg.Const)
		}
		for _, r := range sel {
			se.keyBuf = appendCodeKey(se.keyBuf[:0], uint64(codes[r]))
			if err := se.foldInt(se.keyBuf, rowValue(vals, r, agg.Const)); err != nil {
				return err
			}
		}
		return nil
	}
	if agg.KeyKind == serde.KindString {
		strs := key.Strs()
		for _, r := range sel {
			se.keyBuf = serde.String(strs[r]).AppendSortKey(se.keyBuf[:0])
			if err := se.foldInt(se.keyBuf, rowValue(vals, r, agg.Const)); err != nil {
				return err
			}
		}
		return nil
	}
	ints, div := key.Ints(), agg.Div
	for _, r := range sel {
		x := ints[r]
		if div != 0 {
			x /= div
		}
		se.keyBuf = serde.Int(x).AppendSortKey(se.keyBuf[:0])
		if err := se.foldInt(se.keyBuf, rowValue(vals, r, agg.Const)); err != nil {
			return err
		}
	}
	return nil
}

// rowValue is row r's emitted value: its value-column entry, or the
// aggregate's constant.
func rowValue(vals []int64, r int32, c int64) int64 {
	if vals != nil {
		return vals[r]
	}
	return c
}

// aggColumn returns the batch's decoded column of field name, which must
// hold kind. The analyzer checked both against the input's schema, and a
// plan's scan decodes every field the Map reads, so a mismatch here is an
// engine bug, reported rather than guessed around.
func aggColumn(b *serde.Batch, name string, kind serde.Kind) (*serde.Vector, error) {
	i := b.Schema().IndexOf(name)
	if i < 0 || !b.Decoded(i) {
		return nil, fmt.Errorf("mapreduce: aggregate kernel: field %q not decoded", name)
	}
	col := b.Col(i)
	if col.Kind() != kind {
		return nil, fmt.Errorf("mapreduce: aggregate kernel: field %q is %v, not %v", name, col.Kind(), kind)
	}
	return col, nil
}

// appendCodeKey appends the sort key of dictionary code c's code string
// (compress.CodeString: c as a uvarint) without building the string.
func appendCodeKey(dst []byte, c uint64) []byte {
	var u [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(u[:], c)
	return serde.String(unsafe.String(&u[0], n)).AppendSortKey(dst)
}

// codeKeyLen is the length of appendCodeKey's key for code c: the kind
// tag, c's uvarint and the two-byte terminator. Every uvarint byte but the
// last carries the continuation bit, and the last is zero only for code 0,
// so code 0's is the one byte escaped to two.
func codeKeyLen(c uint64) int {
	n := 3 + (bits.Len64(c|1)+6)/7
	if c == 0 {
		n++
	}
	return n
}

// codeEntryBytes is what one dictionary term costs the dense array: its
// int64 sum (its held bit rounds away).
const codeEntryBytes = 8

// DenseCodes reports whether the aggregate kernel folds a key column coded
// by a dictionary of terms terms into a dense array, given the task's
// spill budget in bytes: the array, one entry per term, must fit it.
// Otherwise the kernel hashes the codes' sort keys like strings.
func DenseCodes(terms, spillBudget int) bool {
	return terms <= spillBudget/codeEntryBytes
}

// codeSums is a folding task's dense table of dictionary codes: sums[c] is
// code c's running sum in the current spill when bit c of held is set, and
// seen lists those codes in first-sighting order. It lives in the
// emitter's pooled buffers and is empty between spills.
type codeSums struct {
	sums []int64
	held []uint64
	seen []uint64
}

// reset empties the table, clearing only the bits of the codes it holds.
func (cs *codeSums) reset() {
	for _, c := range cs.seen {
		cs.held[c/64] &^= 1 << (c % 64)
	}
	cs.seen = cs.seen[:0]
}

// foldCodes folds the selected rows of a dense-coded key column: the dense
// form of foldInt over each row's code, with the same counts and charges.
// A code outside the dictionary (only a corrupt file holds one) folds
// through foldInt, as the pair its code string would make.
func (se *shuffleEmitter) foldCodes(codes []int64, terms int, sel []int32, vals []int64, c int64) error {
	cs := &se.codes
	if len(cs.sums) < terms {
		cs.sums = append(cs.sums, make([]int64, terms-len(cs.sums))...)
	}
	if words := (terms + 63) / 64; len(cs.held) < words {
		cs.held = append(cs.held, make([]uint64, words-len(cs.held))...)
	}
	sums, held := cs.sums[:terms], cs.held
	for _, r := range sel {
		code, v := uint64(codes[r]), rowValue(vals, r, c)
		if code >= uint64(len(sums)) {
			se.keyBuf = appendCodeKey(se.keyBuf[:0], code)
			if err := se.foldInt(se.keyBuf, v); err != nil {
				return err
			}
			continue
		}
		klen := codeKeyLen(code)
		if w, bit := code/64, uint64(1)<<(code%64); held[w]&bit != 0 {
			sums[code] += v
			se.pendRecords++
			se.pendBytes += int64(klen + intValueLen(v))
			continue
		} else {
			held[w] |= bit
		}
		sums[code] = v
		cs.seen = append(cs.seen, code)
		if err := se.charge(klen+foldEntryBytes, klen+intValueLen(v)); err != nil {
			return err
		}
	}
	return nil
}

// flushCodes moves the dense code sums into the combining tables, where
// spill sorts and writes them with every other key: each code's sort key,
// hash and partition are computed here, once per spill. The pairs were
// counted and charged as they folded.
func (se *shuffleEmitter) flushCodes() {
	cs := &se.codes
	for _, code := range cs.seen {
		se.keyBuf = appendCodeKey(se.keyBuf[:0], code)
		se.addSum(se.keyBuf, cs.sums[code])
	}
	cs.reset()
}
