package interp

import (
	"manimal/internal/serde"
)

// InvokeMapBatch runs Map once per row of the batch's selection vector —
// the batch-at-a-time entry point of the scan pipeline. The frame is set up
// once for the batch, and Map's constant-field reads of its record
// parameter are bound to the batch's column vectors (fieldSite.bind), so a
// row costs little more than its number in the frame. Only a program that
// uses the record parameter opaquely (compiledFunc.readsRecord) has rows
// LATE-MATERIALIZED for it: selected rows are assembled into one
// executor-owned record whose string/bytes fields alias the column vectors.
// Bindings and record are valid until the producer's next batch, which is
// after this call returns — the same window storage.Scanner's reused record
// has.
//
// Equivalence contract: for every selected row r this is observably
// identical to InvokeMap(serde.Int(b.Base()+int64(r)), row r's record, ctx)
// — same keys, same field values (masked fields read as their kind's
// zero), same errors, same emission order. TestInvokeMapBatchEquivalence
// pins it.
func (ex *Executor) InvokeMapBatch(b *serde.Batch, ctx *Context) error {
	cf, err := ex.mapFunc()
	if err != nil {
		return err
	}
	fr := ex.enter(0, cf, ctx)
	for _, s := range cf.fields {
		s.bind(b)
	}
	if cf.readsRecord() {
		if ex.batchRec == nil || ex.batchRec.Schema() != b.Schema() {
			ex.batchRec = serde.NewRecord(b.Schema())
		}
		// Masked slots are written once per batch: Map never mutates its
		// input record, so they stay zero while the decoded columns cycle per
		// row.
		b.ZeroUndecoded(ex.batchRec)
	}
	fr.batch = b
	base := b.Base()
	for _, row := range b.Sel() {
		fr.row = int(row)
		clear(fr.defined)
		fr.bindStage(cf, serde.Int(base+int64(row)))
		if cf.readsRecord() {
			b.MaterializeDecodedInto(ex.batchRec, int(row))
			fr.bind(cf.params[1], RecordVal(ex.batchRec))
		}
		if _, err := cf.body(fr); err != nil {
			return err
		}
	}
	return nil
}
