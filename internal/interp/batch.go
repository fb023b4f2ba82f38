package interp

import (
	"manimal/internal/serde"
)

// InvokeMapBatch runs Map once per row of the batch's selection vector —
// the batch-at-a-time entry point of the scan pipeline. Rows are
// LATE-MATERIALIZED: only selected rows are ever assembled into a record,
// and all of them share one executor-owned record whose string/bytes fields
// alias the batch's column vectors (valid until the producer's next batch,
// which is after this call returns — the same window storage.Scanner's
// reused record has).
//
// Equivalence contract: for every selected row r this is observably
// identical to InvokeMap(serde.Int(b.Base()+int64(r)), row r's record, ctx)
// — same keys, same field values (masked fields read as their kind's
// zero), same emission order. TestInvokeMapBatchEquivalence pins it.
func (ex *Executor) InvokeMapBatch(b *serde.Batch, ctx *Context) error {
	if ex.batchRec == nil || ex.batchRec.Schema() != b.Schema() {
		ex.batchRec = serde.NewRecord(b.Schema())
	}
	rec := ex.batchRec
	base := b.Base()
	// Masked slots are written once per batch: Map never mutates its input
	// record, so they stay zero while the decoded columns cycle per row.
	b.ZeroUndecoded(rec)
	for _, row := range b.Sel() {
		b.MaterializeDecodedInto(rec, int(row))
		if err := ex.InvokeMap(serde.Int(base+int64(row)), rec, ctx); err != nil {
			return err
		}
	}
	return nil
}
