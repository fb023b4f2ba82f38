// Package optimizer chooses an execution plan from the analyzer's
// optimization descriptor plus the catalog of previously-built indexes
// (paper Section 2.2, Step 2). Planning follows the paper's rule-based
// heuristics: a simple hard-coded ranking of applicable optimizations, with
// selection favored over delta-compression when the two conflict
// (paper footnote 3).
//
// Two multi-query execution strategies sit alongside the per-job plan
// kinds. PlanCached marks a submission served from the catalog's result
// cache — a prior identical job's committed output, where "identical" is
// the cache-key contract (canonicalized program AST, input fingerprints,
// conf, and output-shape knobs; see package catalog) — synthesized by the
// System's cache lookup rather than by Choose. Plan.SharedScan opts a
// record-file scan into the scan-sharing registry, where concurrent scans
// of one block range run as a single physical scan under the union of the
// subscribers' pushdown filters with per-job residuals re-applied (see
// storage.ScanShare). Both preserve output equivalence: caching replays a
// byte-identical committed output, sharing re-selects every block under
// each job's own filter.
package optimizer

import (
	"errors"
	"fmt"
	"os"

	"manimal/internal/analyzer"
	"manimal/internal/catalog"
	"manimal/internal/predicate"
	"manimal/internal/serde"
	"manimal/internal/storage"
)

// PlanKind says which physical input the job will read.
type PlanKind uint8

const (
	// PlanOriginal scans the unmodified input file.
	PlanOriginal PlanKind = iota
	// PlanBTree range-scans a clustered B+Tree selection index.
	PlanBTree
	// PlanRecordFile scans a re-encoded record file (projection and/or
	// compression index).
	PlanRecordFile
	// PlanCached serves a registered result-cache artifact: no scan, no
	// tasks — the committed output of a previous identical job (same
	// canonical program, input fingerprints, and conf) is returned as-is.
	// Synthesized by the System's cache lookup, never by Choose.
	PlanCached
)

// String names the plan kind for reports.
func (k PlanKind) String() string {
	switch k {
	case PlanOriginal:
		return "original"
	case PlanBTree:
		return "btree"
	case PlanRecordFile:
		return "recordfile"
	case PlanCached:
		return "cached"
	default:
		return "unknown"
	}
}

// Plan is the execution descriptor (paper Figure 1): which file to read,
// which key ranges to scan, and which optimizations are in effect.
type Plan struct {
	Kind      PlanKind
	InputPath string // original data file
	IndexPath string // index file when Kind != PlanOriginal
	// KeyExpr and Ranges drive B+Tree scans.
	KeyExpr string
	Ranges  []predicate.Interval
	// DirectCodes turns on direct operation on dictionary codes.
	DirectCodes bool
	// Pushdown carries scan-time pruning for record-file scans (original
	// or re-encoded): zone-map block skipping plus residual row filtering
	// derived from the selection formula, and a used-field decode mask
	// from the projection analysis. Nil scans everything. The optimizer
	// owns legality: a filter is only installed when skipping records
	// cannot change observable output, and the mask only drops fields the
	// program provably never needs.
	Pushdown *storage.Pushdown
	// SharedScan opts the plan's record-file scan into the System's
	// scan-sharing registry: map tasks whose file and block range match
	// another in-flight subscribed scan ride one shared physical scan, with
	// the block-skip pushdown relaxed to the union of the subscribers'
	// filters and each job's residual re-applied per batch. It is an
	// execution strategy with identical output; the System sets it (it owns
	// the registry, see manimal.Options.DisableScanSharing).
	SharedScan bool
	// Applied lists the optimizations in effect, e.g. ["selection",
	// "projection"]. Empty for original scans.
	Applied []string
	// Notes explains the decision for `manimal explain`.
	Notes []string
}

func (p *Plan) notef(format string, args ...any) {
	p.Notes = append(p.Notes, fmt.Sprintf(format, args...))
}

// Options tunes planning.
type Options struct {
	// SortedOutput disables direct operation on map output keys
	// (paper footnote 1).
	SortedOutput bool
	// SafeMode implements paper footnote 2: avoid optimizations that could
	// modify detected side effects. Skipping map() invocations (selection)
	// or dropping fields a Log statement reads (projection) changes the
	// debug-log stream, so when the program has detected side effects,
	// safe mode keeps every record and every field and allows only the
	// lossless compressions.
	SafeMode bool
}

// Choose selects the best plan for one input of a job.
//
// desc may be nil (no analysis — run unmodified). schema is the input
// file's schema; entries are the catalog's indexes for that input; conf
// binds config parameters referenced by the selection formula.
func Choose(desc *analyzer.Descriptor, inputPath string, schema *serde.Schema, entries []catalog.Entry, conf predicate.Config, opts Options) *Plan {
	plan := &Plan{Kind: PlanOriginal, InputPath: inputPath}
	if desc == nil {
		plan.notef("no optimization descriptor; running unmodified")
		return plan
	}

	entries = freshEntries(inputPath, entries, plan)

	// Fields the program may touch: the projection analysis' used set, or —
	// when projection analysis could not distinguish fields — all of them.
	required := schema.FieldNames()
	if desc.Project != nil {
		required = desc.Project.UsedFields
	}

	guarded := opts.SafeMode && len(desc.SideEffects) > 0
	if guarded {
		// Side effects must be preserved exactly: no skipped invocations,
		// no dropped fields.
		required = schema.FieldNames()
		plan.notef("safe mode: side effects detected (%d); selection and projection disabled", len(desc.SideEffects))
	}

	// Rank 1: selection via a B+Tree index (the paper's top-ranked
	// optimization; conflicts with delta-compression, which B+Tree storage
	// does not use — selection is favored).
	if desc.Select != nil && !guarded {
		if best := chooseBTree(desc, entries, required, conf, plan); best != nil {
			return best
		}
	} else {
		plan.notef("selection not applicable")
	}

	// Rank 2-4: projection / direct-operation / delta via record files.
	if best, stored := chooseRecordFile(desc, schema, entries, required, opts.SortedOutput, plan); best != nil {
		applyPushdown(best, best.IndexPath, desc, conf, guarded, required, stored)
		return best
	}

	plan.notef("no usable index in catalog; scanning original file")
	// Even without any index, the analyzer's predicate and used-field set
	// push down into the original file's scan: zone-map block skipping,
	// residual row filtering, and field-pruned decoding.
	applyPushdown(plan, inputPath, desc, conf, guarded, required, schema.FieldNames())
	return plan
}

// applyPushdown attaches scan-time pruning to a record-file plan (original
// input or re-encoded variant). Legality mirrors the optimizer's existing
// gates: the block/row filter — which skips map() invocations — only when
// selection is permitted (not guarded by safe-mode side effects), and the
// field mask only drops fields outside the projection's used set. path is
// the file the plan scans; stored is its field list.
func applyPushdown(plan *Plan, path string, desc *analyzer.Descriptor, conf predicate.Config, guarded bool, required, stored []string) {
	pd := &storage.Pushdown{}

	if desc.Select != nil && !guarded {
		zones, ok, err := desc.Select.Formula.Zones(conf)
		if err != nil {
			plan.notef("block-skip: %v", err)
		} else if !ok {
			plan.notef("block-skip: formula has an unbounded disjunct; scanning all blocks")
		} else {
			pd.Filter = zones
			pd.Residual = true
		}
	} else if guarded {
		plan.notef("block-skip: disabled (safe mode preserves side effects)")
	}

	if desc.Project != nil && len(required) < len(stored) {
		pd.Fields = required
	}

	if pd.Filter == nil && pd.Fields == nil {
		return
	}
	plan.Pushdown = pd

	if pd.Fields != nil {
		plan.Applied = append(plan.Applied, "field-prune")
		plan.notef("field-prune: decoding %d/%d stored fields", len(pd.Fields), len(stored))
	}
	if pd.Filter == nil {
		return
	}
	// Estimate what the zone maps buy by scoring the filter against the
	// scanned file's footer stats (a metadata-only open).
	r, err := storage.Open(path)
	if err != nil {
		// No "block-skip" tag without a score: the filter is installed and
		// the scan itself will report why the file does not open.
		plan.notef("block-skip: filter installed; could not score stats (%v)", err)
		return
	}
	defer r.Close()
	plan.Applied = append(plan.Applied, "block-skip")
	mask, skip := r.SkippableBlocks(pd.Filter)
	var skipRecs int64
	for i, s := range mask {
		if s {
			skipRecs += r.RecordsInBlocks(i, i+1)
		}
	}
	total := r.NumRecords()
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(total-skipRecs) / float64(total)
	}
	plan.notef("block-skip: %d/%d blocks prunable; estimated selectivity %.1f%% of %d records",
		skip, r.NumBlocks(), pct, total)
}

// freshEntries drops catalog entries the planner must not touch: entries
// quarantined as CORRUPT (a scan detected checksum/decode failures in the
// variant), and entries whose recorded input fingerprint no longer matches
// the input file — the input was rewritten after the index was built, and
// using the index would silently serve stale results. Entries without a
// fingerprint (older catalogs) are kept.
func freshEntries(inputPath string, entries []catalog.Entry, plan *Plan) []catalog.Entry {
	var (
		statted bool
		size    int64
		mtime   int64
		statErr error
	)
	kept := entries[:0:0]
	for _, e := range entries {
		if !e.Usable() {
			plan.notef("%s %s: %s (%s); skipping", e.Kind, e.IndexPath, e.State, e.StateReason)
			continue
		}
		if e.InputSizeBytes == 0 && e.InputModTimeNanos == 0 {
			kept = append(kept, e)
			continue
		}
		if !statted {
			statted = true
			if st, err := os.Stat(inputPath); err != nil {
				statErr = err
			} else {
				size, mtime = st.Size(), st.ModTime().UnixNano()
			}
		}
		if statErr != nil || !e.MatchesInput(size, mtime) {
			plan.notef("%s %s: stale — input rewritten since index build; skipping", e.Kind, e.IndexPath)
			continue
		}
		kept = append(kept, e)
	}
	return kept
}

// chooseBTree picks a B+Tree entry (single-file or sharded) whose key
// expression the formula bounds in every disjunct and whose stored fields
// cover the program's needs. Among candidates it prefers the
// most-projected (fewest stored fields).
func chooseBTree(desc *analyzer.Descriptor, entries []catalog.Entry, required []string, conf predicate.Config, base *Plan) *Plan {
	var (
		best       *Plan
		bestFields = int(^uint(0) >> 1)
	)
	for _, e := range entries {
		if e.Kind != catalog.KindBTree && e.Kind != catalog.KindBTreeSharded {
			continue
		}
		if !containsString(desc.Select.IndexKeys, e.KeyExpr) {
			base.notef("btree %s: key %q not indexable for this program", e.IndexPath, e.KeyExpr)
			continue
		}
		if !e.CoversFields(required) {
			base.notef("btree %s: does not store all required fields", e.IndexPath)
			continue
		}
		ranges, ok, err := desc.Select.Formula.RangesFor(e.KeyExpr, conf)
		if err != nil {
			base.notef("btree %s: %v", e.IndexPath, err)
			continue
		}
		if !ok {
			base.notef("btree %s: some disjunct does not bound %q", e.IndexPath, e.KeyExpr)
			continue
		}
		if len(e.Fields) < bestFields {
			bestFields = len(e.Fields)
			p := &Plan{
				Kind:      PlanBTree,
				InputPath: base.InputPath,
				IndexPath: e.IndexPath,
				KeyExpr:   e.KeyExpr,
				Ranges:    ranges,
				Applied:   []string{"selection"},
				// Copy: appending to an aliased base.Notes later would
				// clobber this plan's own notes via the shared array.
				Notes: append([]string(nil), base.Notes...),
			}
			if desc.Project != nil && len(e.Fields) < len(desc.Project.UsedFields)+len(desc.Project.DroppedFields) {
				p.Applied = append(p.Applied, "projection")
			}
			p.notef("selection via %s on %s, %d range(s)", e.IndexPath, e.KeyExpr, len(ranges))
			best = p
		}
	}
	return best
}

// chooseRecordFile scores re-encoded record files by the hard-coded
// ranking: projection > direct-operation > delta-compression. It returns
// the winning plan plus the chosen file's stored field list (for the
// pushdown's field mask).
func chooseRecordFile(desc *analyzer.Descriptor, schema *serde.Schema, entries []catalog.Entry, required []string, sortedOutput bool, base *Plan) (*Plan, []string) {
	var (
		best       *Plan
		bestFields []string
		bestScore  int
		bestSize   int64
	)
	for _, e := range entries {
		if e.Kind != catalog.KindRecordFile {
			continue
		}
		if !e.CoversFields(required) {
			base.notef("recordfile %s: does not store all required fields", e.IndexPath)
			continue
		}
		var applied []string
		score := 0
		if len(e.Fields) < schema.NumFields() {
			score += 4
			applied = append(applied, "projection")
		}
		var deltaFields, dictFields []string
		for f, enc := range e.Encodings {
			switch enc {
			case storage.EncodeDelta.String():
				deltaFields = append(deltaFields, f)
			case storage.EncodeDict.String():
				dictFields = append(dictFields, f)
			}
		}
		directCodes := false
		if len(dictFields) > 0 {
			if desc.DirectOp != nil && subset(dictFields, desc.DirectOp.Fields) && !sortedOutput {
				directCodes = true
				score += 2
				applied = append(applied, "direct-operation")
			} else {
				base.notef("recordfile %s: dict fields decoded (direct-operation not safe here)", e.IndexPath)
			}
		}
		if len(deltaFields) > 0 {
			score++
			applied = append(applied, "delta-compression")
		}
		if score == 0 {
			base.notef("recordfile %s: no benefit over original", e.IndexPath)
			continue
		}
		if best == nil || score > bestScore || (score == bestScore && e.SizeBytes < bestSize) {
			// A variant left behind in a retired format cannot be scanned;
			// skip it like a stale one (probing only would-be winners).
			if r, err := storage.Open(e.IndexPath); errors.Is(err, storage.ErrUnsupportedFormat) {
				base.notef("recordfile %s: %v; skipping", e.IndexPath, err)
				continue
			} else if err == nil {
				r.Close()
			}
			bestScore, bestSize = score, e.SizeBytes
			bestFields = e.Fields
			best = &Plan{
				Kind:        PlanRecordFile,
				InputPath:   base.InputPath,
				IndexPath:   e.IndexPath,
				DirectCodes: directCodes,
				Applied:     applied,
				Notes:       append([]string(nil), base.Notes...),
			}
			best.notef("record file %s: %v", e.IndexPath, applied)
		}
	}
	return best, bestFields
}

func containsString(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func subset(xs, of []string) bool {
	for _, x := range xs {
		if !containsString(of, x) {
			return false
		}
	}
	return true
}
