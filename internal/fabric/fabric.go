// Package fabric wires the pieces of Manimal's execution path together:
// it adapts interpreted mapper-language programs to the MapReduce engine's
// Mapper/Reducer interfaces and opens the physical input an execution plan
// selected (original file, B+Tree range scan, or re-encoded record file).
//
// The factories returned here are invoked per task by the engine's
// scheduler, concurrently across the jobs sharing its slot pool: each task
// gets a private executor instance, so nothing produced by this package is
// shared between tasks or jobs, and inputs opened by InputForPlan are
// owned (and closed) by the execution they are submitted with.
package fabric

import (
	"fmt"

	"manimal/internal/btree"
	"manimal/internal/interp"
	"manimal/internal/lang"
	"manimal/internal/mapreduce"
	"manimal/internal/optimizer"
	"manimal/internal/predicate"
	"manimal/internal/serde"
	"manimal/internal/storage"
)

// interpMapper adapts one interpreter executor to mapreduce.Mapper.
type interpMapper struct{ ex *interp.Executor }

func (m *interpMapper) Map(k serde.Datum, rec *serde.Record, ctx *interp.Context) error {
	return m.ex.InvokeMap(k, rec, ctx)
}

// MapBatch implements mapreduce.BatchMapper: the compiled Map runs once per
// selected row, keyed by whole-file record index, reading its fields from
// the batch's column vectors (rows late-materialize into one reused record
// only for programs that use the record opaquely).
func (m *interpMapper) MapBatch(b *serde.Batch, ctx *interp.Context) error {
	return m.ex.InvokeMapBatch(b, ctx)
}

// MapperFactory builds per-task interpreted mappers for the program. Each
// task gets its own executor, so package-level variables behave like
// per-task Java member variables — and each executor compiles the program
// to closures once (interp.New), so the per-record map path never walks
// the AST.
func MapperFactory(p *lang.Program) mapreduce.MapperFactory {
	return func() (mapreduce.Mapper, error) {
		ex, err := interp.New(p)
		if err != nil {
			return nil, err
		}
		return &interpMapper{ex: ex}, nil
	}
}

type interpReducer struct {
	ex      *interp.Executor
	combine bool
}

func (r *interpReducer) Reduce(key serde.Datum, values interp.ValueIter, ctx *interp.Context) error {
	if r.combine {
		return r.ex.InvokeCombine(key, values, ctx)
	}
	return r.ex.InvokeReduce(key, values, ctx)
}

// ReducerFactory builds per-task interpreted reducers, or nil when the
// program has no Reduce function.
func ReducerFactory(p *lang.Program) mapreduce.ReducerFactory {
	if p.Reduce() == nil {
		return nil
	}
	return func() (mapreduce.Reducer, error) {
		ex, err := interp.New(p)
		if err != nil {
			return nil, err
		}
		return &interpReducer{ex: ex}, nil
	}
}

// CombinerFactory builds per-task interpreted combiners, or nil when the
// program has no Combine function.
func CombinerFactory(p *lang.Program) mapreduce.ReducerFactory {
	if p.Combine() == nil {
		return nil
	}
	return func() (mapreduce.Reducer, error) {
		ex, err := interp.New(p)
		if err != nil {
			return nil, err
		}
		return &interpReducer{ex: ex, combine: true}, nil
	}
}

// IdentityReducer forwards every value of every group unchanged; it is the
// reduce stage of B+Tree index-generation jobs. Each reduce task's merge
// stream is key-sorted, so under a range partitioner every reducer feeds
// one shard's bulk loader in order (a single-reducer build feeds a
// lone-file tree the same way).
type IdentityReducer struct{}

// Reduce implements mapreduce.Reducer.
func (IdentityReducer) Reduce(key serde.Datum, values interp.ValueIter, ctx *interp.Context) error {
	for values.Next() {
		if err := ctx.Emit(key, values.Value()); err != nil {
			return err
		}
	}
	return nil
}

// InputForPlan opens the physical input chosen by the optimizer.
func InputForPlan(plan *optimizer.Plan) (mapreduce.Input, error) {
	return InputForPlanShared(plan, nil)
}

// InputForPlanShared is InputForPlan with a scan-sharing registry: plans
// marked SharedScan get it installed on their record-file input, so the
// execution's batch scans can ride shared physical scans with other
// in-flight jobs of the same System. A nil registry (or an unmarked plan)
// scans privately.
func InputForPlanShared(plan *optimizer.Plan, share *storage.ScanShare) (mapreduce.Input, error) {
	switch plan.Kind {
	case optimizer.PlanOriginal:
		in, err := mapreduce.OpenFileWith(plan.InputPath, false, plan.Pushdown)
		if err != nil {
			return nil, err
		}
		if plan.SharedScan {
			in.SetShare(share)
		}
		return in, nil
	case optimizer.PlanRecordFile:
		in, err := mapreduce.OpenFileWith(plan.IndexPath, plan.DirectCodes, plan.Pushdown)
		if err != nil {
			return nil, err
		}
		if plan.SharedScan {
			in.SetShare(share)
		}
		return in, nil
	case optimizer.PlanBTree:
		ranges := make([]mapreduce.ByteRange, 0, len(plan.Ranges))
		for _, iv := range plan.Ranges {
			if iv.Empty {
				continue
			}
			var r mapreduce.ByteRange
			if iv.Lo.IsValid() {
				r.Lo = btree.LowerBound(iv.Lo, iv.LoInc)
			}
			if iv.Hi.IsValid() {
				r.Hi = btree.UpperBound(iv.Hi, iv.HiInc)
			}
			ranges = append(ranges, r)
		}
		return mapreduce.OpenIndexed(plan.IndexPath, ranges)
	default:
		return nil, fmt.Errorf("fabric: unknown plan kind %v", plan.Kind)
	}
}

// RangeSummary renders plan ranges for reports.
func RangeSummary(ivs []predicate.Interval) string {
	out := ""
	for i, iv := range ivs {
		if i > 0 {
			out += " ∪ "
		}
		out += iv.String()
	}
	if out == "" {
		out = "∅"
	}
	return out
}
