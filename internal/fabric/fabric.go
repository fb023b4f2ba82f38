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
	"manimal/internal/serde"
	"manimal/internal/storage"
)

// interpMapper adapts one interpreter executor to mapreduce.Mapper. The
// engine maps every split through MapBatch; Map is the one-record form the
// Mapper interface asks for.
type interpMapper struct{ ex *interp.Executor }

func (m *interpMapper) Map(k serde.Datum, rec *serde.Record, ctx *interp.Context) error {
	return m.ex.InvokeMap(k, rec, ctx)
}

// MapBatch implements mapreduce.BatchMapper: the compiled Map runs once per
// selected row, keyed by whole-file record index or, for a B+Tree leaf, by
// the entry's index key, reading its fields from the batch's column vectors
// (rows late-materialize into one reused record only for programs that use
// the record opaquely).
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

// SumCombinerFactory is CombinerFactory for a program whose Combine the
// analyzer recognized as an int64 sum (analyzer.CombineDescriptor "sum").
// Its combiners are marked mapreduce.SumCombiner, so map tasks fold their
// output into running sums instead of calling them; one compiles the
// interpreted Combine only when its task unfolds and has keys to combine.
func SumCombinerFactory(p *lang.Program) mapreduce.ReducerFactory {
	build := CombinerFactory(p)
	return func() (mapreduce.Reducer, error) { return &sumCombiner{build: build}, nil }
}

type sumCombiner struct {
	build mapreduce.ReducerFactory
	r     mapreduce.Reducer
}

// FoldsInt64Sum implements mapreduce.SumCombiner.
func (*sumCombiner) FoldsInt64Sum() {}

func (c *sumCombiner) Reduce(key serde.Datum, values interp.ValueIter, ctx *interp.Context) error {
	if c.r == nil {
		r, err := c.build()
		if err != nil {
			return err
		}
		c.r = r
	}
	return c.r.Reduce(key, values, ctx)
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

// InputForPlan opens the physical input chosen by the optimizer. A
// record-file scan subscribes its splits to share, the scan-sharing
// registry of the jobs in flight, so identical scans run once; B+Tree
// range reads and a nil registry scan privately.
func InputForPlan(plan *optimizer.Plan, share *storage.ScanShare) (mapreduce.Input, error) {
	switch plan.Kind {
	case optimizer.PlanOriginal, optimizer.PlanRecordFile:
		path, direct := plan.InputPath, false
		if plan.Kind == optimizer.PlanRecordFile {
			path, direct = plan.IndexPath, plan.DirectCodes
		}
		in, err := mapreduce.OpenFileWith(path, direct, plan.Pushdown, share)
		if err != nil {
			return nil, err // not a typed nil: callers test the Input against nil
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
