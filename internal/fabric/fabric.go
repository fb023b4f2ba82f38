// Package fabric wires the pieces of Manimal's execution path together:
// it adapts interpreted mapper-language programs to the MapReduce engine's
// Mapper/Reducer interfaces and opens the physical input an execution plan
// selected (original file, B+Tree range scan, or re-encoded record file).
//
// A Map the analyzer recognized as an aggregate reaches the engine as its
// analyzer.AggregateDescriptor (mapreduce.MapInput.Aggregate): a map task
// that folds its Combine runs it over the batch's column vectors and never
// builds the interpreted mapper. The submission that decides so raises the
// lead plan's Codes to CodesOnly, and InputForPlan then hands that task
// dictionary codes instead of code strings. -noopt jobs, map-only jobs and
// two-input jobs always call the interpreted Map.
//
// The factories returned here are invoked per task by the engine's
// scheduler, concurrently across the jobs sharing its slot pool: each task
// gets a private executor instance, so nothing produced by this package is
// shared between tasks or jobs, and inputs opened by InputForPlan are
// owned (and closed) by the execution they are submitted with.
package fabric

import (
	"fmt"
	"sync"

	"manimal/internal/btree"
	"manimal/internal/interp"
	"manimal/internal/lang"
	"manimal/internal/mapreduce"
	"manimal/internal/optimizer"
	"manimal/internal/serde"
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

// InputForPlan returns the physical input the optimizer chose, opened at
// the execution's plan phase (its first Splits) rather than now. A service
// may queue far more submissions than the scheduler runs, and an eager
// open would hold file descriptors for the whole queue wait; lazily,
// descriptors scale with the running jobs. Open errors surface from
// Splits.
func InputForPlan(plan *optimizer.Plan) mapreduce.Input {
	return &planInput{plan: plan}
}

type planInput struct {
	plan *optimizer.Plan

	mu  sync.Mutex
	in  mapreduce.Input
	err error
}

// Splits implements mapreduce.Input.
func (p *planInput) Splits(target int) ([]mapreduce.Split, mapreduce.ScanStats, error) {
	p.mu.Lock()
	if p.in == nil && p.err == nil {
		p.in, p.err = openPlan(p.plan)
	}
	in, err := p.in, p.err
	p.mu.Unlock()
	if err != nil {
		return nil, mapreduce.ScanStats{}, err
	}
	return in.Splits(target)
}

// Close implements mapreduce.Input; a never-opened input has nothing to
// release.
func (p *planInput) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.in == nil {
		return nil
	}
	return p.in.Close()
}

// openPlan opens the plan's physical input and nothing else: a record-file
// scan of the original file or a variant, with plan.Pushdown and its
// dictionary fields materialized as plan.Codes says, or the B+Tree ranges
// of plan.Ranges. Every split scans privately, so what a job reads is
// exactly the plan it reports.
func openPlan(plan *optimizer.Plan) (mapreduce.Input, error) {
	switch plan.Kind {
	case optimizer.PlanOriginal, optimizer.PlanRecordFile:
		path := plan.InputPath
		if plan.Kind == optimizer.PlanRecordFile {
			path = plan.IndexPath
		}
		in, err := mapreduce.OpenFile(path, plan.Codes, plan.Pushdown)
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
