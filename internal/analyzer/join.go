package analyzer

import (
	"fmt"

	"manimal/internal/cfg"
	"manimal/internal/dataflow"
	"manimal/internal/lang"
	"manimal/internal/predicate"
	"manimal/internal/serde"
)

// JoinSide describes one input of a detected repartition join: which plain
// schema field every map emit uses as its output key.
type JoinSide struct {
	// Field is the schema field name whose value keys every emit.
	Field string `json:"field"`
	// Canon is the canonical accessor expression, e.g. `v.Str("destURL")`.
	Canon string `json:"canon"`
	// Records is the input file's record count, when the caller filled it
	// in from the storage footer; 0 means unknown.
	Records int64 `json:"records,omitempty"`
}

// JoinDescriptor describes a detected two-input repartition join (the
// examples/join / paper Benchmark 3 shape): each input's map() re-keys its
// records on a field extracted from that input, so the shuffle brings
// matching keys together and reduce() performs the join.
//
// When SemiJoin is set, the job's Reduce is also proved inner on one input
// (the build side), and an optimized job runs as a semi-join: the build
// side's map tasks run first, the distinct keys they emit form an exact
// set, and the other input drops rows whose join field is not in the set
// before Map (optimizer.ChooseSemiJoin adds the plan-level conditions).
// When it is nil, SemiJoinRefused says which check refused it.
type JoinDescriptor struct {
	Left  JoinSide `json:"left"`
	Right JoinSide `json:"right"`
	// SemiJoin is the reduce-side proof, or nil.
	SemiJoin *SemiJoinProof `json:"semiJoin,omitempty"`
	// SemiJoinRefused is the check that refused the proof when SemiJoin
	// is nil.
	SemiJoinRefused string `json:"semiJoinRefused,omitempty"`
	// Notes explains detection details for tooling.
	Notes []string `json:"notes,omitempty"`
}

// SemiJoinProof says the lead program's Reduce is inner on input Build: a
// key group that holds no value from that input makes Reduce emit nothing
// and change nothing outside its own locals, so dropping such a group's
// values — every value the other input's Map emits for a key the build
// side never emits — leaves the output and every user counter as they are.
type SemiJoinProof struct {
	// Build is the build side's input index: 0 for Left, 1 for Right.
	Build int `json:"build"`
	// Tag is the field whose values.HasField test tells the sides apart;
	// exactly one input's schema has it.
	Tag string `json:"tag"`
	// Counter is the Reduce local that starts at 0, is incremented only
	// for build-side values, and guards every emit.
	Counter string `json:"counter"`
}

// String renders the join shape for explain output.
func (j *JoinDescriptor) String() string {
	return fmt.Sprintf("%s = %s", j.Left.Canon, j.Right.Canon)
}

// Side returns input i's side (0 for Left, 1 for Right).
func (j *JoinDescriptor) Side(i int) *JoinSide {
	if i == 0 {
		return &j.Left
	}
	return &j.Right
}

// DetectJoin recognizes the repartition-join shape across a two-input job:
// both maps must key every emit by a (statically resolvable, functional)
// plain field of their own input record. Safety-first like every detector:
// any doubt — multiple inconsistent key fields, a computed key, a key that
// fails isFunc — yields nil. A detected join then gets the semi-join proof
// (see SemiJoinProof) or SemiJoinRefused saying why not; left's Reduce is
// the job's Reduce.
func DetectJoin(left *lang.Program, leftSchema *serde.Schema, right *lang.Program, rightSchema *serde.Schema) *JoinDescriptor {
	lk, la, ok := emitKeyField(left, leftSchema)
	if !ok {
		return nil
	}
	rk, ra, ok := emitKeyField(right, rightSchema)
	if !ok {
		return nil
	}
	j := &JoinDescriptor{
		Left:  JoinSide{Field: lk.Name, Canon: lk.Canon()},
		Right: JoinSide{Field: rk.Name, Canon: rk.Canon()},
	}
	j.Notes = append(j.Notes, fmt.Sprintf("join: both inputs re-key on a plain field (%s)", j))
	proof, err := proveSemiJoin([2]predicate.Field{lk, rk}, [2]*analysis{la, ra}, left.Reduce())
	if err != nil {
		j.SemiJoinRefused = err.Error()
		return j
	}
	j.SemiJoin = proof
	return j
}

// emitKeyField reports the single field accessor that keys every emit of
// the program's map(), if there is one, with the map's analysis. The key
// argument of each emit must pass isFunc (its value depends only on the
// record and config) and resolve to a bare field accessor; all emits must
// agree on the accessor.
func emitKeyField(p *lang.Program, schema *serde.Schema) (key predicate.Field, a *analysis, ok bool) {
	fn := p.Map()
	if fn == nil || len(fn.Params) != 3 || schema == nil {
		return key, nil, false
	}
	g, err := cfg.Build(p, fn)
	if err != nil {
		return key, nil, false
	}
	fl, err := dataflow.Analyze(p, g)
	if err != nil {
		return key, nil, false
	}
	a = &analysis{
		prog:       p,
		schema:     schema,
		fn:         fn,
		graph:      g,
		flow:       fl,
		keyParam:   fn.Params[0].Name,
		valueParam: fn.Params[1].Name,
		ctxParam:   fn.Params[2].Name,
		summaries:  Summarize(p),
	}
	a.collectEmits()
	if len(a.emits) == 0 {
		return key, nil, false
	}
	for _, e := range a.emits {
		if len(e.call.Args) < 1 {
			return key, nil, false
		}
		k := e.call.Args[0]
		dag, err := a.flow.UseDefOfExpr(k, e.stmt)
		if err != nil {
			return key, nil, false
		}
		if funcOK, _ := a.isFunc(dag); !funcOK {
			return key, nil, false
		}
		pe, err := a.resolveToInputs(k, resolvePoint{stmt: e.stmt})
		if err != nil {
			return key, nil, false
		}
		f, isField := pe.(predicate.Field)
		if !isField {
			return key, nil, false
		}
		if _, known := schema.KindOf(f.Name); !known {
			return key, nil, false
		}
		if key.Name != "" && key != f {
			return key, nil, false // inconsistent key fields across emits
		}
		key = f
	}
	return key, a, true
}
