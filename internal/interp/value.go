// Package interp executes mapper-language programs from the same AST the
// analyzer inspects. The paper runs compiled JVM bytecode; here, executing
// the analyzed representation directly guarantees that the program Manimal
// reasoned about is byte-for-byte the program that runs (DESIGN.md,
// substitutions). The interpreter implements exactly the whitelisted
// function set the analyzer has purity knowledge of (lang.PureFuncs); a
// test asserts the two stay in sync.
//
// # Execution strategy
//
// There is one interpreter. New lowers every function body — Map, Reduce,
// Combine and the user's helpers — once per Executor into a chain of Go
// closures (compile.go, compile_expr.go): identifiers are resolved at
// compile time to integer frame slots (lang.Function.Slots), record
// accessor / ctx method / builtin calls are dispatched through precomputed
// function values with memoized schema field indexes, and helper calls bind
// their callee's compiled body. Per-record execution therefore never
// re-walks the go/ast tree and allocates nothing on the happy path, helper
// calls included.
//
// The compiler is typed. A flow-insensitive pass (kinds.go) first gives
// every expression and frame slot a static kind — int, float, string, bool,
// or dynamic; a slot is typed iff every definition of it agrees. A
// statically-kinded expression lowers to a typed closure returning the Go
// value itself, a typed slot lives unboxed in the frame, and arithmetic,
// comparisons, conditions, builtins with a typed signature and ctx.Emit take
// typed operands directly. Only what the language makes dynamic — maps and
// lists and what is read out of them, helper parameters and results,
// package-level variables — travels as a boxed 56-byte Value, and the boxed
// form of a typed node is derived from its typed closure, not lowered a
// second time: one compiler, two return conventions. Arguments of helper
// calls and of builtin calls with a dynamic operand are evaluated onto an
// executor-owned argument stack, and a helper runs in a reused frame taken
// from an executor-owned, depth-indexed frame stack. Executor.BoxedSites
// reports, per function, which expressions still box.
//
// # Token loops
//
// L := strings.Fields(x) followed at once by a range over L, when L is used
// nowhere else and the body is nothing but an if strings.HasPrefix(w, "lit")
// on the element w, walks x in place (tokens.go): no []string is built, the
// walk jumps from one occurrence of lit to the next, and only the fields
// that start with it are bound, as substrings of x. White space is exactly
// strings.Fields'. Every other range over strings.Fields builds the list.
//
// The lowering is total over what lang.Parse accepts: constructs the
// language admits but the runtime cannot carry out, and operations whose
// operand kinds conflict statically, become closures that return their
// error when executed. The semantics are pinned by a test-only AST
// tree-walker (walker_test.go) that differential_test.go compares the
// closures against — emissions, counters, logs and error text — and that
// FuzzCompileTotal compares them against for every program it generates.
//
// # Batch entry point
//
// Executor.InvokeMapBatch (batch.go) is the scan pipeline's door into the
// interpreter. It sets the frame up once per batch and binds Map's
// constant-field reads of its record parameter (v.Int("rank"), ...) to the
// batch's column vectors, so such a read is Col(i).Ints()[row]; the binding
// is made per batch and is valid exactly as long as the batch's vectors
// are. Rows are assembled into a record only for programs that use the
// parameter opaquely (ctx.Emit(k, v), a helper argument), late and into one
// executor-owned record. The engine calls nothing else: record-file blocks,
// B+Tree leaves (whose batches carry each row's index key) and in-memory
// inputs all arrive as batches. InvokeMap(k, rec) runs the same closures
// over one record, for Go callers that hold a record rather than a batch
// and for the tests; the two are observably identical over the same rows
// and keys: same values, errors, and emission order.
//
// One Map is not called at all: in an optimized job whose Combine folds,
// a Map the analyzer recognized as an aggregate (one ctx.Emit of a
// field-derived key and an int value) runs as the engine's column kernel
// (package mapreduce), and its map tasks build no Executor for it.
// Reduce, and a Combine the task unfolds into, still run here.
package interp

import (
	"fmt"

	"manimal/internal/serde"
)

// ValKind classifies an interpreter runtime value.
type ValKind uint8

const (
	// ValScalar is a serde.Datum.
	ValScalar ValKind = iota
	// ValList is a list of strings (a strings.Split or strings.Fields
	// result).
	ValList
	// ValMap is a mutable map from datum keys to datum values (the
	// Hashtable analogue of paper Benchmark 4).
	ValMap
	// ValRecord is a record reference (the map() value parameter or a
	// record passed through to emit).
	ValRecord
)

// Value is one interpreter runtime value in the boxed convention: a scalar
// datum, or a reference to a list, map or record. Every boxed closure
// returns one by value, so its size is gated (TestValueSizes): D is live for
// ValScalar, ref for the other kinds.
type Value struct {
	Kind ValKind
	D    serde.Datum
	// ref holds, per Kind, the []string of a ValList, the
	// map[string]serde.Datum of a ValMap (key = tagged encoding of the key
	// datum, see Executor.mapKey) or the *serde.Record of a ValRecord.
	ref any
}

// Scalar wraps a datum.
func Scalar(d serde.Datum) Value { return Value{Kind: ValScalar, D: d} }

// IntVal, FloatVal, StrVal, BoolVal are scalar constructors.
func IntVal(v int64) Value     { return Scalar(serde.Int(v)) }
func FloatVal(v float64) Value { return Scalar(serde.Float(v)) }
func StrVal(v string) Value    { return Scalar(serde.String(v)) }
func BoolVal(v bool) Value     { return Scalar(serde.Bool(v)) }

// RecordVal wraps a record.
func RecordVal(r *serde.Record) Value { return Value{Kind: ValRecord, ref: r} }

// NewMapVal returns an empty mutable map value.
func NewMapVal() Value { return Value{Kind: ValMap, ref: make(map[string]serde.Datum)} }

// list, dict and rec read the reference of a ValList, ValMap and ValRecord;
// each is nil for a value of any other kind.
func (v Value) list() []string {
	l, _ := v.ref.([]string)
	return l
}

func (v Value) dict() map[string]serde.Datum {
	m, _ := v.ref.(map[string]serde.Datum)
	return m
}

func (v Value) rec() *serde.Record {
	r, _ := v.ref.(*serde.Record)
	return r
}

// mapKey encodes a datum as a map key (its tagged encoding) into the
// executor's scratch buffer. The result is valid until the next mapKey call;
// index with m[string(key)], which Go compiles to an allocation-free lookup
// (a store allocates only the key string the map keeps).
func (ex *Executor) mapKey(d serde.Datum) []byte {
	ex.keyBuf = d.AppendTagged(ex.keyBuf[:0])
	return ex.keyBuf
}

// scalar extracts the datum of a scalar value or errors.
func (v Value) scalar() (serde.Datum, error) {
	if v.Kind != ValScalar {
		return serde.Datum{}, fmt.Errorf("interp: expected a scalar value, got %v", v.Kind)
	}
	return v.D, nil
}

// str extracts a string scalar.
func (v Value) str() (string, error) {
	d, err := v.scalar()
	if err != nil {
		return "", err
	}
	if d.Kind != serde.KindString {
		return "", fmt.Errorf("interp: expected string, got %v", d.Kind)
	}
	return d.Str(), nil
}

// integer extracts an int64 scalar.
func (v Value) integer() (int64, error) {
	d, err := v.scalar()
	if err != nil {
		return 0, err
	}
	if d.Kind != serde.KindInt64 {
		return 0, fmt.Errorf("interp: expected int, got %v", d.Kind)
	}
	return d.Int(), nil
}

// truth extracts a bool scalar.
func (v Value) truth() (bool, error) {
	d, err := v.scalar()
	if err != nil {
		return false, err
	}
	if d.Kind != serde.KindBool {
		return false, fmt.Errorf("interp: condition is %v, not bool", d.Kind)
	}
	return d.Flag(), nil
}

// String renders the value kind for errors.
func (k ValKind) String() string {
	switch k {
	case ValScalar:
		return "scalar"
	case ValList:
		return "list"
	case ValMap:
		return "map"
	case ValRecord:
		return "record"
	default:
		return "unknown"
	}
}

// EmitValue is the value half of an emitted key/value pair: either a scalar
// datum or a whole record.
type EmitValue struct {
	D   serde.Datum
	Rec *serde.Record
}

// IsRecord reports whether the emitted value is a record.
func (e EmitValue) IsRecord() bool { return e.Rec != nil }

// FromValue converts an interpreter value into an emittable value.
func FromValue(v Value) (EmitValue, error) {
	switch v.Kind {
	case ValScalar:
		return EmitValue{D: v.D}, nil
	case ValRecord:
		return EmitValue{Rec: v.rec()}, nil
	default:
		return EmitValue{}, fmt.Errorf("interp: cannot emit a %v value", v.Kind)
	}
}

// Context is the ctx parameter of map() and reduce(): emission, job
// configuration, and side-effect hooks (logging, counters).
//
// Emit implementations must fully consume (serialize or deep-copy) the key
// and value before returning: emitted records frequently are the reused
// record a scanning iterator handed to map(), whose contents are only
// valid until that iterator's next advance.
type Context struct {
	Conf map[string]serde.Datum
	Emit func(key serde.Datum, value EmitValue) error
	// Log receives ctx.Log messages. A ctx.Log statement evaluates its
	// message only when Log is set: with no sink, as every engine runs
	// jobs, it does nothing at all. Logging is a side effect the optimizer
	// may drop (paper Appendix C), so a message that reads a field a
	// projection dropped, or calls a helper, neither fails nor runs, on
	// every plan alike.
	Log     func(msg string)
	Counter func(name string, delta int64)
}

// ValueIter supplies reduce() with the values of one key group.
type ValueIter interface {
	Next() bool
	Value() EmitValue
}
