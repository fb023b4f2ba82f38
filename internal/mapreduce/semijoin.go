package mapreduce

import (
	"strings"
	"sync"

	"manimal/internal/interp"
	"manimal/internal/serde"
)

// SemiJoin runs a two-input job as a semi-join reduction (Job.SemiJoin).
type SemiJoin struct {
	// Build is the input whose map tasks run first; the distinct keys
	// their committed attempts emit form the set.
	Build int
	// Field is the other (probe) input's join field, string or int64: a
	// probe row whose value is not in the set never reaches Map.
	Field string
}

// keyEntryBytes is what one key costs a keySet besides a string key's
// bytes: the map entry and its share of the table.
const keyEntryBytes = 32

// keySet is the exact set of keys a semi-join's build side emitted. Each
// build-side attempt fills its own, and its commit merges it into the
// job's, so keys of an attempt that fails or loses never reach the job's
// set. A set that grows past limit bytes drops its keys and stays
// unusable: the probe side then runs unfiltered.
type keySet struct {
	strs  map[string]struct{}
	ints  map[int64]struct{}
	bytes int
	limit int
	over  bool
}

func newKeySet(limit int) *keySet {
	return &keySet{strs: map[string]struct{}{}, ints: map[int64]struct{}{}, limit: limit}
}

// add records one emitted key. A string key may alias a reused buffer, so
// a new one is copied. The analyzer proves both join fields string or
// int64; a key of another kind leaves the set unusable.
func (s *keySet) add(k serde.Datum) {
	if s.over {
		return
	}
	switch k.Kind {
	case serde.KindString:
		if _, ok := s.strs[k.Str()]; !ok {
			insert(s, s.strs, strings.Clone(k.Str()), len(k.Str()))
		}
	case serde.KindInt64:
		insert(s, s.ints, k.Int(), 0)
	default:
		s.drop()
	}
}

// merge adds o's keys to s.
func (s *keySet) merge(o *keySet) {
	if o.over {
		s.drop()
	}
	for k := range o.strs {
		insert(s, s.strs, k, len(k))
	}
	for n := range o.ints {
		insert(s, s.ints, n, 0)
	}
}

// insert puts k, which costs size bytes besides its entry, into m (one of
// s's maps) unless s is over its limit or already holds k, and drops s's
// keys once they outgrow the limit.
func insert[K comparable](s *keySet, m map[K]struct{}, k K, size int) {
	if s.over {
		return
	}
	if _, ok := m[k]; ok {
		return
	}
	m[k] = struct{}{}
	if s.bytes += keyEntryBytes + size; s.bytes > s.limit {
		s.drop()
	}
}

func (s *keySet) drop() {
	s.over, s.strs, s.ints, s.bytes = true, nil, nil, 0
}

func (s *keySet) len() int { return len(s.strs) + len(s.ints) }

// semiJoinRun is one execution's semi-join state: the job's key set,
// filled by build-side commits during the first map wave and read-only
// during the second.
type semiJoinRun struct {
	*SemiJoin
	mu  sync.Mutex
	set *keySet
}

// record makes the attempt's emits add their keys to a set of its own,
// returned for its commit to merge.
func (r *semiJoinRun) record(a *attempt) *keySet {
	keys := newKeySet(r.set.limit)
	emit := a.ictx.Emit
	a.ictx.Emit = func(k serde.Datum, v interp.EmitValue) error {
		keys.add(k)
		return emit(k, v)
	}
	return keys
}

// commit merges a committed build-side attempt's keys into the job's set.
func (r *semiJoinRun) commit(keys *keySet) {
	r.mu.Lock()
	r.set.merge(keys)
	r.mu.Unlock()
}

// narrow drops from b's selection every row whose join field is not in
// set, before the batch reaches Map, and returns how many it dropped. A
// batch it cannot read the field of — field not decoded, a coded column,
// another kind — keeps every row.
func narrow(b *serde.Batch, field string, set *keySet) int {
	i := b.Schema().IndexOf(field)
	if i < 0 || !b.Decoded(i) {
		return 0
	}
	col := b.Col(i)
	if codes, _ := col.Codes(); codes != nil {
		return 0
	}
	sel, kept := b.Sel(), 0
	switch col.Kind() {
	case serde.KindString:
		strs := col.Strs()
		for _, r := range sel {
			if _, ok := set.strs[strs[r]]; ok {
				sel[kept] = r
				kept++
			}
		}
	case serde.KindInt64:
		ints := col.Ints()
		for _, r := range sel {
			if _, ok := set.ints[ints[r]]; ok {
				sel[kept] = r
				kept++
			}
		}
	default:
		return 0
	}
	b.SetSel(sel[:kept])
	return len(sel) - kept
}
