package storage

import (
	"fmt"
	"slices"
	"sync"

	"manimal/internal/serde"
)

// ScanShare is the multi-query scan-sharing registry: scans of one file
// over one block range under byte-for-byte the same pushdown run as one.
// The first subscriber LEADS with its own BatchScanner on its own
// goroutine — exactly its private scan. Later ones FOLLOW: they read its
// batches and mirror its counts into their own scan's Stats (not onto their
// readers, which count only what they physically read), so their batches,
// record indices and Stats are exactly a private scan's, Shared aside.
// Delivery is
// lock-step: the leader loads block k+1 once every follower released
// block k (at its next Next, or Close). A joiner covers the blocks the
// leader already passed with a private catch-up of at most half the range;
// attempts over one *Reader never share, so a speculative duplicate can
// overtake its straggler. When the leader leaves early, followers go on
// privately from their first untaken block, so a corrupt block surfaces as
// each follower's own CorruptBlockError.
type ScanShare struct {
	mu     sync.Mutex
	groups map[shareKey]*shareGroup
}

// NewScanShare returns an empty registry; a System owns one for its jobs.
func NewScanShare() *ScanShare { return &ScanShare{groups: make(map[shareKey]*shareGroup)} }

// shareKey identifies one shareable scan: the file (path, size and mtime,
// so a rewrite never mixes with stale members), the materialization mode,
// the pushdown's canonical form and the block range.
type shareKey struct {
	path        string
	size, mtime int64
	codes       CodeMode
	pd          string
	lo, hi      int
}

// Subscribe joins a scan over blocks [lo, hi) of r's file under pd to its
// group of identical scans, leading a new one when none is running, or
// returns false: scan privately. Close the scanner on every path, or the
// group stalls.
func (sh *ScanShare) Subscribe(r *Reader, lo, hi int, pd *Pushdown) (*SharedScanner, bool) {
	return sh.For(r, pd)(lo, hi)
}

// For returns Subscribe bound to one input's Reader (set its Codes
// first) and pushdown, rendering the pushdown's canonical form once for
// all the input's splits; a nil registry's function declines every scan.
func (sh *ScanShare) For(r *Reader, pd *Pushdown) func(lo, hi int) (*SharedScanner, bool) {
	if sh == nil {
		return func(int, int) (*SharedScanner, bool) { return nil, false }
	}
	key := shareKey{path: r.path, size: r.fileSize, mtime: r.modTime, codes: r.Codes}
	if pd != nil {
		// Go syntax is exact: quoted strings, datum kinds and bits, nil apart
		// from empty. The field mask is a set, so it is sorted.
		fields := slices.Clone(pd.Fields)
		slices.Sort(fields)
		key.pd = fmt.Sprintf("%#v %t %#v", pd.Filter, pd.Residual, fields)
	}
	return func(lo, hi int) (*SharedScanner, bool) { return sh.subscribe(r, pd, key, lo, hi) }
}

func (sh *ScanShare) subscribe(r *Reader, pd *Pushdown, key shareKey, lo, hi int) (*SharedScanner, bool) {
	key.lo, key.hi = lo, hi
	m := &SharedScanner{r: r, pd: pd, hi: hi}
	sh.mu.Lock()
	g := sh.groups[key]
	if g == nil {
		defer sh.mu.Unlock()
		var err error
		if m.sc, err = r.ScanBatch(lo, hi, pd); err != nil || lo >= hi {
			return nil, false
		}
		m.g, m.lead = &shareGroup{sh: sh, key: key, readers: []*Reader{r}, next: lo}, true
		m.g.cond.L = &m.g.mu
		sh.groups[key] = m.g
		return m, true
	}
	sh.mu.Unlock()
	g.mu.Lock()
	if g.over || g.next-lo > max(2, (hi-lo)/2) || slices.Contains(g.readers, r) {
		g.mu.Unlock()
		return nil, false
	}
	g.readers = append(g.readers, r)
	g.followers++
	m.g, m.seq, m.from, m.to = g, g.seq, g.stats, g.stats
	m.own.Shared = true
	start := g.next
	g.mu.Unlock()
	if start > lo {
		var err error
		if m.sc, err = r.ScanBatch(lo, start, pd); err != nil {
			m.Close()
			return nil, false
		}
	}
	return m, true
}

// shareGroup is one shared physical scan in flight.
type shareGroup struct {
	sh        *ScanShare
	key       shareKey
	mu        sync.Mutex
	cond      sync.Cond      // a publication, or the leader left
	released  sync.WaitGroup // followers yet to release the publication
	readers   []*Reader      // every member's reader, leader first
	followers int
	next      int          // first block the leader has not passed
	batch     *serde.Batch // the current publication
	seq       int          // publications so far
	stats     ScanStats    // the leader's counts through next
	over      bool         // the leader left; next == hi if it finished
}

// SharedScanner is one member's scan. Each successful Next yields a batch
// valid, like any batch, only until the next call to Next; a follower's
// batch is the leader's and must not be modified.
type SharedScanner struct {
	g    *shareGroup // nil once the scan is private or over
	r    *Reader
	pd   *Pushdown
	hi   int
	lead bool
	sc   *BatchScanner // the leader's scan; a follower's catch-up or continuation
	// Guarded by g.mu: the last publication taken, and whether it is held
	// (a leader: by followers).
	seq   int
	holds bool
	// own holds the counts of the member's finished private scans and its
	// Shared flag; a follower mirrors the leader's counts from its join
	// (from) to its last take (to).
	own, from, to ScanStats
	cur           *serde.Batch
	err           error
	done          bool
}

// Next advances to the member's next batch; false at the end or on error.
func (m *SharedScanner) Next() bool {
	m.cur = nil
	switch {
	case m.done:
		return false
	case m.lead:
		return m.leadNext()
	case m.sc != nil:
		if m.sc.Next() {
			m.cur = m.sc.Batch()
			return true
		}
		if m.err = m.sc.Err(); m.err != nil || m.g == nil {
			m.Close()
			return false
		}
		m.own.add(m.sc.Stats(), 1)
		m.sc = nil // caught up
	}
	g := m.g
	g.mu.Lock()
	if m.holds {
		m.holds = false
		g.released.Done()
	}
	for g.seq == m.seq && !g.over {
		g.cond.Wait()
	}
	m.to = g.stats
	next := g.next
	took := g.seq > m.seq
	if took {
		m.seq, m.holds, m.cur = g.seq, true, g.batch
	}
	g.mu.Unlock()
	if took {
		return true
	}
	// The leader left and all it published is taken: scan the rest alone.
	m.g = nil
	if next < m.hi {
		m.sc, m.err = m.r.ScanBatch(next, m.hi, m.pd)
	}
	if m.sc == nil {
		m.done = true
		return false
	}
	return m.Next()
}

// leadNext publishes the next block once followers released the last one
// (only a publication with followers makes anyone owe a release).
func (m *SharedScanner) leadNext() bool {
	g := m.g
	if m.holds {
		g.released.Wait()
	}
	if !m.sc.Next() {
		m.err = m.sc.Err()
		m.leave(m.err == nil)
		return false
	}
	m.cur = m.sc.Batch()
	g.mu.Lock()
	g.batch, g.next, g.stats = m.cur, m.sc.blockLo, m.sc.Stats()
	g.seq++
	if m.holds = g.followers > 0; m.holds {
		g.released.Add(g.followers)
		g.cond.Broadcast()
	}
	g.mu.Unlock()
	return true
}

// leave unregisters the leader's group, so later scans lead afresh, and
// wakes its followers to finish (finished: the range is done) or go private.
func (m *SharedScanner) leave(finished bool) {
	g := m.g
	m.g, m.done = nil, true
	g.sh.mu.Lock()
	delete(g.sh.groups, g.key)
	g.sh.mu.Unlock()
	g.mu.Lock()
	if finished {
		g.next, g.stats = m.hi, m.sc.Stats()
	}
	m.own.Shared = len(g.readers) > 1 // no one joins once it is over
	g.over = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Batch returns the current batch after a successful Next.
func (m *SharedScanner) Batch() *serde.Batch { return m.cur }

// Err returns the member's own first scan error, never another member's.
func (m *SharedScanner) Err() error { return m.err }

// Stats returns the member's counts so far — a private scan's — with
// Shared set if its group ever had company. A leader's flag is final once
// it has left (at the end of its range, or Close).
func (m *SharedScanner) Stats() ScanStats {
	st := m.own
	if m.sc != nil {
		st.add(m.sc.Stats(), 1)
	}
	st.add(m.to, 1)
	st.add(m.from, -1)
	return st
}

// Close ends the membership (the engine closes iterators on all paths).
func (m *SharedScanner) Close() error {
	m.cur = nil
	if g := m.g; g != nil && m.lead {
		m.leave(false)
	} else if g != nil {
		g.mu.Lock()
		if m.holds || m.seq < g.seq {
			g.released.Done()
		}
		g.followers--
		g.mu.Unlock()
	}
	m.g, m.done = nil, true
	return nil
}
