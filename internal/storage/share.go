package storage

import (
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"manimal/internal/predicate"
	"manimal/internal/serde"
)

// ScanShare is the multi-query scan-sharing registry: when several
// concurrently running map tasks (typically from different jobs) scan the
// same file over the same block range, one producer goroutine performs the
// physical scan — block reads, checksums, bulk column decoding — and every
// subscriber re-selects each decoded block through its own residual filter.
//
// Equivalence argument. The producer's pushdown is the RELAXED UNION of the
// subscribers' pushdowns: the zone filter is the concatenation of every
// subscriber's DNF disjuncts (so a block the union prunes is provably
// predicate-free for each subscriber individually), and the decode-field
// set is the set union (so every column any subscriber needs is decoded).
// Each delivered block reaches each subscriber as a column-aliased Batch
// view whose selection vector is recomputed from the subscriber's OWN
// residual filter over all rows of the block — exactly the computation its
// private BatchScanner would have run — so the surviving rows, their
// decoded values, and their whole-file record indices are identical to a
// private scan's. When the deduplicated union is canonically equal to the
// subscriber's own filter (identical concurrent jobs, the common case) the
// producer's selection vector already IS that computation's result, and
// the subscriber adopts it instead of re-running the kernels. Blocks whose union selection is empty are still delivered
// (publishEmpty) because a union-empty block may admit rows under no
// subscriber yet keeps the per-subscriber accounting exact.
//
// Accounting. Blocks read, bytes read, union-skipped blocks, and own
// residual drops are attributed to each subscriber's Reader as the shared
// scan progresses, so a subscriber's ScanStats match what its private scan
// would have reported whenever its filter equals the union (identical
// concurrent jobs); with differing filters, BlocksSkipped reflects the
// union (a sound lower bound on the subscriber's own skippable set) and
// RowsFiltered absorbs the difference.
//
// Formation. A group over a file that recently saw concurrent scans (a
// subscriber collided with an existing group within hotWindow) holds its
// producer for formationWait before the first block, so a burst of
// identical jobs attaches at the range start instead of trailing the
// first arrival's scan. Files never scanned concurrently never wait.
//
// Joining. Membership changes only at block boundaries: a scan arriving
// after the group has advanced past its range start covers the
// already-published prefix with a catch-up scan, bounded by
// maxCatchupFraction; beyond that it runs fully private. Joiners held out
// by the same in-flight block land on the same prefix, so the catch-up
// scan itself subscribes to the registry (one level deep — a catch-up's
// own catch-up stays private) and a wave of simultaneous late joiners
// duplicates the missed prefix once instead of once per joiner. The
// producer reopens its scanner with the widened union at the next
// boundary, so no block is ever zone-skipped under a union that excludes
// a subscriber that was attached when the skip decision was made.
//
// Progress. Delivery is lock-step per block: the producer loads block k+1
// only after every attached subscriber has released block k (a subscriber
// releases at its next NextBatch call, honoring the batch-valid-until-next
// contract, or at Close). Subscribers are running map tasks that either
// drain their iterator or close it, so the producer always advances; a
// subscriber waiting for a publish waits only on the producer, never on
// another subscriber, so there is no wait cycle.
type ScanShare struct {
	mu     sync.Mutex
	groups map[shareKey]*shareGroup
	// hot records, per file fingerprint, when a subscriber last collided
	// with an existing group — direct evidence of concurrent scans over
	// that file. A NEW group over a recently hot file delays its producer
	// by formationWait so the rest of the cohort can attach at block 0
	// instead of trailing the scan and paying catch-up; files never
	// scanned concurrently never wait.
	hot map[hotKey]time.Time
}

// hotKey is shareKey minus the range: concurrency evidence on one split
// range predicts sharing on the file's other ranges too.
type hotKey struct {
	path        string
	size, mtime int64
}

// formationWait is the producer start delay for groups over recently hot
// files, sized to cover the scheduling spread of a burst of identical
// concurrent jobs; hotWindow is how long collision evidence predicts more
// sharing. Ranges under formationMinBytes never wait: a short scan
// finishes in the same order as the wait, so holding it cannot pay for
// itself even when sharing follows.
const (
	formationWait     = 20 * time.Millisecond
	hotWindow         = 10 * time.Second
	formationMinBytes = 32 << 20
)

// NewScanShare returns an empty registry. One registry is typically owned
// by one System, scoping sharing to the jobs of that system.
func NewScanShare() *ScanShare {
	return &ScanShare{groups: make(map[shareKey]*shareGroup), hot: make(map[hotKey]time.Time)}
}

// shareKey identifies one shareable physical scan: the file (fingerprinted
// by size and mtime so a rewrite never mixes with stale subscribers), the
// materialization mode, and the exact block range. Identical concurrent
// jobs plan identical splits, so their per-split scans collide on this key.
type shareKey struct {
	path        string
	size, mtime int64
	direct      bool
	lo, hi      int
}

// maxCatchupFraction caps a late joiner's private catch-up scan. A joiner
// pays the already-published prefix privately either way, and every block
// it then consumes shared is decode work saved, so joining is profitable
// almost regardless of the gap; what it costs the GROUP is a wider union
// (fewer skips) and lock-step coupling for the remainder. Half the range
// balances the two: past that, the residual shared benefit is too small
// to be worth widening the union for.
const maxCatchupFraction = 2

// Subscribe attaches a scan over blocks [lo, hi) of r's file to a shared
// group, creating the group (and its producer goroutine) when none exists.
// It returns (nil, false) when the scan cannot share: a non-residual
// filter (the subscriber could not re-drop union-admitted rows), an
// unfingerprintable file, or a group too far ahead to catch up.
// The returned scanner implements the batch iteration shape (Next, Batch,
// Err, Close); Close detaches from the group and MUST be called on every
// path, or the group stalls.
func (sh *ScanShare) Subscribe(r *Reader, lo, hi int, pd *Pushdown) (*SharedScanner, bool) {
	return sh.subscribe(r, lo, hi, pd, true)
}

// subscribe implements Subscribe. top marks a subscription made by a map
// task itself; a catch-up subscription (top=false) keeps its own catch-up
// private and is not counted as a shared scan of its reader, so one map
// scan contributes at most one to the shared-scan statistic.
func (sh *ScanShare) subscribe(r *Reader, lo, hi int, pd *Pushdown, top bool) (*SharedScanner, bool) {
	if sh == nil || lo >= hi {
		return nil, false
	}
	if pd != nil && pd.Filter != nil && !pd.Residual {
		// Block-skip-only filters deliver rows the subscriber cannot drop;
		// relaxing them to a union would change its output.
		return nil, false
	}
	st, err := os.Stat(r.Path())
	if err != nil {
		return nil, false
	}
	key := shareKey{
		path:   r.Path(),
		size:   st.Size(),
		mtime:  st.ModTime().UnixNano(),
		direct: r.DirectCodes,
		lo:     lo,
		hi:     hi,
	}
	hk := hotKey{path: key.path, size: key.size, mtime: key.mtime}
	sh.mu.Lock()
	g := sh.groups[key]
	if g == nil {
		g = &shareGroup{
			share:     sh,
			key:       key,
			members:   make(map[*SharedScanner]struct{}),
			nextBlock: lo,
		}
		// Catch-up groups (top=false) never wait: their cohort is already
		// assembled, and the main group stalls until they drain.
		rangeBytes := int64(0)
		if n := r.NumBlocks(); n > 0 {
			rangeBytes = int64(hi-lo) * key.size / int64(n)
		}
		if top && rangeBytes >= formationMinBytes && time.Since(sh.hot[hk]) < hotWindow {
			g.wait = formationWait
		}
		g.cond = sync.NewCond(&g.mu)
		g.mu.Lock()
		m := g.attachLocked(r, pd)
		m.aux = !top
		g.mu.Unlock()
		sh.groups[key] = g
		sh.mu.Unlock()
		go g.run()
		return m, true
	}
	// A second scan arriving while a group exists is direct evidence of
	// concurrent scans over this file; remember it so the file's next
	// groups hold their producers briefly and the cohort attaches at the
	// range start. Even a refused join below counts: it proves overlap.
	sh.hot[hk] = time.Now()
	if len(sh.hot) > 256 {
		for k, t := range sh.hot {
			if time.Since(t) >= hotWindow {
				delete(sh.hot, k)
			}
		}
	}
	sh.mu.Unlock()

	g.mu.Lock()
	// Membership changes only at block boundaries: wait out an in-flight
	// block load so the frontier is stable and every later skip decision
	// uses a union that includes this subscriber.
	for g.scanning && !g.done {
		g.cond.Wait()
	}
	if g.done {
		g.mu.Unlock()
		return nil, false
	}
	if gap := g.nextBlock - lo; gap > maxCatchup(hi-lo) {
		g.mu.Unlock()
		return nil, false
	}
	m := g.attachLocked(r, pd)
	m.aux = !top
	start := m.startBlock
	g.mu.Unlock()

	if start > lo {
		// Cover the already-published prefix with a catch-up scan under the
		// subscriber's own pushdown: same blocks, same residual, same
		// accounting as a private scan of that prefix. A wave of late
		// joiners lands on the same prefix, so first try to share the
		// catch-up itself (one level deep).
		if top {
			if nested, ok := sh.subscribe(r, lo, start, pd, false); ok {
				m.catch = nested
				return m, true
			}
		}
		catch, err := r.ScanBatch(lo, start, pd)
		if err != nil {
			m.Close()
			return nil, false
		}
		m.catch = catch
	}
	return m, true
}

func maxCatchup(span int) int {
	c := span / maxCatchupFraction
	if c < 2 {
		c = 2
	}
	return c
}

// shareGroup is one shared physical scan in flight.
type shareGroup struct {
	share *ScanShare
	key   shareKey
	wait  time.Duration // producer start delay (formation window)

	mu      sync.Mutex
	cond    *sync.Cond
	members map[*SharedScanner]struct{}
	// filters collects the pushdowns of every subscriber ever attached;
	// keeping detached members' filters only widens the union (sound) and
	// spares re-deriving it on every leave.
	filters []*Pushdown
	dirty   bool // membership widened since the scanner was (re)opened
	// scanning marks an in-flight block load (producer outside the lock);
	// joins wait it out so skip decisions never outrun membership.
	scanning    bool
	nextBlock   int
	cur         *publishedBlock
	pending     int // subscribers that still owe a release of cur
	tailSkipped int64
	done        bool
	err         error
	peak        int // high-water subscriber count
}

// publishedBlock is one decoded block broadcast to the subscribers, with
// the producer-side read accounting each subscriber mirrors onto its own
// reader.
type publishedBlock struct {
	batch   *serde.Batch
	index   int
	skipped int64  // blocks union-zone-skipped since the previous publish
	bytes   int64  // payload bytes read for this block
	fkey    string // filterKey of the union filter whose selection batch carries
}

// attachLocked registers a new subscriber at the current frontier. Caller
// holds g.mu.
func (g *shareGroup) attachLocked(r *Reader, pd *Pushdown) *SharedScanner {
	m := &SharedScanner{g: g, r: r, startBlock: g.nextBlock}
	if pd != nil && pd.Filter != nil && pd.Residual {
		rf := r.compileFilter(pd.Filter, true)
		m.rowFilter = &rf
		m.fkey = filterKey(pd.Filter)
	}
	g.members[m] = struct{}{}
	g.filters = append(g.filters, pd)
	g.dirty = true
	if len(g.members) > g.peak {
		g.peak = len(g.members)
	}
	return m
}

// releaseLocked returns one owed hold on the current block; the producer
// resumes once every owing subscriber has released. Caller holds g.mu.
func (g *shareGroup) releaseLocked() {
	g.pending--
	if g.pending <= 0 {
		g.cond.Broadcast()
	}
}

// finishLocked terminates the group (err nil means clean end or abandoned)
// and unregisters it so later Subscribes start fresh. Caller holds g.mu;
// the registry delete runs outside it to keep the sh.mu → g.mu lock order.
func (g *shareGroup) finishLocked(err error) {
	if g.done {
		return
	}
	g.done = true
	g.err = err
	g.cond.Broadcast()
	go func() {
		g.share.mu.Lock()
		if g.share.groups[g.key] == g {
			delete(g.share.groups, g.key)
		}
		g.share.mu.Unlock()
	}()
}

// conjunctKey renders one zone conjunct canonically, for disjunct
// deduplication and filter-equality tests.
func conjunctKey(c predicate.ZoneConjunct) string {
	var b strings.Builder
	for i, fi := range c {
		if i > 0 {
			b.WriteString(" AND ")
		}
		b.WriteString(fi.Field)
		b.WriteString(" in ")
		b.WriteString(fi.Iv.String())
	}
	return b.String()
}

// filterKey renders a zone filter canonically (disjunct order preserved).
// Two filters with equal keys select exactly the same rows of any block,
// which is what lets a subscriber adopt the producer's selection vector.
func filterKey(f predicate.ZoneFilter) string {
	var b strings.Builder
	for i, c := range f {
		if i > 0 {
			b.WriteString(" OR ")
		}
		b.WriteString("(")
		b.WriteString(conjunctKey(c))
		b.WriteString(")")
	}
	return b.String()
}

// unionPushdown relaxes the subscribers' pushdowns to admit every one of
// them: zone-filter disjuncts concatenate (DNF union — a block the union
// prunes satisfies no subscriber's filter) and decode-field sets union.
// Duplicate disjuncts collapse, so N identical subscribers (the common
// multi-query shape) produce exactly their shared filter — the producer
// then evaluates it once per row instead of N times, and the equality also
// lets every subscriber adopt the producer's selection verbatim. A
// subscriber without a filter forces a full scan; one without a field mask
// forces full decoding. Residual selection stays on so the producer's
// decode mask always covers the filters' fields.
func unionPushdown(pds []*Pushdown) *Pushdown {
	haveFilter, haveFields := true, true
	var filter predicate.ZoneFilter
	seen := make(map[string]bool)
	fields := make(map[string]bool)
	for _, pd := range pds {
		if pd == nil {
			return nil
		}
		if pd.Filter == nil {
			haveFilter = false
		} else {
			for _, c := range pd.Filter {
				if k := conjunctKey(c); !seen[k] {
					seen[k] = true
					filter = append(filter, c)
				}
			}
		}
		if pd.Fields == nil {
			haveFields = false
		} else {
			for _, f := range pd.Fields {
				fields[f] = true
			}
		}
	}
	u := &Pushdown{}
	if haveFilter {
		u.Filter = filter
		u.Residual = true
	}
	if haveFields {
		u.Fields = make([]string, 0, len(fields))
		for f := range fields {
			u.Fields = append(u.Fields, f)
		}
		sort.Strings(u.Fields)
	}
	if u.Filter == nil && u.Fields == nil {
		return nil
	}
	return u
}

// run is the producer: it owns a private Reader over the group's file and
// drives one BatchScanner under the union pushdown, publishing every
// non-skipped block in lock step and reopening the scanner at a block
// boundary whenever membership widened the union.
func (g *shareGroup) run() {
	if g.wait > 0 {
		// Formation window: hold the scan so the burst of concurrent jobs
		// this file has been seeing can all attach before block 0.
		time.Sleep(g.wait)
	}
	r, err := Open(g.key.path)
	if err != nil {
		g.mu.Lock()
		g.finishLocked(err)
		g.mu.Unlock()
		return
	}
	r.DirectCodes = g.key.direct
	defer r.Close()

	var (
		sc          *BatchScanner
		scFkey      string
		prevSkipped int64
		prevBytes   int64
	)
	for {
		g.mu.Lock()
		for g.pending > 0 {
			g.cond.Wait()
		}
		if len(g.members) == 0 || g.nextBlock >= g.key.hi {
			g.finishLocked(nil)
			g.mu.Unlock()
			return
		}
		if sc == nil || g.dirty {
			pd := unionPushdown(g.filters)
			g.dirty = false
			start := g.nextBlock
			g.mu.Unlock()
			scFkey = ""
			if pd != nil && pd.Filter != nil {
				scFkey = filterKey(pd.Filter)
			}
			sc, err = r.ScanBatch(start, g.key.hi, pd)
			if err != nil {
				g.mu.Lock()
				g.finishLocked(err)
				g.mu.Unlock()
				return
			}
			sc.publishEmpty = true
			prevSkipped = r.blocksSkipped.Load()
			prevBytes = r.bytesRead.Load()
			g.mu.Lock()
		}
		g.scanning = true
		g.mu.Unlock()

		ok := sc.Next()
		skipDelta := r.blocksSkipped.Load() - prevSkipped
		byteDelta := r.bytesRead.Load() - prevBytes
		prevSkipped += skipDelta
		prevBytes += byteDelta

		g.mu.Lock()
		g.scanning = false
		if !ok {
			// Range exhausted (any trailing blocks were union-skipped) or
			// scan error; either way the group is over.
			g.tailSkipped += skipDelta
			g.nextBlock = g.key.hi
			g.finishLocked(sc.Err())
			g.mu.Unlock()
			return
		}
		bi := sc.BlockIndex()
		g.cur = &publishedBlock{batch: sc.Batch(), index: bi, skipped: skipDelta, bytes: byteDelta, fkey: scFkey}
		g.nextBlock = bi + 1
		g.pending = 0
		for m := range g.members {
			// Later joiners (startBlock past this block) cover it in their
			// catch-up scan instead.
			if m.startBlock <= bi {
				m.owes, m.taken = true, false
				g.pending++
			}
		}
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}

// blockIter is the batch iteration shape a catch-up scan serves: a private
// BatchScanner, or a nested SharedScanner when the prefix is shared with
// other late joiners.
type blockIter interface {
	Next() bool
	Batch() *serde.Batch
	Err() error
}

// SharedScanner is one subscriber's view of a shared physical scan. It
// serves the same batch iteration shape as a private BatchScanner: each
// successful Next yields a Batch whose columns alias the producer's decoded
// block and whose selection vector is this subscriber's own residual
// filter's — valid, like any batch, only until the next call to Next.
type SharedScanner struct {
	g         *shareGroup
	r         *Reader
	rowFilter *compiledFilter // own residual, compiled against r
	fkey      string          // filterKey of the own residual (adoption test)
	catch     blockIter       // catch-up over [lo, startBlock), shared or private
	aux       bool            // catch-up subscription: not a shared scan of its own

	startBlock int
	view       serde.Batch
	mask, tmp  []bool
	cur        *serde.Batch
	err        error
	closed     bool

	// Publish protocol state, guarded by g.mu: owes means this subscriber
	// was counted in the current block's pending set; taken means it has
	// consumed the block (and releases at its next Next or at Close).
	owes, taken bool
}

// Next advances to the next block of the subscriber's range, returning
// false at the end or on error (check Err). Blocks before the join point
// come from the private catch-up scan; the rest are shared publications.
func (m *SharedScanner) Next() bool {
	if m.err != nil || m.closed {
		return false
	}
	m.cur = nil
	if m.catch != nil {
		if m.catch.Next() {
			m.cur = m.catch.Batch()
			return true
		}
		if err := m.catch.Err(); err != nil {
			m.err = err
			m.Close()
			return false
		}
		m.catch = nil
	}
	g := m.g
	g.mu.Lock()
	if m.owes && m.taken {
		m.owes = false
		g.releaseLocked()
	}
	for {
		if m.owes && !m.taken {
			break
		}
		if g.done {
			m.detachLocked()
			err := g.err
			g.mu.Unlock()
			if err != nil {
				m.err = err
				return false
			}
			m.closed = true
			return false
		}
		g.cond.Wait()
	}
	m.taken = true
	blk := g.cur
	g.mu.Unlock()

	// Mirror the producer's physical-read accounting onto this
	// subscriber's reader: every skip since the last publish happened at
	// or past this subscriber's start (membership changes only at block
	// boundaries), so the attribution matches a private scan of its range.
	m.r.blocksRead.Add(1)
	m.r.bytesRead.Add(blk.bytes)
	m.r.AddBlocksSkipped(blk.skipped)

	m.view.AliasColumns(blk.batch)
	if m.fkey != "" && m.fkey == blk.fkey {
		// The producer applied exactly this subscriber's filter (identical
		// concurrent jobs collapse to it under union dedup), so its
		// selection vector IS the residual's result: adopt it instead of
		// re-running the kernels over the block.
		m.view.SetSel(blk.batch.Sel())
	} else {
		m.mask, m.tmp = applyFilterSel(m.rowFilter, blk.batch, &m.view, m.mask, m.tmp)
	}
	if dropped := int64(blk.batch.Len() - len(m.view.Sel())); dropped > 0 {
		m.r.rowsFiltered.Add(dropped)
	}
	m.cur = &m.view
	return true
}

// Batch returns the current block view after a successful Next; reused —
// valid only until the next call to Next.
func (m *SharedScanner) Batch() *serde.Batch { return m.cur }

// Err returns the first error encountered (the producer's scan error, or a
// catch-up scan error).
func (m *SharedScanner) Err() error { return m.err }

// detachLocked removes the subscriber from the group, releasing any owed
// hold, and settles end-of-scan accounting: trailing union-skipped blocks,
// and the shared-scan counter when the group ever had company. Caller
// holds g.mu.
func (m *SharedScanner) detachLocked() {
	if _, ok := m.g.members[m]; !ok {
		return
	}
	delete(m.g.members, m)
	if m.owes {
		m.owes = false
		m.g.releaseLocked()
	}
	if m.g.done {
		m.r.AddBlocksSkipped(m.g.tailSkipped)
	}
	if m.g.peak >= 2 && !m.aux {
		m.r.sharedScans.Add(1)
	}
	m.g.cond.Broadcast()
}

// Close detaches from the group. Every Subscribe must be Closed (the
// engine closes batch iterators on all paths); an unreleased subscriber
// would stall the whole group.
func (m *SharedScanner) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	m.cur = nil
	if c, ok := m.catch.(*SharedScanner); ok {
		// A nested catch-up subscription must detach from its group too, or
		// it would stall the other catch-up members.
		c.Close()
	}
	m.catch = nil
	m.g.mu.Lock()
	m.detachLocked()
	m.g.mu.Unlock()
	return nil
}
