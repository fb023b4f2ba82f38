package mapreduce

import (
	"sort"
	"sync"
)

// Standard counter names maintained by the engine. User programs add their
// own via ctx.Counter.
const (
	CtrMapInputRecords    = "map.input.records"
	CtrMapOutputRecords   = "map.output.records"
	CtrMapOutputBytes     = "map.output.bytes" // intermediate data size
	CtrInputBytesRead     = "input.bytes.read"
	CtrSpills             = "shuffle.spills"
	CtrReduceInputGroups  = "reduce.input.groups"
	CtrReduceInputRecords = "reduce.input.records"
	CtrOutputRecords      = "output.records"
	CtrMapTasks           = "map.tasks"
	CtrReduceTasks        = "reduce.tasks"
	// Zone-map pruning effect (record-file inputs with a scan pushdown):
	// storage blocks whose payload was read vs skipped without I/O, and
	// rows the residual filter dropped before the interpreter ran.
	CtrBlocksRead    = "manimal.blocks.read"
	CtrBlocksSkipped = "manimal.blocks.skipped"
	CtrRowsFiltered  = "manimal.rows.prefiltered"
	// Fault-tolerance counters: task attempts relaunched after a transient
	// failure, duplicate (speculative) attempts launched for stragglers,
	// and storage blocks that failed checksum/decode verification.
	CtrTasksRetried     = "manimal.tasks.retried"
	CtrTasksSpeculative = "manimal.tasks.speculative"
	CtrCorruptBlocks    = "manimal.tasks.corrupt_blocks"
	// Multi-query optimization counters: submissions served from (or denied
	// by) the result cache, and map-task scans that rode a shared physical
	// scan with at least one other in-flight subscriber.
	CtrCacheHits   = "manimal.cache.hits"
	CtrCacheMisses = "manimal.cache.misses"
	CtrScansShared = "manimal.scans.shared"
)

// Counters is a concurrency-safe named counter set. Every accessor copies
// out of (or mutates under) one mutex — the map itself is never exposed —
// so progress reporters may call Snapshot, Get, or Names at any moment
// while tasks are still adding batched increments from other goroutines.
// Tasks batch their hot-path counts locally and flush them in chunks (see
// counterFlushEvery), so a mid-job snapshot is a consistent recent view,
// not an exact instantaneous one.
type Counters struct {
	mu sync.Mutex
	m  map[string]int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{m: make(map[string]int64)} }

// Add increments a counter by delta.
func (c *Counters) Add(name string, delta int64) {
	c.mu.Lock()
	c.m[name] += delta
	c.mu.Unlock()
}

// Get returns a counter's value (0 when never written).
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Names returns all counter names, sorted.
func (c *Counters) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.m))
	for n := range c.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot copies all counters into a plain map owned by the caller. It
// is the accessor live status reads use mid-job, while tasks concurrently
// batch increments into the set.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}
