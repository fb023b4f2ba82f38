package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"manimal/internal/durable"
)

// CacheEntry is a committed job output registered for reuse: a
// re-submitted job whose identity matches Key is served from the artifact
// without executing. The key covers everything that determines a job's
// output — the hash of each input program's canonicalized AST, each input
// file's fingerprint (path, size, mtime), the job conf, output-shape knobs
// (map-only, sorted output, reducer count), and the storage format version
// — and nothing that doesn't (job name, output path, parallelism, startup
// delay). A rewritten input changes the fingerprint and thus the key, so
// stale entries are simply never hit again (and show as STALE until
// evicted); a damaged artifact is quarantined like a corrupt index
// variant.
type CacheEntry struct {
	Key string `json:"key"`
	// Path is the cached KV artifact, <catalog dir>/cache/<Key>.kv. It is
	// derived from Key rather than persisted, so a system directory can
	// be moved with its cache.
	Path string `json:"-"`
	// SizeBytes and ModTimeNanos fingerprint the artifact at registration.
	// The artifact may share its inode with a user-visible output file
	// (it is hardlinked, not copied, where the filesystem allows), so both
	// are verified on every hit: an in-place edit through the other name
	// must not be served.
	SizeBytes    int64 `json:"size"`
	ModTimeNanos int64 `json:"mtime"`
	// Inputs are the fingerprints of every input at commit time.
	Inputs []CacheInput `json:"inputs"`
	// OutputRecords is the cached output's record count (replayed into the
	// served job's counters).
	OutputRecords int64     `json:"records"`
	CreatedAt     time.Time `json:"created"`
	// Hits counts the submissions served from this entry. It is kept in
	// memory and persisted when the catalog is closed or the cache
	// evicted; a crash loses the hits since.
	Hits int64 `json:"hits,omitempty"`
	// State and StateReason mirror Entry's: "" or StateCorrupt.
	State       string `json:"state,omitempty"`
	StateReason string `json:"reason,omitempty"`

	flushedHits int64 // Hits as last written to the index
}

// CacheInput fingerprints one file — an input of a cached job result, or
// the cached artifact itself — by path, size and mtime.
type CacheInput struct {
	Path         string `json:"path"`
	SizeBytes    int64  `json:"sizeBytes"`
	ModTimeNanos int64  `json:"modTimeNanos"`
}

// Fingerprint takes the fingerprint of the file at path as it is now.
func Fingerprint(path string) (CacheInput, error) {
	st, err := os.Stat(path)
	if err != nil {
		return CacheInput{}, err
	}
	return CacheInput{Path: path, SizeBytes: st.Size(), ModTimeNanos: st.ModTime().UnixNano()}, nil
}

// Verify reports how the file on disk differs from the fingerprint: nil
// when it is still there with the same size and mtime.
func (in CacheInput) Verify() error {
	now, err := Fingerprint(in.Path)
	if err != nil {
		return err
	}
	if now != in {
		return fmt.Errorf("%s: size or mtime changed", in.Path)
	}
	return nil
}

// Usable reports whether a submission may be served from this entry.
func (e *CacheEntry) Usable() bool { return e.State == "" }

// Fresh reports whether every input fingerprint recorded on the entry
// still matches the file on disk. A false result means the entry can never
// be hit again (the key embeds the fingerprints) and only awaits eviction.
func (e *CacheEntry) Fresh() bool {
	for _, in := range e.Inputs {
		if in.Verify() != nil {
			return false
		}
	}
	return true
}

// Record kinds of cache/index.log. The index is a durable.Log that is
// appended to and never synced: the cache is an optimization, so what a
// crash may cost is bounded at "a miss" — a lost put re-executes (its
// artifact, now unknown, is swept at the next Open), a lost quarantine is
// re-detected by the same size/mtime check at the next hit, lost hit
// counts are only statistics.
const (
	cachePut        byte = 1 // a CacheEntry: registers or replaces Key
	cacheHits       byte = 2 // {key, hits}: the count at close
	cacheQuarantine byte = 3 // {key, reason}
)

const cacheIndexName = "index.log"

type cacheNote struct {
	Key    string `json:"key"`
	Hits   int64  `json:"hits,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// resultCache is the catalog's key → entry map and its index log. It has
// its own lock: cache traffic is per submission, snapshot writes hold the
// catalog lock across an fsync.
type resultCache struct {
	dir string

	// storeMu serializes StoreCache, so identical jobs finishing together
	// cannot interleave placing the artifact and recording its mtime.
	storeMu sync.Mutex

	mu      sync.Mutex
	entries map[string]*CacheEntry
	log     *durable.Log // nil until something is stored in a system that never cached
}

// open loads the index and sweeps the cache directory of artifacts no
// entry names: a put lost with an unsynced tail, a store interrupted
// between link and append, or an older catalog's snapshot-resident rows.
func (rc *resultCache) open(dir string) error {
	rc.dir = dir
	rc.entries = make(map[string]*CacheEntry)
	des, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	for _, de := range des {
		if de.Name() == cacheIndexName {
			if err := rc.load(filepath.Join(dir, cacheIndexName)); err != nil {
				return fmt.Errorf("catalog: result-cache index: %w", err)
			}
		}
	}
	for _, de := range des {
		name := de.Name()
		key, isArtifact := strings.CutSuffix(name, ".kv")
		if isArtifact && rc.entries[key] != nil {
			continue
		}
		if _, isTemp := durable.IsTemp(name); isArtifact || isTemp {
			os.Remove(filepath.Join(dir, name))
		}
	}
	return nil
}

// load replays the index log into the map. Damage in the middle of an
// optimization's index is not worth refusing to start over: the log is cut
// back to what precedes it.
func (rc *resultCache) load(path string) error {
	log, err := durable.Open(path, rc.apply)
	var ce *durable.CorruptError
	if errors.As(err, &ce) {
		rc.entries = make(map[string]*CacheEntry)
		if err = os.Truncate(path, ce.Offset); err == nil {
			log, err = durable.Open(path, rc.apply)
		}
	}
	rc.log = log
	return err
}

// apply replays one index record into the map. A record this version
// cannot decode is skipped: at worst a miss.
func (rc *resultCache) apply(_ int64, kind byte, payload []byte) error {
	switch kind {
	case cachePut:
		e := &CacheEntry{}
		if json.Unmarshal(payload, e) == nil && e.Key != "" {
			e.Path = rc.path(e.Key)
			e.flushedHits = e.Hits
			rc.entries[e.Key] = e
		}
	case cacheHits, cacheQuarantine:
		var n cacheNote
		if json.Unmarshal(payload, &n) != nil {
			break
		}
		switch e := rc.entries[n.Key]; {
		case e == nil:
		case kind == cacheHits:
			e.Hits, e.flushedHits = n.Hits, n.Hits
		default:
			e.State, e.StateReason = StateCorrupt, n.Reason
		}
	}
	return nil
}

func (rc *resultCache) path(key string) string { return filepath.Join(rc.dir, key+".kv") }

// append writes one record to the index, creating it on first use. Callers
// hold rc.mu.
func (rc *resultCache) append(kind byte, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	if rc.log == nil {
		if err := os.MkdirAll(rc.dir, 0o755); err != nil {
			return fmt.Errorf("catalog: %w", err)
		}
		if rc.log, err = durable.Open(filepath.Join(rc.dir, cacheIndexName), nil); err != nil {
			return fmt.Errorf("catalog: result-cache index: %w", err)
		}
	}
	if _, err := rc.log.Append(kind, raw); err != nil {
		return fmt.Errorf("catalog: result-cache index: %w", err)
	}
	return nil
}

func (rc *resultCache) close() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.log == nil {
		return nil
	}
	var err error
	for _, e := range rc.entries {
		if e.Hits != e.flushedHits && err == nil {
			if err = rc.append(cacheHits, cacheNote{Key: e.Key, Hits: e.Hits}); err == nil {
				e.flushedHits = e.Hits
			}
		}
	}
	return errors.Join(err, rc.log.Close())
}

// find returns the usable entry registered under key.
func (rc *resultCache) find(key string) (CacheEntry, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if e := rc.entries[key]; e != nil && e.Usable() {
		return *e, true
	}
	return CacheEntry{}, false
}

// ServeCache places the artifact of the usable entry under key at dst (a
// hardlink where the filesystem allows, see durable.Place) and returns the
// entry, hit counted. Nothing is written: hit counts reach the index when
// the catalog is closed or the cache evicted. A damaged artifact — missing,
// or not the size and mtime it was registered with, which also catches an
// in-place edit through a served output sharing its inode — is quarantined
// and reported as a miss, so the caller executes the job (re-populating the
// cache on commit). A placement failure is a miss too: it is no evidence
// against the artifact, and executing surfaces the real error.
func (c *Catalog) ServeCache(key, dst string) (CacheEntry, bool) {
	rc := &c.cache
	e, ok := rc.find(key)
	if !ok {
		return CacheEntry{}, false
	}
	artifact := CacheInput{Path: e.Path, SizeBytes: e.SizeBytes, ModTimeNanos: e.ModTimeNanos}
	if err := artifact.Verify(); err != nil {
		rc.quarantine(key, "cached artifact "+err.Error())
		return CacheEntry{}, false
	}
	if durable.Place(e.Path, dst) != nil {
		return CacheEntry{}, false
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if live := rc.entries[key]; live != nil {
		live.Hits++
		e.Hits = live.Hits
	}
	return e, true
}

// StoreCache registers a just-committed job output under key: src —
// already fsynced by its commit — is placed in the cache directory and an
// entry with the artifact's fingerprint is appended to the index. The store
// is skipped when an input no longer matches the fingerprint captured at
// submission (the key would promise a result the current file contents
// never produced) or an identical job that finished first registered key.
func (c *Catalog) StoreCache(key, src string, inputs []CacheInput, outputRecords int64) error {
	rc := &c.cache
	for _, in := range inputs {
		if in.Verify() != nil {
			return nil
		}
	}
	rc.storeMu.Lock()
	defer rc.storeMu.Unlock()
	if _, ok := rc.find(key); ok {
		return nil
	}
	err := os.MkdirAll(rc.dir, 0o755)
	if err == nil {
		err = durable.Place(src, rc.path(key))
	}
	var artifact CacheInput
	if err == nil {
		artifact, err = Fingerprint(rc.path(key))
	}
	if err != nil {
		return fmt.Errorf("catalog: result-cache artifact: %w", err)
	}
	return rc.put(CacheEntry{
		Key:           key,
		SizeBytes:     artifact.SizeBytes,
		ModTimeNanos:  artifact.ModTimeNanos,
		Inputs:        inputs,
		OutputRecords: outputRecords,
		CreatedAt:     time.Now(),
	})
}

// put registers e under e.Key — one append to the index — replacing (and
// un-quarantining) any entry already there. The artifact must already be
// in place.
func (rc *resultCache) put(e CacheEntry) error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	e.Path = rc.path(e.Key)
	e.flushedHits = e.Hits
	if err := rc.append(cachePut, &e); err != nil {
		return err
	}
	rc.entries[e.Key] = &e
	return nil
}

// quarantine marks the entry under key CORRUPT (with a reason) so no later
// submission is served from it; the next store under the key replaces it.
// The artifact is left on disk for inspection until then.
func (rc *resultCache) quarantine(key, reason string) error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	e := rc.entries[key]
	if e == nil || e.State == StateCorrupt {
		return nil
	}
	e.State, e.StateReason = StateCorrupt, reason
	return rc.append(cacheQuarantine, cacheNote{Key: key, Reason: reason})
}

// CacheEntries returns every result-cache entry, oldest first.
func (c *Catalog) CacheEntries() []CacheEntry {
	rc := &c.cache
	rc.mu.Lock()
	out := make([]CacheEntry, 0, len(rc.entries))
	for _, e := range rc.entries {
		out = append(out, *e)
	}
	rc.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].CreatedAt.Equal(out[j].CreatedAt) {
			return out[i].CreatedAt.Before(out[j].CreatedAt)
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// EvictCache removes result-cache entries — all of them, or with staleOnly
// just those whose input fingerprints no longer match (plus quarantined
// ones) — deletes their artifacts and returns them. The index is rewritten
// as one put per survivor, hit counts included: eviction is also the log's
// compaction.
func (c *Catalog) EvictCache(staleOnly bool) ([]CacheEntry, error) {
	rc := &c.cache
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var evicted []CacheEntry
	for key, e := range rc.entries {
		if !staleOnly || !e.Usable() || !e.Fresh() {
			evicted = append(evicted, *e)
			delete(rc.entries, key)
			os.Remove(e.Path)
		}
	}
	if len(evicted) == 0 {
		return nil, nil
	}
	return evicted, rc.rewrite()
}

// rewrite replaces the index with a fresh log holding the current entries.
// It is renamed into place unsynced, like everything else about the index:
// losing the rename leaves the old log, whose evicted entries fail their
// artifact check at the next hit.
func (rc *resultCache) rewrite() error {
	w, err := durable.Create(filepath.Join(rc.dir, cacheIndexName))
	if err != nil {
		return fmt.Errorf("catalog: result-cache index: %w", err)
	}
	fresh, err := durable.Open(w.TempName(), nil)
	if err != nil {
		w.Abort()
		return fmt.Errorf("catalog: result-cache index: %w", err)
	}
	old := rc.log
	rc.log = fresh
	if old != nil {
		old.Close()
	}
	for _, e := range rc.entries {
		if err := rc.append(cachePut, e); err != nil {
			w.Abort()
			return err
		}
		e.flushedHits = e.Hits
	}
	// The log's own handle follows the file through the rename.
	f, err := w.Rename()
	if err != nil {
		return fmt.Errorf("catalog: result-cache index: %w", err)
	}
	return f.Close()
}
