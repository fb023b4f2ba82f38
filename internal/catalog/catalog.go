// Package catalog is Manimal's persistent index catalog (paper Figure 1):
// it records, for each input file, the index files that index-generation
// programs have produced, so the optimizer can choose an execution plan.
// Entries are stored as a JSON file in the catalog directory, mirroring the
// "filesystem catalog" of the paper.
package catalog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Index kinds.
const (
	KindBTree      = "btree"      // clustered B+Tree selection index (single file)
	KindRecordFile = "recordfile" // re-encoded record file (projection/compression)
	// KindBTreeSharded is a sharded B+Tree selection index: IndexPath is a
	// shard manifest (ordered shard files plus key boundaries) that package
	// btree opens as one logical tree.
	KindBTreeSharded = "btree-shards"
	// KindResultCache is a committed job output registered for reuse:
	// IndexPath is the cached KV artifact, CacheKey the identity under
	// which a re-submitted job is served from it without executing. The
	// key covers everything that determines a job's output — the hash of
	// each input program's canonicalized AST, each input file's
	// fingerprint (path, size, mtime), the job conf, output-shape knobs
	// (map-only, sorted output, reducer count), and the storage format
	// version — and nothing that doesn't (job name, output path,
	// parallelism, startup delay). A rewritten input changes the
	// fingerprint and thus the key, so stale entries are simply never hit
	// again (and show as STALE until evicted); a damaged artifact is
	// quarantined through the same CORRUPT path as index variants.
	KindResultCache = "result-cache"
)

// Entry describes one index built over an input file.
type Entry struct {
	// InputPath is the original data file the index derives from.
	InputPath string `json:"input"`
	// IndexPath is the index file (or shard manifest for KindBTreeSharded).
	IndexPath string `json:"index"`
	// Kind is KindBTree, KindBTreeSharded, or KindRecordFile.
	Kind string `json:"kind"`
	// KeyExpr is the canonical key expression (B+Tree kinds only).
	KeyExpr string `json:"keyExpr,omitempty"`
	// Shards is the shard count (KindBTreeSharded only).
	Shards int `json:"shards,omitempty"`
	// Fields are the stored field names (projection subset, or the full
	// schema when no projection was applied).
	Fields []string `json:"fields"`
	// Encodings maps field name -> "plain"|"delta"|"dict" for record files.
	Encodings map[string]string `json:"encodings,omitempty"`
	// SizeBytes is the index file size, for space-overhead reporting.
	SizeBytes int64 `json:"sizeBytes"`
	// BuildDuration records index construction cost.
	BuildDuration time.Duration `json:"buildNanos"`
	// CreatedAt is the build timestamp.
	CreatedAt time.Time `json:"createdAt"`
	// InputSizeBytes and InputModTimeNanos fingerprint the input file at
	// build time. The optimizer refuses entries whose fingerprint no longer
	// matches the input: a rewritten input would otherwise silently serve
	// results from the stale index. Zero values mean "not recorded".
	InputSizeBytes    int64 `json:"inputSizeBytes,omitempty"`
	InputModTimeNanos int64 `json:"inputModTimeNanos,omitempty"`
	// StatsVersion is the record-file format version the variant was
	// written with (storage.FormatVersion at build time; record files
	// only). Anything older than the current version — 0 marks entries
	// built before the field existed — names a file storage.Open now
	// refuses with ErrUnsupportedFormat; `manimal catalog` flags it.
	StatsVersion int `json:"statsVersion,omitempty"`
	// State marks unusable variants: "" (healthy) or StateCorrupt, set when
	// a scan hit a checksum/decode failure in the index file. The optimizer
	// never plans over a non-healthy entry; the file stays on disk for
	// inspection until the entry is Removed or rebuilt (Add replaces it,
	// clearing the state).
	State string `json:"state,omitempty"`
	// StateReason records why the state was set (e.g. the corrupt-block
	// error text), for `manimal catalog` display.
	StateReason string `json:"stateReason,omitempty"`
	// Result-cache fields (KindResultCache only): the cache key the entry
	// is served under, the fingerprints of every input at commit time
	// (multi-input jobs record all of them; InputSizeBytes/InputModTimeNanos
	// above carry the first for the shared staleness display), the number
	// of times a submission was served from this entry, and the cached
	// output's record count (replayed into the served job's counters).
	CacheKey      string       `json:"cacheKey,omitempty"`
	CacheInputs   []CacheInput `json:"cacheInputs,omitempty"`
	Hits          int64        `json:"hits,omitempty"`
	OutputRecords int64        `json:"outputRecords,omitempty"`
}

// CacheInput fingerprints one input file of a cached job result.
type CacheInput struct {
	Path         string `json:"path"`
	SizeBytes    int64  `json:"sizeBytes"`
	ModTimeNanos int64  `json:"modTimeNanos"`
}

// StateCorrupt marks an entry quarantined after a corruption detection.
const StateCorrupt = "CORRUPT"

// Usable reports whether the optimizer may plan over this entry.
func (e *Entry) Usable() bool { return e.State == "" }

// MatchesInput reports whether the entry's recorded input fingerprint
// still matches the given file stats; entries without a fingerprint match
// anything (older catalogs).
func (e *Entry) MatchesInput(sizeBytes, modTimeNanos int64) bool {
	if e.InputSizeBytes == 0 && e.InputModTimeNanos == 0 {
		return true
	}
	return e.InputSizeBytes == sizeBytes && e.InputModTimeNanos == modTimeNanos
}

// HasField reports whether the entry stores the named field.
func (e *Entry) HasField(name string) bool {
	for _, f := range e.Fields {
		if f == name {
			return true
		}
	}
	return false
}

// CoversFields reports whether the entry stores every named field.
func (e *Entry) CoversFields(names []string) bool {
	for _, n := range names {
		if !e.HasField(n) {
			return false
		}
	}
	return true
}

// Catalog is a concurrency-safe persistent entry store.
type Catalog struct {
	mu      sync.Mutex
	path    string
	entries []Entry
}

const fileName = "manimal-catalog.json"

// Open loads (or initializes) the catalog in the given directory.
func Open(dir string) (*Catalog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	c := &Catalog{path: filepath.Join(dir, fileName)}
	raw, err := os.ReadFile(c.path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	if err := json.Unmarshal(raw, &c.entries); err != nil {
		return nil, fmt.Errorf("catalog: corrupt %s: %w", c.path, err)
	}
	return c, nil
}

// Add registers an entry and persists the catalog. A prior entry with the
// same IndexPath is replaced.
func (c *Catalog) Add(e Entry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := c.entries[:0]
	for _, old := range c.entries {
		if old.IndexPath != e.IndexPath {
			kept = append(kept, old)
		}
	}
	c.entries = append(kept, e)
	return c.save()
}

// Remove drops the entry with the given index path, if present.
func (c *Catalog) Remove(indexPath string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := c.entries[:0]
	for _, old := range c.entries {
		if old.IndexPath != indexPath {
			kept = append(kept, old)
		}
	}
	c.entries = kept
	return c.save()
}

// Quarantine marks the entry with the given index path as CORRUPT (with a
// reason) and persists the catalog, so no later planning round selects the
// damaged variant. Quarantining an unknown path is a no-op. The index file
// itself is left on disk for inspection.
func (c *Catalog) Quarantine(indexPath, reason string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	changed := false
	for i := range c.entries {
		if c.entries[i].IndexPath == indexPath && c.entries[i].State != StateCorrupt {
			c.entries[i].State = StateCorrupt
			c.entries[i].StateReason = reason
			changed = true
		}
	}
	if !changed {
		return nil
	}
	return c.save()
}

// ForInput returns the entries built over the given input file, most
// recent first.
func (c *Catalog) ForInput(inputPath string) []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Entry
	for _, e := range c.entries {
		if e.InputPath == inputPath {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CreatedAt.After(out[j].CreatedAt) })
	return out
}

// All returns every entry.
func (c *Catalog) All() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Entry(nil), c.entries...)
}

// CacheFresh reports whether every input fingerprint recorded on a
// result-cache entry still matches the file on disk. A false result means
// the entry can never be hit again (the key embeds the fingerprints) and
// only awaits eviction.
func (e *Entry) CacheFresh() bool {
	for _, in := range e.CacheInputs {
		st, err := os.Stat(in.Path)
		if err != nil || st.Size() != in.SizeBytes || st.ModTime().UnixNano() != in.ModTimeNanos {
			return false
		}
	}
	return true
}

// FindCache returns the usable result-cache entry registered under key.
func (c *Catalog) FindCache(key string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.entries) - 1; i >= 0; i-- {
		e := c.entries[i]
		if e.Kind == KindResultCache && e.CacheKey == key && e.Usable() {
			return e, true
		}
	}
	return Entry{}, false
}

// TouchCache increments the hit count of the entry registered under key
// and persists the catalog.
func (c *Catalog) TouchCache(key string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.entries {
		if c.entries[i].Kind == KindResultCache && c.entries[i].CacheKey == key {
			c.entries[i].Hits++
			return c.save()
		}
	}
	return nil
}

// EvictCache removes result-cache entries — all of them, or with staleOnly
// just those whose input fingerprints no longer match (plus quarantined
// ones) — and returns the removed entries so the caller can delete their
// artifact files.
func (c *Catalog) EvictCache(staleOnly bool) ([]Entry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var evicted []Entry
	kept := c.entries[:0]
	for _, e := range c.entries {
		if e.Kind == KindResultCache && (!staleOnly || !e.Usable() || !e.CacheFresh()) {
			evicted = append(evicted, e)
			continue
		}
		kept = append(kept, e)
	}
	c.entries = kept
	if len(evicted) == 0 {
		return nil, nil
	}
	return evicted, c.save()
}

// save persists atomically: temp file, fsync, rename, parent-dir fsync —
// a crash mid-save leaves either the old catalog or the new one, never a
// torn JSON file.
func (c *Catalog) save() error {
	raw, err := json.MarshalIndent(c.entries, "", "  ")
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	dir := filepath.Dir(c.path)
	f, err := os.CreateTemp(dir, fileName+".tmp-*")
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("catalog: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("catalog: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("catalog: %w", err)
	}
	if err := os.Rename(f.Name(), c.path); err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("catalog: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
