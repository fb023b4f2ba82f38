// Package catalog is Manimal's persistent index catalog (paper Figure 1):
// it records, for each input file, the index files that index-generation
// programs have produced, so the optimizer can choose an execution plan.
// Entries are stored as a JSON file in the catalog directory, mirroring the
// "filesystem catalog" of the paper. That snapshot is rewritten, fsynced
// and renamed into place whenever an index is built, removed or
// quarantined — rare, administrator-paced events.
//
// The catalog also owns the result cache's index (cache.go): a key → entry
// map persisted as appends to <dir>/cache/index.log, so the per-submission
// traffic of stores and hits never touches the snapshot.
package catalog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"manimal/internal/durable"
)

// Index kinds.
const (
	KindBTree      = "btree"      // clustered B+Tree selection index (single file)
	KindRecordFile = "recordfile" // re-encoded record file (projection/compression)
	// KindBTreeSharded is a sharded B+Tree selection index: IndexPath is a
	// shard manifest (ordered shard files plus key boundaries) that package
	// btree opens as one logical tree.
	KindBTreeSharded = "btree-shards"
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

	cache resultCache
}

const fileName = "manimal-catalog.json"

// legacyKindResultCache marks the result-cache rows older catalogs kept in
// the snapshot. Open drops them — the next snapshot write is without them —
// and their artifacts, unknown to the cache index, are swept as orphans.
const legacyKindResultCache = "result-cache"

// Open loads (or initializes) the catalog in the given directory, and the
// result-cache index beside it.
func Open(dir string) (*Catalog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	c := &Catalog{path: filepath.Join(dir, fileName)}
	raw, err := os.ReadFile(c.path)
	switch {
	case os.IsNotExist(err):
	case err != nil:
		return nil, fmt.Errorf("catalog: %w", err)
	default:
		if err := json.Unmarshal(raw, &c.entries); err != nil {
			return nil, fmt.Errorf("catalog: corrupt %s: %w", c.path, err)
		}
		kept := c.entries[:0]
		for _, e := range c.entries {
			if e.Kind != legacyKindResultCache {
				kept = append(kept, e)
			}
		}
		c.entries = kept
	}
	if err := c.cache.open(filepath.Join(dir, "cache")); err != nil {
		return nil, err
	}
	return c, nil
}

// Close flushes the result cache's hit counts and releases its index file.
// The index snapshot needs no closing: every change to it is already on
// disk.
func (c *Catalog) Close() error { return c.cache.close() }

// Add registers an entry and persists the catalog. A prior entry with the
// same IndexPath is replaced.
func (c *Catalog) Add(e Entry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.commit(append(c.without(e.IndexPath), e))
}

// Remove drops the entry with the given index path, if present.
func (c *Catalog) Remove(indexPath string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.commit(c.without(indexPath))
}

// without copies the entries, leaving out the one with the given index
// path. Mutations build a copy so that a failed commit changes nothing.
func (c *Catalog) without(indexPath string) []Entry {
	kept := make([]Entry, 0, len(c.entries)+1)
	for _, old := range c.entries {
		if old.IndexPath != indexPath {
			kept = append(kept, old)
		}
	}
	return kept
}

// Quarantine marks the entry with the given index path as CORRUPT (with a
// reason) and persists the catalog, so no later planning round selects the
// damaged variant. Quarantining an unknown path is a no-op. The index file
// itself is left on disk for inspection.
func (c *Catalog) Quarantine(indexPath, reason string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	entries := append([]Entry(nil), c.entries...)
	changed := false
	for i := range entries {
		if entries[i].IndexPath == indexPath && entries[i].State != StateCorrupt {
			entries[i].State = StateCorrupt
			entries[i].StateReason = reason
			changed = true
		}
	}
	if !changed {
		return nil
	}
	return c.commit(entries)
}

// ForInput returns the index variants built over the given input file,
// most recent first.
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

// All returns every index entry.
func (c *Catalog) All() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Entry(nil), c.entries...)
}

// commit persists entries as the new snapshot — atomically (temp file,
// fsync, rename, parent-dir fsync: a crash mid-save leaves the old catalog
// or the new one, never a torn JSON file) — and only then makes them the
// catalog, so memory never holds an entry the disk did not get.
func (c *Catalog) commit(entries []Entry) error {
	raw, err := json.MarshalIndent(entries, "", "  ")
	if err == nil {
		err = durable.WriteFile(c.path, raw)
	}
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	c.entries = entries
	return nil
}
