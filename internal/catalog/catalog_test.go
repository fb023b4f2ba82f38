package catalog

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"manimal/internal/durable"
)

func TestAddPersistReload(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e1 := Entry{
		InputPath: "data.rec", IndexPath: "data.idx0", Kind: KindBTree,
		KeyExpr: `v.Int("rank")`, Fields: []string{"url", "rank"},
		SizeBytes: 1234, CreatedAt: time.Now(),
	}
	e2 := Entry{
		InputPath: "data.rec", IndexPath: "data.idx1", Kind: KindRecordFile,
		Fields:    []string{"url"},
		Encodings: map[string]string{"url": "dict"},
		CreatedAt: time.Now().Add(time.Second),
	}
	if err := c.Add(e1); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(e2); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := reopened.ForInput("data.rec")
	if len(got) != 2 {
		t.Fatalf("entries = %d", len(got))
	}
	// Most recent first.
	if got[0].IndexPath != "data.idx1" {
		t.Errorf("order: %v", got)
	}
	if got[1].KeyExpr != `v.Int("rank")` {
		t.Errorf("key expr lost: %+v", got[1])
	}
	if got[0].Encodings["url"] != "dict" {
		t.Errorf("encodings lost: %+v", got[0])
	}
	if reopened.ForInput("other.rec") != nil {
		t.Error("phantom entries")
	}
}

func TestAddReplacesSameIndexPath(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(Entry{InputPath: "a", IndexPath: "x", SizeBytes: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(Entry{InputPath: "a", IndexPath: "x", SizeBytes: 2}); err != nil {
		t.Fatal(err)
	}
	got := c.ForInput("a")
	if len(got) != 1 || got[0].SizeBytes != 2 {
		t.Fatalf("entries = %+v", got)
	}
}

func TestRemove(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.Add(Entry{InputPath: "a", IndexPath: "x"})
	c.Add(Entry{InputPath: "a", IndexPath: "y"})
	if err := c.Remove("x"); err != nil {
		t.Fatal(err)
	}
	if got := c.ForInput("a"); len(got) != 1 || got[0].IndexPath != "y" {
		t.Fatalf("entries = %+v", got)
	}
	if err := c.Remove("never-existed"); err != nil {
		t.Fatal(err)
	}
}

func TestCoversFields(t *testing.T) {
	e := Entry{Fields: []string{"a", "b"}}
	if !e.CoversFields([]string{"a"}) || !e.CoversFields([]string{"a", "b"}) {
		t.Error("coverage false negative")
	}
	if e.CoversFields([]string{"a", "c"}) {
		t.Error("coverage false positive")
	}
	if !e.CoversFields(nil) {
		t.Error("empty requirement not covered")
	}
}

// artifact places a stand-in cache artifact for key and returns the entry
// that registers it.
func artifact(t testing.TB, c *Catalog, key string) CacheEntry {
	t.Helper()
	path := c.cache.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("kv:"+key), 0o644); err != nil {
		t.Fatal(err)
	}
	fp, err := Fingerprint(path)
	if err != nil {
		t.Fatal(err)
	}
	return CacheEntry{Key: key, SizeBytes: fp.SizeBytes, ModTimeNanos: fp.ModTimeNanos, OutputRecords: 7,
		Inputs:    []CacheInput{{Path: "data.rec", SizeBytes: 10, ModTimeNanos: 20}},
		CreatedAt: time.Now()}
}

// TestCacheIndexLifecycle: stores, hits and quarantines live in the cache
// index, survive a clean restart (hit counts through Close), and eviction
// compacts the log.
func TestCacheIndexLifecycle(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"aa", "bb", "cc"} {
		if err := c.cache.put(artifact(t, c, key)); err != nil {
			t.Fatal(err)
		}
	}
	if e, ok := c.cache.find("bb"); !ok || e.Path != c.cache.path("bb") || e.OutputRecords != 7 {
		t.Fatalf("find(bb) = %+v, %v", e, ok)
	}
	if _, ok := c.cache.find("zz"); ok {
		t.Fatal("find of an unknown key hit")
	}
	served := filepath.Join(dir, "served.kv")
	c.ServeCache("bb", served)
	if e, ok := c.ServeCache("bb", served); !ok || e.Hits != 2 {
		t.Fatalf("second hit = %+v, %v", e, ok)
	}
	if raw, _ := os.ReadFile(served); string(raw) != "kv:bb" {
		t.Fatalf("served output = %q", raw)
	}
	if err := c.cache.quarantine("cc", "size mismatch"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.cache.find("cc"); ok {
		t.Fatal("quarantined entry still served")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := c.CacheEntries()
	if len(got) != 3 || got[0].Key != "aa" || got[1].Hits != 2 || got[2].State != StateCorrupt || got[2].StateReason != "size mismatch" {
		t.Fatalf("entries after restart = %+v", got)
	}
	// A store under a quarantined key replaces the entry.
	if err := c.cache.put(artifact(t, c, "cc")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.cache.find("cc"); !ok {
		t.Fatal("re-stored entry not served")
	}

	// The inputs do not exist, so every entry is stale; eviction returns
	// them all and rewrites the index to nothing but its header.
	evicted, err := c.EvictCache(true)
	if err != nil || len(evicted) != 3 {
		t.Fatalf("EvictCache = %d entries, %v", len(evicted), err)
	}
	if st, err := os.Stat(filepath.Join(dir, "cache", cacheIndexName)); err != nil || st.Size() > 16 {
		t.Fatalf("index after full eviction: %v bytes, %v", st.Size(), err)
	}
	if err := c.cache.put(artifact(t, c, "dd")); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if c, err = Open(dir); err != nil || len(c.CacheEntries()) != 1 {
		t.Fatalf("entries after evict + store + restart = %+v, %v", c.CacheEntries(), err)
	}
}

// TestCacheIndexCrashShapes: what a crash can leave behind is, at worst, a
// miss. A lost (torn) index tail forgets the last store and its now-orphan
// artifact is swept; mid-log damage keeps the entries before it; temp
// debris goes; an artifact the index knows stays.
func TestCacheIndexCrashShapes(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	index := filepath.Join(dir, "cache", cacheIndexName)
	var ends []int64
	for _, key := range []string{"aa", "bb", "cc"} {
		if err := c.cache.put(artifact(t, c, key)); err != nil {
			t.Fatal(err)
		}
		st, _ := os.Stat(index)
		ends = append(ends, st.Size())
	}
	debris := c.cache.path("bb") + ".tmp-1234"
	os.WriteFile(debris, []byte("x"), 0o644)

	// Torn tail: the last put loses its final bytes.
	if err := os.Truncate(index, ends[2]-3); err != nil {
		t.Fatal(err)
	}
	c, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.CacheEntries(); len(got) != 2 || got[1].Key != "bb" {
		t.Fatalf("entries after a torn tail = %+v", got)
	}
	for path, want := range map[string]bool{c.cache.path("aa"): true, c.cache.path("bb"): true, c.cache.path("cc"): false, debris: false} {
		if _, err := os.Stat(path); (err == nil) != want {
			t.Errorf("%s: present = %v, want %v", filepath.Base(path), err == nil, want)
		}
	}

	// Mid-log damage: flip a byte inside the first record; "bb" is behind it.
	raw, _ := os.ReadFile(index)
	raw[ends[0]-2] ^= 0xff
	os.WriteFile(index, raw[:ends[1]], 0o644)
	c, err = Open(dir)
	if err != nil {
		t.Fatalf("Open with a damaged cache index: %v", err)
	}
	if got := c.CacheEntries(); len(got) != 0 {
		t.Fatalf("entries behind the damage survived: %+v", got)
	}
	if err := c.cache.put(artifact(t, c, "ee")); err != nil {
		t.Fatal(err)
	}
	if c, err = Open(dir); err != nil || len(c.CacheEntries()) != 1 {
		t.Fatalf("store after damage did not survive a restart: %+v, %v", c.CacheEntries(), err)
	}
}

// TestLegacyCacheRowsDropped: a snapshot written when result-cache entries
// were catalog rows loads without them, loses them at the next snapshot
// write, and their artifacts are swept.
func TestLegacyCacheRowsDropped(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "cache", "deadbeef.kv")
	os.MkdirAll(filepath.Dir(old), 0o755)
	os.WriteFile(old, []byte("kv"), 0o644)
	snapshot := `[{"input":"a.rec","index":"a.idx0","kind":"btree","fields":["x"],"sizeBytes":1},
 {"input":"a.rec","index":"` + old + `","kind":"result-cache","fields":null,"sizeBytes":2,"cacheKey":"deadbeef","hits":3}]`
	if err := os.WriteFile(filepath.Join(dir, fileName), []byte(snapshot), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if all := c.All(); len(all) != 1 || all[0].Kind != KindBTree {
		t.Fatalf("loaded entries = %+v", all)
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Errorf("legacy cache artifact survived Open (stat err = %v)", err)
	}
	if err := c.Add(Entry{InputPath: "a.rec", IndexPath: "a.idx1", Kind: KindRecordFile}); err != nil {
		t.Fatal(err)
	}
	if raw, _ := os.ReadFile(filepath.Join(dir, fileName)); strings.Contains(string(raw), "result-cache") {
		t.Errorf("rewritten snapshot still carries the legacy row:\n%s", raw)
	}
}

// TestForInputIgnoresCacheSize pins the planning-side bugfix: result-cache
// entries are not index variants, so ForInput's result and its allocations
// do not depend on how many there are.
func TestForInputIgnoresCacheSize(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.Add(Entry{InputPath: "data.rec", IndexPath: "data.idx0", Kind: KindBTree, CreatedAt: time.Now()})
	c.Add(Entry{InputPath: "data.rec", IndexPath: "data.idx1", Kind: KindRecordFile, CreatedAt: time.Now()})
	measure := func() float64 {
		return testing.AllocsPerRun(100, func() {
			if got := c.ForInput("data.rec"); len(got) != 2 {
				t.Fatalf("ForInput returned %d entries, want the 2 index variants", len(got))
			}
		})
	}
	before := measure()
	e := artifact(t, c, "k")
	for i := 0; i < 5000; i++ {
		e.Key = fmt.Sprintf("key-%04d", i)
		if err := c.cache.put(e); err != nil {
			t.Fatal(err)
		}
	}
	if after := measure(); after != before {
		t.Fatalf("ForInput allocates %.0f times with 5,000 cache entries, %.0f with none", after, before)
	}
}

// TestCacheTrafficLeavesSnapshotAlone: 200 stores and 200 hits do not
// touch manimal-catalog.json, sync nothing, and a store appends the same
// number of bytes whether 10 or 2,000 entries are resident.
func TestCacheTrafficLeavesSnapshotAlone(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(Entry{InputPath: "data.rec", IndexPath: "data.idx0", Kind: KindBTree}); err != nil {
		t.Fatal(err)
	}
	snapshot, err := os.Stat(filepath.Join(dir, fileName))
	if err != nil {
		t.Fatal(err)
	}
	syncs := 0
	defer durable.OnSync(func(string) { syncs++ })()

	index := filepath.Join(dir, "cache", cacheIndexName)
	e := artifact(t, c, "k")
	store := func(i int) int64 {
		e.Key = fmt.Sprintf("key-%04d", i)
		before, _ := os.Stat(index)
		if err := c.cache.put(e); err != nil {
			t.Fatal(err)
		}
		after, err := os.Stat(index)
		if err != nil {
			t.Fatal(err)
		}
		if before == nil {
			return 0
		}
		return after.Size() - before.Size()
	}
	var at10, at2000 int64
	for i := 0; i < 2001; i++ {
		switch n := store(i); i {
		case 10:
			at10 = n
		case 2000:
			at2000 = n
		}
		if i < 200 {
			// A link of the one artifact stands in for this key's: same
			// inode, so the fingerprint on e verifies.
			if err := os.Link(c.cache.path("k"), c.cache.path(e.Key)); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.ServeCache(e.Key, filepath.Join(dir, "served.kv")); !ok {
				t.Fatalf("hit %d missed", i)
			}
		}
	}
	if at10 == 0 || at10 != at2000 {
		t.Errorf("a store appended %d bytes at 10 resident entries, %d at 2,000", at10, at2000)
	}
	if syncs != 0 {
		t.Errorf("cache traffic issued %d syncs, want 0", syncs)
	}
	now, err := os.Stat(filepath.Join(dir, fileName))
	if err != nil {
		t.Fatal(err)
	}
	if now.Size() != snapshot.Size() || !now.ModTime().Equal(snapshot.ModTime()) {
		t.Errorf("cache traffic rewrote the snapshot: %d bytes @ %v, was %d @ %v",
			now.Size(), now.ModTime(), snapshot.Size(), snapshot.ModTime())
	}
}
