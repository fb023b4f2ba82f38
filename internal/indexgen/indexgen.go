// Package indexgen synthesizes and runs index-generation programs (paper
// Section 2.2, Step 1): each submitted job yields, besides its result, a
// MapReduce program that builds an indexed version of the job's input. The
// synthesized program is itself mapper-language source executed by the
// ordinary engine, exactly as the paper's index generators are themselves
// MapReduce programs.
//
// # Parallel builds
//
// Index generation is the dominant cost the paper amortizes, so builds run
// parallel end-to-end. B+Tree builds sample the input's key distribution,
// install a RangePartitioner cut at the sample's quantiles, and run with
// one reducer per shard: each reduce task's key-ordered merge stream
// bulk-loads one shard file, and a manifest (ordered shard list plus the
// partitioner's key boundaries) ties the shards into one logical tree
// registered as catalog.KindBTreeSharded. Record-file builds run their
// map-only scan with full task parallelism, each task writing one part
// file already in the index's encodings; storage.Concat then joins the
// parts — in split order, preserving the original record order
// delta-compression relies on — by copying their blocks, rewriting only
// dictionary codes onto one dictionary, so every record is encoded once.
//
// # Field-pruned scans
//
// An index generator reads only what its index stores: the build input
// is opened with a decode mask of the spec's stored fields plus the fields
// the key expression reads (as the analyzer finds them), and the key
// sample scans through the same mask. A B+Tree on one small field of a
// wide input therefore never reads, shuffles or sorts the other columns.
//
// Builds are ordinary MapReduce jobs: BuildWith submits them to a
// mapreduce.Scheduler, so index generation shares the process-wide slot
// pool with (and runs concurrently against) user job submissions, and a
// canceled context aborts the build with its partial files removed.
package indexgen

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"manimal/internal/analyzer"
	"manimal/internal/btree"
	"manimal/internal/catalog"
	"manimal/internal/fabric"
	"manimal/internal/interp"
	"manimal/internal/lang"
	"manimal/internal/mapreduce"
	"manimal/internal/serde"
	"manimal/internal/storage"
)

// Spec describes one index to build.
type Spec struct {
	// Kind is catalog.KindBTree or catalog.KindRecordFile. (Builds of
	// KindBTree specs produce catalog.KindBTreeSharded entries when the
	// build runs with more than one shard.)
	Kind string
	// KeyExpr is the canonical selection key (B+Tree specs only).
	// Canonical expressions are valid mapper-language source, so the
	// synthesized program embeds them verbatim.
	KeyExpr string
	// Fields are the stored fields, in input-schema order (projection);
	// empty means all fields.
	Fields []string
	// Encodings are per-field storage encodings (KindRecordFile only).
	Encodings map[string]storage.FieldEncoding
}

// Describe summarizes the spec for reports.
func (s Spec) Describe() string {
	switch s.Kind {
	case catalog.KindBTree:
		return fmt.Sprintf("B+Tree on %s storing %v", s.KeyExpr, s.Fields)
	default:
		return fmt.Sprintf("record file storing %v with encodings %v", s.Fields, encodingNames(s.Encodings))
	}
}

func encodingNames(m map[string]storage.FieldEncoding) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v.String()
	}
	return out
}

// Source returns the synthesized index-generation map program.
func (s Spec) Source() string {
	key := `k`
	if s.Kind == catalog.KindBTree {
		key = s.KeyExpr
	}
	return fmt.Sprintf("func Map(k, v *Record, ctx *Ctx) {\n\tctx.Emit(%s, v)\n}\n", key)
}

// Synthesize derives the index programs implied by an optimization
// descriptor. The first spec is the primary one: per the paper, "the
// current analyzer always chooses the index program that exploits as many
// optimizations as possible". Further specs are the single-optimization
// alternatives (useful when the index space budget is tight, and used by
// the per-optimization benchmarks).
func Synthesize(desc *analyzer.Descriptor, schema *serde.Schema) []Spec {
	if desc == nil {
		return nil
	}
	all := schema.FieldNames()
	kept := all
	if desc.Project != nil {
		kept = desc.Project.UsedFields
	}

	var specs []Spec
	if desc.Select != nil && len(desc.Select.IndexKeys) > 0 {
		// Primary: selection combined with projection. Delta-compression is
		// NOT combined (the conflict of paper footnote 3: selection is
		// favored); B+Tree leaves store plain records.
		specs = append(specs, Spec{
			Kind:    catalog.KindBTree,
			KeyExpr: desc.Select.IndexKeys[0],
			Fields:  kept,
		})
	}

	// Record-file spec combining projection, delta, and dictionary
	// encodings over the kept fields.
	enc := make(map[string]storage.FieldEncoding)
	if desc.Delta != nil {
		for _, f := range desc.Delta.Fields {
			if containsString(kept, f) {
				enc[f] = storage.EncodeDelta
			}
		}
	}
	if desc.DirectOp != nil {
		for _, f := range desc.DirectOp.Fields {
			if containsString(kept, f) {
				enc[f] = storage.EncodeDict
			}
		}
	}
	if len(kept) < len(all) || len(enc) > 0 {
		specs = append(specs, Spec{
			Kind:      catalog.KindRecordFile,
			Fields:    kept,
			Encodings: enc,
		})
	}
	return specs
}

func containsString(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// Build-time tuning defaults.
const (
	// DefaultNumShards caps the default B+Tree shard count (further capped
	// by NumCPU: more shards than cores only fragments the index).
	DefaultNumShards = 4
	// DefaultSampleSize is how many input records the range partitioner
	// samples to place shard boundaries.
	DefaultSampleSize = 1024
	// sampleMaxBlocks spreads the sample over at most this many storage
	// blocks, so sampling cost stays flat for huge inputs.
	sampleMaxBlocks = 32
)

// BuildConfig tunes one index build.
type BuildConfig struct {
	// NumShards is the reducer/shard count of B+Tree builds: each reducer
	// bulk-loads one shard, tied together by a manifest. 0 means
	// min(DefaultNumShards, NumCPU); 1 forces a single-file tree.
	NumShards int
	// MaxParallelTasks caps concurrent map/reduce tasks; 0 means the
	// engine default.
	MaxParallelTasks int
	// SampleSize is how many records are sampled for range-partitioner
	// bounds; 0 means DefaultSampleSize.
	SampleSize int
}

func (c BuildConfig) numShards() int {
	if c.NumShards > 0 {
		return c.NumShards
	}
	n := DefaultNumShards
	if cpus := runtime.NumCPU(); cpus < n {
		n = cpus
	}
	return n
}

func (c BuildConfig) sampleSize() int {
	if c.SampleSize > 0 {
		return c.SampleSize
	}
	return DefaultSampleSize
}

// BuildWith runs the index-generation MapReduce job for the spec over
// inputPath, writing the index to indexPath, and returns the catalog entry
// to register. workDir hosts the shuffle of B+Tree builds. The build's
// MapReduce jobs run on sched, sharing its slot pool with any concurrently
// running jobs; ctx cancels the build (partial index files are removed).
// The entry records the input's size+mtime fingerprint, letting the
// optimizer refuse the index once the input is rewritten.
func BuildWith(ctx context.Context, sched *mapreduce.Scheduler, spec Spec, inputPath, indexPath, workDir string, cfg BuildConfig) (catalog.Entry, error) {
	start := time.Now()
	// Fingerprint before reading: a concurrent rewrite mid-build then
	// invalidates the entry rather than hiding behind it.
	fp, err := os.Stat(inputPath)
	if err != nil {
		return catalog.Entry{}, err
	}
	in, pd, err := openInput(inputPath, spec)
	if err != nil {
		return catalog.Entry{}, err
	}
	defer in.Close()
	entry := catalog.Entry{
		InputPath:         inputPath,
		InputSizeBytes:    fp.Size(),
		InputModTimeNanos: fp.ModTime().UnixNano(),
	}
	if _, err := build(ctx, sched, &entry, spec, in, pd, indexPath, workDir, cfg); err != nil {
		return catalog.Entry{}, fmt.Errorf("indexgen: %w", err)
	}
	entry.BuildDuration = time.Since(start)
	return entry, nil
}

// openInput opens the build's input decoding only the fields the index
// stores and its key reads, with the pushdown that masks the rest (nil
// when nothing can be masked). A masked field reads as its kind's zero
// value: its segments never leave the disk, and it costs about a byte per
// record in the shuffle. That is legal because the index stores exactly
// spec.Fields (the output projects every record down to them) and the key
// reads only its own fields.
func openInput(inputPath string, spec Spec) (*mapreduce.FileInput, *storage.Pushdown, error) {
	// The mask needs the schema, which the open reads; the input reads the
	// pushdown only at its first Splits, and an empty one scans everything.
	pd := &storage.Pushdown{}
	in, err := mapreduce.OpenFile(inputPath, storage.DecodeTerms, pd)
	if err != nil {
		return nil, nil, err
	}
	if pd.Fields = decodeFields(spec, in.Schema()); pd.Fields == nil {
		return in, nil, nil
	}
	return in, pd, nil
}

// decodeFields returns, in schema order, the fields a build of spec over
// an input with this schema must decode: the stored fields plus the fields
// the key expression reads. It returns nil — decode everything — when the
// key's fields cannot be bounded or the set is the whole schema.
func decodeFields(spec Spec, schema *serde.Schema) []string {
	if len(spec.Fields) == 0 {
		return nil
	}
	need := make(map[string]bool, schema.NumFields())
	for _, f := range spec.Fields {
		need[f] = true
	}
	if spec.Kind == catalog.KindBTree {
		keyFields, ok := keyFields(spec.KeyExpr, schema)
		if !ok {
			return nil
		}
		for _, f := range keyFields {
			need[f] = true
		}
	}
	var decode []string
	for _, f := range schema.FieldNames() {
		if need[f] {
			decode = append(decode, f)
		}
	}
	if len(decode) == schema.NumFields() {
		return nil
	}
	return decode
}

// keyFields returns the input fields keyExpr reads: the analyzer's used
// fields for a program that emits only the key. ok is false when the
// analyzer cannot bound them (an opaque use of the record, or every field
// used).
func keyFields(keyExpr string, schema *serde.Schema) (fields []string, ok bool) {
	prog, err := lang.Parse(fmt.Sprintf("func Map(k, v *Record, ctx *Ctx) {\n\tctx.Emit(%s, 0)\n}\n", keyExpr))
	if err != nil {
		return nil, false
	}
	desc, err := analyzer.Analyze(prog, schema)
	if err != nil || desc.Project == nil {
		return nil, false
	}
	return desc.Project.UsedFields, true
}

// build runs the index-generation job for spec over in, whose scans apply
// pd (nil for none), fills in the entry's index fields and returns the
// job's counters.
func build(ctx context.Context, sched *mapreduce.Scheduler, entry *catalog.Entry, spec Spec, in *mapreduce.FileInput, pd *storage.Pushdown, indexPath, workDir string, cfg BuildConfig) (*mapreduce.Counters, error) {
	schema := in.Schema()
	fields := spec.Fields
	if len(fields) == 0 {
		fields = schema.FieldNames()
	}
	stored, err := schema.Project(fields...)
	if err != nil {
		return nil, err
	}
	prog, err := lang.Parse(spec.Source())
	if err != nil {
		return nil, fmt.Errorf("synthesized program: %w", err)
	}
	entry.IndexPath = indexPath
	entry.Kind = spec.Kind
	entry.KeyExpr = spec.KeyExpr
	entry.Fields = fields
	entry.CreatedAt = time.Now()
	switch spec.Kind {
	case catalog.KindBTree:
		return buildBTree(ctx, sched, entry, spec, prog, in, pd, stored, indexPath, workDir, cfg)
	case catalog.KindRecordFile:
		return buildRecordFile(ctx, sched, entry, spec, prog, in, stored, indexPath, cfg)
	default:
		return nil, fmt.Errorf("unknown index kind %q", spec.Kind)
	}
}

// buildBTree runs the B+Tree build: one reduce task per shard, each
// bulk-loading its own file straight from its key-ordered merge. A
// one-shard build is the same job with one reducer, whose file is
// indexPath itself; a sharded build range-partitions the keys and writes a
// manifest at indexPath.
func buildBTree(ctx context.Context, sched *mapreduce.Scheduler, entry *catalog.Entry, spec Spec, prog *lang.Program, in *mapreduce.FileInput, pd *storage.Pushdown, stored *serde.Schema, indexPath, workDir string, cfg BuildConfig) (*mapreduce.Counters, error) {
	// A rebuild at the same path can produce fewer (or zero) shards than
	// its predecessor — the shard count is data- and host-dependent — so
	// drop the old shard files up front lest the survivors orphan. A
	// sharded rebuild is destructive either way: the old manifest names
	// the files just removed.
	if old, err := filepath.Glob(indexPath + ".shard*"); err == nil {
		removeAll(old)
	}
	shards := cfg.numShards()
	var bounds [][]byte
	if shards > 1 {
		err := retryTransient(func() (err error) {
			bounds, err = sampleKeyBounds(ctx, in, pd, prog, shards, cfg.sampleSize())
			return err
		})
		if err != nil {
			return nil, err
		}
		// Heavily duplicated keys can collapse quantiles; the effective
		// shard count follows the distinct bounds.
		shards = len(bounds) + 1
	}

	paths := []string{indexPath}
	if shards > 1 {
		paths = make([]string, shards)
		for i := range paths {
			paths[i] = fmt.Sprintf("%s.shard%03d", indexPath, i)
		}
	}
	job := &mapreduce.Job{
		Name:    "indexgen:" + indexPath,
		Inputs:  []mapreduce.MapInput{{Input: in, Mapper: fabric.MapperFactory(prog)}},
		Reducer: func() (mapreduce.Reducer, error) { return fabric.IdentityReducer{}, nil },
		OutputFor: func(p int) (mapreduce.Output, error) {
			return mapreduce.NewBTreeOutput(paths[p], stored, spec.KeyExpr)
		},
		Config: mapreduce.Config{
			NumReducers:      shards,
			WorkDir:          workDir,
			MaxParallelTasks: cfg.MaxParallelTasks,
			Partitioner:      &mapreduce.RangePartitioner{Bounds: bounds},
		},
	}
	res, err := sched.Run(ctx, job)
	if err != nil {
		if shards > 1 {
			removeAll(paths)
		}
		return nil, err
	}
	if shards > 1 {
		if err := btree.WriteManifest(indexPath, spec.KeyExpr, paths, bounds); err != nil {
			removeAll(paths)
			return nil, err
		}
		entry.Kind = catalog.KindBTreeSharded
		entry.Shards = shards
		paths = append(paths, indexPath)
	}
	entry.SizeBytes, err = totalSize(paths)
	return res.Counters, err
}

// buildRecordFile runs the parallel record-file build: a map-only job
// whose tasks each write one part file, already in the spec's encodings
// (Job.OutputFor), then storage.Concat joins the parts — in split order,
// i.e. original record order — into the final file without re-encoding a
// record.
func buildRecordFile(ctx context.Context, sched *mapreduce.Scheduler, entry *catalog.Entry, spec Spec, prog *lang.Program, in *mapreduce.FileInput, stored *serde.Schema, indexPath string, cfg BuildConfig) (*mapreduce.Counters, error) {
	opts := storage.WriterOptions{Encodings: spec.Encodings}
	var mu sync.Mutex
	parts := make(map[int]string)
	job := &mapreduce.Job{
		Name:   "indexgen:" + indexPath,
		Inputs: []mapreduce.MapInput{{Input: in, Mapper: fabric.MapperFactory(prog)}},
		OutputFor: func(task int) (mapreduce.Output, error) {
			path := fmt.Sprintf("%s.seg%06d", indexPath, task)
			mu.Lock()
			parts[task] = path
			mu.Unlock()
			return mapreduce.NewRecordFileOutput(path, stored, opts)
		},
		Config: mapreduce.Config{MaxParallelTasks: cfg.MaxParallelTasks},
	}
	defer func() {
		for _, p := range parts {
			os.Remove(p)
		}
	}()
	res, err := sched.Run(ctx, job)
	if err != nil {
		return nil, err
	}

	order := make([]int, 0, len(parts))
	for task := range parts {
		order = append(order, task)
	}
	sort.Ints(order)
	paths := make([]string, len(order))
	for i, task := range order {
		paths[i] = parts[task]
	}
	if err := retryTransient(func() error { return concat(ctx, indexPath, stored, opts, paths) }); err != nil {
		return nil, err
	}
	// Record the format the variant was just written in, so tooling can
	// tell current variants from ones left behind by a retired format.
	entry.StatsVersion = storage.FormatVersion
	if len(spec.Encodings) > 0 {
		entry.Encodings = encodingNames(spec.Encodings)
	}
	st, err := os.Stat(indexPath)
	if err != nil {
		return nil, err
	}
	entry.SizeBytes = st.Size()
	return res.Counters, nil
}

// concat joins the build's part files into indexPath. An input without
// blocks runs no map task and leaves no part: the index is then the empty
// file a writer with the build's schema and encodings seals.
func concat(ctx context.Context, indexPath string, stored *serde.Schema, opts storage.WriterOptions, parts []string) error {
	if len(parts) > 0 {
		return storage.Concat(ctx, indexPath, parts)
	}
	w, err := storage.NewWriter(indexPath, stored, opts)
	if err != nil {
		return err
	}
	return w.Close()
}

// retryTransient runs fn, one of the reads a build makes outside the
// engine's task loop (the key sample, the concat of the parts), and runs
// it again after a transient failure, as the engine relaunches a failed
// task: at most mapreduce.DefaultMaxTaskRetries more times. Both are
// all-or-nothing, so a retry starts from scratch.
func retryTransient(fn func() error) error {
	err := fn()
	for retry := 0; retry < mapreduce.DefaultMaxTaskRetries && err != nil && mapreduce.IsTransient(err); retry++ {
		err = fn()
	}
	return err
}

// sampleKeyBounds scans a block-spread sample of the input through the
// build's pushdown pd — the first surviving rows of each sampled block —
// evaluates the synthesized key expression on them through the
// interpreter's batch door, and returns up to shards-1 interior
// quantile cut keys (sort-key encoded, deduplicated — heavy duplicates
// merge adjacent shards).
func sampleKeyBounds(ctx context.Context, in *mapreduce.FileInput, pd *storage.Pushdown, prog *lang.Program, shards, sample int) ([][]byte, error) {
	ex, err := interp.New(prog)
	if err != nil {
		return nil, err
	}
	r := in.Reader()
	nb := r.NumBlocks()
	if nb == 0 {
		return nil, nil
	}
	blocks := nb
	if blocks > sampleMaxBlocks {
		blocks = sampleMaxBlocks
	}
	perBlock := (sample + blocks - 1) / blocks
	var keys [][]byte
	ictx := &interp.Context{
		Emit: func(k serde.Datum, _ interp.EmitValue) error {
			keys = append(keys, k.AppendSortKey(nil))
			return nil
		},
		Counter: func(string, int64) {},
	}
	for i := 0; i < blocks; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sc, err := r.ScanBatch(i*nb/blocks, i*nb/blocks+1, pd)
		if err != nil {
			return nil, err
		}
		if sc.Next() {
			b := sc.Batch()
			if len(b.Sel()) > perBlock {
				b.SetSel(b.Sel()[:perBlock])
			}
			if err := ex.InvokeMapBatch(b, ictx); err != nil {
				return nil, err
			}
		}
		if sc.Err() != nil {
			return nil, sc.Err()
		}
	}
	if len(keys) == 0 {
		return nil, nil
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	var bounds [][]byte
	for i := 1; i < shards; i++ {
		c := keys[i*len(keys)/shards]
		if len(bounds) > 0 && bytes.Equal(bounds[len(bounds)-1], c) {
			continue
		}
		bounds = append(bounds, c)
	}
	return bounds, nil
}

func removeAll(paths []string) {
	for _, p := range paths {
		os.Remove(p)
	}
}

func totalSize(paths []string) (int64, error) {
	var n int64
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		n += st.Size()
	}
	return n, nil
}
