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
// map-only scan with full task parallelism, each task writing one plain
// ordered segment, which Build stitches — in split order, preserving the
// original record order delta-compression relies on — into the final
// encoded file.
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

// Build runs the index-generation MapReduce job for the spec over
// inputPath with default tuning (sharded, parallel) on the process-wide
// scheduler. See BuildWith.
func Build(spec Spec, inputPath, indexPath, workDir string) (catalog.Entry, error) {
	return BuildWith(context.Background(), mapreduce.DefaultScheduler(), spec, inputPath, indexPath, workDir, BuildConfig{})
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
	in, err := mapreduce.OpenFile(inputPath, false)
	if err != nil {
		return catalog.Entry{}, err
	}
	defer in.Close()
	schema := in.Schema()

	fields := spec.Fields
	if len(fields) == 0 {
		fields = schema.FieldNames()
	}
	stored, err := schema.Project(fields...)
	if err != nil {
		return catalog.Entry{}, fmt.Errorf("indexgen: %w", err)
	}

	prog, err := lang.Parse(spec.Source())
	if err != nil {
		return catalog.Entry{}, fmt.Errorf("indexgen: synthesized program: %w", err)
	}

	entry := catalog.Entry{
		InputPath:         inputPath,
		IndexPath:         indexPath,
		Kind:              spec.Kind,
		KeyExpr:           spec.KeyExpr,
		Fields:            fields,
		CreatedAt:         time.Now(),
		InputSizeBytes:    fp.Size(),
		InputModTimeNanos: fp.ModTime().UnixNano(),
	}

	switch spec.Kind {
	case catalog.KindBTree:
		err = buildBTree(ctx, sched, &entry, spec, prog, in, stored, indexPath, workDir, cfg)
	case catalog.KindRecordFile:
		err = buildRecordFile(ctx, sched, &entry, spec, prog, in, stored, indexPath, cfg)
	default:
		return catalog.Entry{}, fmt.Errorf("indexgen: unknown index kind %q", spec.Kind)
	}
	if err != nil {
		return catalog.Entry{}, fmt.Errorf("indexgen: %w", err)
	}
	entry.BuildDuration = time.Since(start)
	return entry, nil
}

// buildBTree runs the sharded (or single-file) B+Tree build.
func buildBTree(ctx context.Context, sched *mapreduce.Scheduler, entry *catalog.Entry, spec Spec, prog *lang.Program, in *mapreduce.FileInput, stored *serde.Schema, indexPath, workDir string, cfg BuildConfig) error {
	// A rebuild at the same path can produce fewer (or zero) shards than
	// its predecessor — the shard count is data- and host-dependent — so
	// drop the old shard files up front lest the survivors orphan. The
	// rebuild is destructive either way: indexPath itself is truncated the
	// moment the new build opens it.
	if old, err := filepath.Glob(indexPath + ".shard*"); err == nil {
		removeAll(old)
	}
	shards := cfg.numShards()
	var bounds [][]byte
	if shards > 1 {
		var err error
		bounds, err = sampleKeyBounds(ctx, in, prog, shards, cfg.sampleSize())
		if err != nil {
			return err
		}
		// Heavily duplicated keys can collapse quantiles; the effective
		// shard count follows the distinct bounds.
		shards = len(bounds) + 1
	}

	job := &mapreduce.Job{
		Name:    "indexgen:" + indexPath,
		Inputs:  []mapreduce.MapInput{{Input: in, Mapper: fabric.MapperFactory(prog)}},
		Reducer: func() (mapreduce.Reducer, error) { return fabric.IdentityReducer{}, nil },
	}

	if shards == 1 {
		out, err := mapreduce.NewBTreeOutput(indexPath, stored, spec.KeyExpr)
		if err != nil {
			return err
		}
		job.Output = out
		// One reducer receives the merge in global key order — exactly what
		// bottom-up bulk loading requires of a lone-file tree.
		job.Config = mapreduce.Config{NumReducers: 1, WorkDir: workDir, MaxParallelTasks: cfg.MaxParallelTasks}
		if _, err := sched.Run(ctx, job); err != nil {
			return err
		}
		st, err := os.Stat(indexPath)
		if err != nil {
			return err
		}
		entry.SizeBytes = st.Size()
		return nil
	}

	shardPaths := make([]string, shards)
	for i := range shardPaths {
		shardPaths[i] = fmt.Sprintf("%s.shard%03d", indexPath, i)
	}
	job.OutputFor = func(p int) (mapreduce.Output, error) {
		return mapreduce.NewBTreeOutput(shardPaths[p], stored, spec.KeyExpr)
	}
	job.Config = mapreduce.Config{
		NumReducers:      shards,
		WorkDir:          workDir,
		MaxParallelTasks: cfg.MaxParallelTasks,
		Partitioner:      &mapreduce.RangePartitioner{Bounds: bounds},
	}
	if _, err := sched.Run(ctx, job); err != nil {
		removeAll(shardPaths)
		return err
	}
	if err := btree.WriteManifest(indexPath, spec.KeyExpr, shardPaths, bounds); err != nil {
		removeAll(shardPaths)
		return err
	}
	entry.Kind = catalog.KindBTreeSharded
	entry.Shards = shards
	size, err := totalSize(append([]string{indexPath}, shardPaths...))
	if err != nil {
		return err
	}
	entry.SizeBytes = size
	return nil
}

// buildRecordFile runs the parallel record-file build: a map-only job
// whose tasks each write one plain ordered segment (Job.OutputFor), then a
// stitch pass streaming the segments — in split order, i.e. original
// record order — into the final encoded file.
func buildRecordFile(ctx context.Context, sched *mapreduce.Scheduler, entry *catalog.Entry, spec Spec, prog *lang.Program, in *mapreduce.FileInput, stored *serde.Schema, indexPath string, cfg BuildConfig) error {
	var mu sync.Mutex
	segs := make(map[int]string)
	job := &mapreduce.Job{
		Name:   "indexgen:" + indexPath,
		Inputs: []mapreduce.MapInput{{Input: in, Mapper: fabric.MapperFactory(prog)}},
		OutputFor: func(task int) (mapreduce.Output, error) {
			path := fmt.Sprintf("%s.seg%06d", indexPath, task)
			mu.Lock()
			segs[task] = path
			mu.Unlock()
			return mapreduce.NewRecordFileOutput(path, stored, storage.WriterOptions{})
		},
		Config: mapreduce.Config{MaxParallelTasks: cfg.MaxParallelTasks},
	}
	cleanup := func() {
		for _, p := range segs {
			os.Remove(p)
		}
	}
	defer cleanup()
	if _, err := sched.Run(ctx, job); err != nil {
		return err
	}

	order := make([]int, 0, len(segs))
	for task := range segs {
		order = append(order, task)
	}
	sort.Ints(order)
	w, err := storage.NewWriter(indexPath, stored, storage.WriterOptions{Encodings: spec.Encodings})
	if err != nil {
		return err
	}
	for _, task := range order {
		if err := appendSegment(ctx, w, segs[task]); err != nil {
			w.Abort()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	// Record the format the variant was just written in, so tooling can
	// tell current variants from ones left behind by a retired format.
	entry.StatsVersion = storage.FormatVersion
	if len(spec.Encodings) > 0 {
		entry.Encodings = encodingNames(spec.Encodings)
	}
	st, err := os.Stat(indexPath)
	if err != nil {
		return err
	}
	entry.SizeBytes = st.Size()
	return nil
}

// appendSegment streams one plain segment's records into the final writer,
// polling ctx between batches so a canceled build stops stitching.
func appendSegment(ctx context.Context, w *storage.Writer, path string) error {
	r, err := storage.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	sc, err := r.ScanAll()
	if err != nil {
		return err
	}
	n := 0
	for sc.Next() {
		if n%stitchCancelEvery == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		n++
		if err := w.Append(sc.Record()); err != nil {
			return err
		}
	}
	return sc.Err()
}

// stitchCancelEvery throttles context polls on the stitch and sample scan
// loops (they run outside the engine's task loops, which poll themselves).
const stitchCancelEvery = 1024

// sampleKeyBounds scans a block-spread sample of the input, evaluates the
// synthesized key expression on each record through the interpreter, and
// returns up to shards-1 interior quantile cut keys (sort-key encoded,
// deduplicated — heavy duplicates merge adjacent shards).
func sampleKeyBounds(ctx context.Context, in *mapreduce.FileInput, prog *lang.Program, shards, sample int) ([][]byte, error) {
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
		sc, err := r.Scan(i*nb/blocks, i*nb/blocks+1)
		if err != nil {
			return nil, err
		}
		for j := 0; j < perBlock && sc.Next(); j++ {
			if err := ex.InvokeMap(serde.Int(0), sc.Record(), ictx); err != nil {
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
