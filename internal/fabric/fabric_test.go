package fabric

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"manimal/internal/analyzer"
	"manimal/internal/lang"
	"manimal/internal/mapreduce"
	"manimal/internal/optimizer"
	"manimal/internal/programs"
	"manimal/internal/storage"
	"manimal/internal/workload"
)

// The plan's input opens at its first Splits, so that is where a bad plan
// fails; a never-opened input closes cleanly.
func TestInputForPlanUnknownKind(t *testing.T) {
	in := InputForPlan(&optimizer.Plan{Kind: optimizer.PlanKind(99)}, nil)
	if _, _, err := in.Splits(1); err == nil {
		t.Fatal("unknown plan kind accepted")
	}
}

func TestInputForPlanMissingFiles(t *testing.T) {
	if _, _, err := InputForPlan(&optimizer.Plan{Kind: optimizer.PlanOriginal, InputPath: "/nonexistent.rec"}, nil).Splits(1); err == nil {
		t.Fatal("missing original accepted")
	}
	if _, _, err := InputForPlan(&optimizer.Plan{Kind: optimizer.PlanBTree, IndexPath: "/nonexistent.idx"}, nil).Splits(1); err == nil {
		t.Fatal("missing index accepted")
	}
	if err := InputForPlan(&optimizer.Plan{Kind: optimizer.PlanOriginal, InputPath: "/nonexistent.rec"}, nil).Close(); err != nil {
		t.Fatalf("closing a never-opened input: %v", err)
	}
}

// TestAggregateKernelSpills: with a spill buffer a few keys wide, a job
// whose map tasks run the aggregate kernel spills where the interpreted
// Map's fold spills and writes the same output and every counter the same
// — on a plain file, and on a dictionary-coded one read as codes only
// (kernel) and as code strings (interpreter), with the codes hashed and
// with them folded into the dense array.
func TestAggregateKernelSpills(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "uv.rec")
	if err := workload.NewGen(23).WriteUserVisits(plain, 4000, 300); err != nil {
		t.Fatal(err)
	}
	recs, schema, err := storage.ReadAll(plain)
	if err != nil {
		t.Fatal(err)
	}
	dict := filepath.Join(dir, "uv.dict")
	w, err := storage.NewWriter(dict, schema, storage.WriterOptions{Encodings: map[string]storage.FieldEncoding{"destURL": storage.EncodeDict}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The smallest buffer the dictionary's dense code sums fit: one that
	// still spills once a task has seen about half its codes.
	r, err := storage.Open(dict)
	if err != nil {
		t.Fatal(err)
	}
	terms := r.Dictionary("destURL").Len()
	r.Close()
	dense := 256
	for !mapreduce.DenseCodes(terms, dense) {
		dense += 256
	}
	// The visits span under a day, so the delta query's one or two keys
	// never fill the buffer.
	for _, tc := range []struct {
		name, source, path string
		direct, spills     bool
		buffer             int
	}{
		{"benchmark2-aggregation", programs.Benchmark2Aggregation, plain, false, true, 256},
		{"delta-query", programs.DeltaQuery, plain, false, false, 256},
		{"compression-query", programs.CompressionQuery, plain, false, true, 256},
		{"compression-query-hashed-codes", programs.CompressionQuery, dict, true, true, 256},
		{"compression-query-dense-codes", programs.CompressionQuery, dict, true, true, dense},
	} {
		p, err := lang.Parse(tc.source)
		if err != nil {
			t.Fatal(err)
		}
		d, err := analyzer.Analyze(p, schema)
		if err != nil || d.Aggregate == nil {
			t.Fatalf("%s: no aggregate (%v): %q", tc.name, err, d.Notes)
		}
		run := func(kernel bool) ([]byte, map[string]int64) {
			t.Helper()
			codes := storage.DecodeTerms
			if tc.direct {
				codes = storage.CodeStrings
				if kernel {
					codes = storage.CodesOnly
				}
			}
			in, err := mapreduce.OpenFile(tc.path, codes, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			mi := mapreduce.MapInput{Input: in, Mapper: MapperFactory(p)}
			if kernel {
				mi.Aggregate = d.Aggregate
			}
			outPath := filepath.Join(dir, fmt.Sprintf("%s-%t.kv", tc.name, kernel))
			out, err := mapreduce.NewKVFileOutput(outPath)
			if err != nil {
				t.Fatal(err)
			}
			res, err := mapreduce.Run(&mapreduce.Job{
				Name:     tc.name,
				Inputs:   []mapreduce.MapInput{mi},
				Reducer:  ReducerFactory(p),
				Combiner: SumCombinerFactory(p),
				Output:   out,
				Config: mapreduce.Config{WorkDir: filepath.Join(dir, "work"), NumReducers: 3,
					MaxParallelTasks: 2, SpillBufferBytes: tc.buffer},
			})
			if err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(outPath)
			if err != nil {
				t.Fatal(err)
			}
			return raw, res.Counters.Snapshot()
		}
		kernel, kc := run(true)
		interp, ic := run(false)
		if !bytes.Equal(kernel, interp) {
			t.Fatalf("%s: kernel output (%d bytes) differs from the interpreted Map's (%d bytes)", tc.name, len(kernel), len(interp))
		}
		if !maps.Equal(kc, ic) {
			t.Fatalf("%s: counters differ:\nkernel      %v\ninterpreted %v", tc.name, kc, ic)
		}
		if tc.spills && kc[mapreduce.CtrSpills] <= 2*kc[mapreduce.CtrMapTasks] {
			t.Fatalf("%s: %d spills over %d map tasks; the buffer should force several each", tc.name, kc[mapreduce.CtrSpills], kc[mapreduce.CtrMapTasks])
		}
	}
}
