package indexgen

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"manimal/internal/btree"
	"manimal/internal/catalog"
	"manimal/internal/faultinject"
	"manimal/internal/mapreduce"
	"manimal/internal/storage"
	"manimal/internal/workload"
)

// TestIndexBuildFaultMatrixFromEnv runs a sharded B+Tree build and a
// dictionary record-file build under the MANIMAL_FAULTS regime (the CI
// fault matrix) and requires each to equal its fault-free build, bytes and
// the build job's data counters alike, with no part or temp file left
// behind.
func TestIndexBuildFaultMatrixFromEnv(t *testing.T) {
	spec := os.Getenv("MANIMAL_FAULTS")
	if spec == "" {
		t.Skip("set MANIMAL_FAULTS (e.g. \"task=0.05;seed=3\") to run the fault matrix")
	}
	// Inputs and the reference builds are made fault-free; the builds under
	// test run with a fresh injector for the regime.
	faultinject.Reset()
	defer faultinject.Set(faultinject.MustParse(spec))

	dir := t.TempDir()
	webpages := filepath.Join(dir, "webpages.rec")
	if err := workload.NewGen(13).WriteWebPages(webpages, 6000, 128); err != nil {
		t.Fatal(err)
	}
	visits := filepath.Join(dir, "uservisits.rec")
	if err := workload.NewGen(14).WriteUserVisits(visits, 6000, 200); err != nil {
		t.Fatal(err)
	}
	treeSpec := Spec{Kind: catalog.KindBTree, KeyExpr: `v.Str("url")`, Fields: []string{"url", "rank"}}
	dictSpec := Spec{
		Kind:      catalog.KindRecordFile,
		Fields:    workload.UserVisitsSchema.FieldNames(),
		Encodings: map[string]storage.FieldEncoding{"destURL": storage.EncodeDict},
	}
	cfg := BuildConfig{NumShards: 4, MaxParallelTasks: 4}
	buildAll := func(tag string) (tree, dict string, ctrs [2]*mapreduce.Counters) {
		t.Helper()
		tree, dict = filepath.Join(dir, tag+".idx"), filepath.Join(dir, tag+".dict")
		for i, b := range []struct {
			spec         Spec
			input, index string
		}{{treeSpec, webpages, tree}, {dictSpec, visits, dict}} {
			in, pd, err := openInput(b.input, b.spec)
			if err != nil {
				t.Fatal(err)
			}
			var e catalog.Entry
			ctrs[i], err = build(context.Background(), mapreduce.DefaultScheduler(), &e, b.spec, in, pd, b.index, dir, cfg)
			in.Close()
			if err != nil {
				t.Fatalf("%s %s build: %v", tag, b.spec.Kind, err)
			}
			if i == 0 && e.Kind != catalog.KindBTreeSharded {
				t.Fatalf("%s B+Tree build is %s, want sharded", tag, e.Kind)
			}
		}
		return tree, dict, ctrs
	}
	refTree, refDict, refCtrs := buildAll("ref")

	faultinject.Set(faultinject.MustParse(spec))
	tree, dict, ctrs := buildAll("faulted")
	faultinject.Reset()

	for i, kind := range []string{"B+Tree", "dictionary"} {
		for _, name := range []string{
			mapreduce.CtrMapInputRecords, mapreduce.CtrMapOutputRecords, mapreduce.CtrBlocksRead,
			mapreduce.CtrBlocksSkipped, mapreduce.CtrRowsFiltered, mapreduce.CtrInputBytesRead,
			mapreduce.CtrOutputRecords,
		} {
			if got, want := ctrs[i].Get(name), refCtrs[i].Get(name); got != want {
				t.Errorf("%s build: %s = %d under faults, %d fault-free", kind, name, got, want)
			}
		}
	}

	ri, err := btree.OpenIndex(refTree)
	if err != nil {
		t.Fatal(err)
	}
	defer ri.Close()
	fi, err := btree.OpenIndex(tree)
	if err != nil {
		t.Fatal(err)
	}
	defer fi.Close()
	a, b := scanPairs(t, ri), scanPairs(t, fi)
	if len(a) != len(b) || len(a) != 6000 {
		t.Fatalf("B+Tree entries: fault-free %d, under faults %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i][0], b[i][0]) || !bytes.Equal(a[i][1], b[i][1]) {
			t.Fatalf("B+Tree entry %d differs under faults", i)
		}
	}
	rb, err := os.ReadFile(refDict)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.ReadFile(dict)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rb, fb) {
		t.Fatal("dictionary record file differs under faults")
	}
	requireNoLeftovers(t, dir)
}
