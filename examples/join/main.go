// Join: the paper's Benchmark 3 — a repartition join of UserVisits and
// Rankings. Manimal recognizes the date-range selection inside the
// UserVisits map() and range-scans a visitDate B+Tree instead of the whole
// file, which is where the paper's 6.73x comes from (Section 4.2). The
// analyzer additionally reports the join SHAPE — both maps re-key on a
// plain field of their own input — as a JoinDescriptor, and, beyond the
// paper, proves the Reduce emits only for URLs some selected visit
// carries, so the job runs as a semi-join: Rankings rows whose pageURL no
// selected visit carries never reach map().
//
// Run with: go run ./examples/join
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"manimal"
	"manimal/internal/mapreduce"
	"manimal/internal/programs"
	"manimal/internal/workload"
)

func main() {
	dir, err := os.MkdirTemp("", "manimal-join-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	uv := filepath.Join(dir, "uservisits.rec")
	rank := filepath.Join(dir, "rankings.rec")
	gen := workload.NewGen(31)
	if err := gen.WriteUserVisits(uv, 60000, 1000); err != nil {
		log.Fatal(err)
	}
	if err := gen.WriteRankings(rank, 1000); err != nil {
		log.Fatal(err)
	}
	sys, err := manimal.NewSystem(filepath.Join(dir, "sys"))
	if err != nil {
		log.Fatal(err)
	}
	uvProg, err := manimal.ParseProgram("join-uv", programs.Benchmark3JoinUserVisits)
	if err != nil {
		log.Fatal(err)
	}
	rkProg, err := manimal.ParseProgram("join-rank", programs.Benchmark3JoinRankings)
	if err != nil {
		log.Fatal(err)
	}

	if _, err := sys.BuildBestIndexes(uvProg, uv); err != nil {
		log.Fatal(err)
	}

	// Keep ~0.5% of visits: dates advance ~15s/record from epoch 1.2e9.
	spec := manimal.JobSpec{
		Name: "join",
		Inputs: []manimal.InputSpec{
			{Path: uv, Program: uvProg},
			{Path: rank, Program: rkProg},
		},
		OutputPath: filepath.Join(dir, "opt.kv"),
		Conf: manimal.Conf{
			"dateLo": manimal.Int(1_200_000_000),
			"dateHi": manimal.Int(1_200_000_000 + 15*60000/200),
		},
	}
	opt, err := sys.Submit(spec)
	if err != nil {
		log.Fatal(err)
	}
	spec.DisableOptimization = true
	spec.OutputPath = filepath.Join(dir, "base.kv")
	base, err := sys.Submit(spec)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("UserVisits plan: %v %v\n", opt.Inputs[0].Plan.Kind, opt.Inputs[0].Plan.Applied)
	fmt.Printf("Rankings plan:   %v %v (%d keys in the set)\n", opt.Inputs[1].Plan.Kind, opt.Inputs[1].Plan.Applied,
		opt.Result.Counters.Get(mapreduce.CtrSemiJoinKeys))
	if j := opt.Join; j != nil {
		fmt.Printf("join shape:      %s (left %d records, right %d records)\n",
			j, j.Left.Records, j.Right.Records)
	}
	fmt.Printf("conventional: %.3fs   manimal: %.3fs   speedup %.1fx\n",
		base.Duration.Seconds(), opt.Duration.Seconds(),
		base.Duration.Seconds()/opt.Duration.Seconds())

	pairs, err := manimal.ReadOutput(filepath.Join(dir, "opt.kv"))
	if err != nil {
		log.Fatal(err)
	}
	mapreduce.SortKVPairs(pairs)
	fmt.Printf("%d joined URLs; first 5 (url -> rank|revenue|visits):\n", len(pairs))
	for i := 0; i < 5 && i < len(pairs); i++ {
		fmt.Printf("  %v -> %v\n", pairs[i].Key, pairs[i].Value.D)
	}
}
