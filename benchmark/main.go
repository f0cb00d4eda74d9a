// Command benchmark measures the Concord engine end to end on three
// seeded workloads and, in a separate traced run, layer by layer. It
// prints one JSON result line; see README.md for the workloads, the
// metrics and how to run it.
//
//	go run ./benchmark --workload wan-learn --seed 1 --seconds 25 --trace 0
//	go run ./benchmark --steady 10 --workload fleet-check --seconds 25
//	go run ./benchmark --write-spec > BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"concord/internal/core"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	// The process shard backend re-launches this binary with
	// CONCORD_SHARD_WORKER=1; it then serves shards, not a benchmark.
	if os.Getenv("CONCORD_SHARD_WORKER") == "1" {
		if err := core.RunShardWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", runSeconds, "start measured rounds until this many seconds have passed")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	steady := flag.Int("steady", 0, "run the workload this many times in child processes (seeds seed..seed+n-1) and print each metric's spread")
	fixedSeed := flag.Bool("fixed-seed", false, "with --steady, give every run the same seed")
	writeSpec := flag.Bool("write-spec", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if *writeSpec {
		b, err := specJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	}
	sh, ok := shapes[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", *workload, workloadNames()))
	}
	if *steady > 0 {
		if err := runSteady(*workload, *seed, *fixedSeed, *seconds, *trace, *steady); err != nil {
			fatal(err)
		}
		return
	}
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(sh, *seed, *seconds, ".bench_build")
	} else {
		res, err = runWorkload(sh, *seed, *seconds, ".bench_build")
	}
	if err != nil {
		fatal(err)
	}
	if n := liveChildren(); n > 0 {
		fatal(fmt.Errorf("%d child processes outlived the run", n))
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func workloadNames() string {
	var out []string
	for n := range shapes {
		out = append(out, n)
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
