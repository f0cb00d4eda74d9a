package main

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"concord/internal/core"
)

// TestMain doubles as the shard worker: the process-backend check
// re-launches this test binary with CONCORD_SHARD_WORKER=1.
func TestMain(m *testing.M) {
	if os.Getenv("CONCORD_SHARD_WORKER") == "1" {
		if err := core.RunShardWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tinyShapes are the workloads cut down to a few configs each, so that
// an engine API change that breaks the benchmark fails go test.
var tinyShapes = map[string]shape{
	"wan-learn": {role: "W4", scale: 0.05, train: 8, faultEvery: 2, edits: 1,
		serveTrain: 6, servePool: 3, requests: 8, coverageEvery: 3},
	"fleet-check": {role: "F2", scale: 0.005, train: 20, checkAll: true, faultEvery: 10, edits: 2, shards: 4,
		serveTrain: 10, servePool: 4, requests: 8, coverageEvery: 3},
	"serve-check": {role: "E2", scale: 0.5, train: 8, faultEvery: 2, edits: 1,
		serveTrain: 8, servePool: 4, requests: 12, coverageEvery: 3},
}

func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	for name := range shapes {
		sh := tinyShapes[name]
		t.Run(name, func(t *testing.T) {
			res, err := runWorkload(sh, 3, 0, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, names(endToEnd))
		})
		t.Run(name+"/traced", func(t *testing.T) {
			res, err := runTraced(sh, 3, 0, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, names(perLayer))
		})
	}
	if n := liveChildren(); n > 0 {
		t.Fatalf("%d child processes outlived the runs", n)
	}
}

func checkResult(t *testing.T, res *result, want []string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(want))
	}
	for _, n := range want {
		m, ok := res.Metrics[n]
		if !ok || m.Unit != unitOf(n) {
			t.Errorf("metric %s: %+v, present %v", n, m, ok)
		}
	}
}

// Every workload has a shape, and the same seed generates the same
// inputs.
func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloads {
		sh, ok := tinyShapes[w.Name]
		if _, full := shapes[w.Name]; !ok || !full {
			t.Fatalf("workload %s has no shape", w.Name)
		}
		a, err := generate(sh, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(sh, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.faults) == 0 || len(a.pool) == 0 || len(a.train) != sh.train {
			t.Fatalf("%s: %d faults, %d pool configs, %d training configs", w.Name, len(a.faults), len(a.pool), len(a.train))
		}
		for i := range a.edited {
			if !bytes.Equal(a.edited[i].Text, b.edited[i].Text) || a.edited[i].Name != b.edited[i].Name {
				t.Fatalf("%s: seed 5 generated two different corpora", w.Name)
			}
		}
	}
}

// BENCHMARK.json at the repository root is exactly what -write-spec
// prints.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with go run ./benchmark --write-spec > BENCHMARK.json")
	}
}
