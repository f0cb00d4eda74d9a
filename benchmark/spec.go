package main

import (
	"encoding/json"
	"fmt"
)

// Metric is one reported measurement's fixed description. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics carry none.
type Metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// Workload is one named input set the benchmark runs.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Spec is the BENCHMARK.json document: how to run the benchmark and
// what it reports.
type Spec struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []Workload `json:"workloads"`
	EndToEnd   []Metric   `json:"end_to_end"`
	PerLayer   []Metric   `json:"per_layer"`
}

// runSeconds is how long one untraced run keeps starting rounds.
const runSeconds = 25

var workloads = []Workload{
	{"wan-learn", "a flat-dialect W4 WAN role whose cold learn takes seconds; the relational mine dominates, then held-out devices with planted faults are checked"},
	{"fleet-check", "1200 small indented F2 edge configs with shared metadata checked cold, into an artifact cache, incrementally after a 1% edit, and on worker processes"},
	{"serve-check", "an in-process concord server answering single-config check and coverage requests from 2 closed-loop clients; HTTP, registry and per-request lex+check dominate"},
}

func bound(b float64) *float64 { return &b }

// The end-to-end metrics. Each bound is three times the metric's widest
// quartile spread in the --steady runs recorded in README.md, rounded up
// to a hundredth and capped at 0.25. setup_s, whose spread is not held
// to its bound, gets the largest.
var endToEnd = []Metric{
	{"setup_s", "s", "lower", bound(0.25)},
	{"learn_s", "s", "lower", bound(0.25)},
	{"check_s", "s", "lower", bound(0.25)},
	{"check_store_s", "s", "lower", bound(0.25)},
	{"recheck_s", "s", "lower", bound(0.25)},
	{"dist_check_s", "s", "lower", bound(0.25)},
	{"learn_peak_heap_mb", "MB", "lower", bound(0.25)},
	{"check_peak_heap_mb", "MB", "lower", bound(0.25)},
	{"serve_p50_ms", "ms", "lower", bound(0.23)},
	{"serve_p90_ms", "ms", "lower", bound(0.25)},
	{"serve_rps", "req/s", "higher", bound(0.25)},
}

func layer(name, unit, better string) Metric { return Metric{Name: name, Unit: unit, Better: better} }

// The per-layer metrics of the traced run, named by module.
var perLayer = []Metric{
	layer("format.detect_s", "s", "lower"),
	layer("format.process_s", "s", "lower"),
	layer("format.lines", "count", "lower"),
	layer("lexer.lex_s", "s", "lower"),
	layer("lexer.cache_hit_ratio", "ratio", "higher"),
	layer("mining.fold_s", "s", "lower"),
	layer("mining.merge_s", "s", "lower"),
	layer("mining.mine_s", "s", "lower"),
	layer("mining.candidates", "count", "lower"),
	layer("mining.contracts", "count", "higher"),
	layer("mining.accept_ratio", "ratio", "higher"),
	layer("minimize.minimize_s", "s", "lower"),
	layer("minimize.reduction_factor", "ratio", "higher"),
	layer("contracts.compile_s", "s", "lower"),
	layer("contracts.check_s", "s", "lower"),
	layer("contracts.coverage_s", "s", "lower"),
	layer("contracts.unique_reduce_s", "s", "lower"),
	layer("contracts.violations", "count", "lower"),
	layer("contracts.skip_ratio", "ratio", "higher"),
	layer("artifact.encode_s", "s", "lower"),
	layer("artifact.decode_s", "s", "lower"),
	layer("artifact.store_s", "s", "lower"),
	layer("artifact.load_s", "s", "lower"),
	layer("artifact.bytes_written", "B", "lower"),
	layer("artifact.bytes_read", "B", "lower"),
	layer("artifact.hit_ratio", "ratio", "higher"),
	layer("shardrpc.encode_s", "s", "lower"),
	layer("shardrpc.decode_s", "s", "lower"),
	layer("shardrpc.frame_bytes", "B", "lower"),
	layer("shardrpc.dispatch_overhead_s", "s", "lower"),
	layer("server.roundtrip_ms", "ms", "lower"),
	layer("server.engine_ms", "ms", "lower"),
	layer("server.overhead_ms", "ms", "lower"),
	layer("server.compiles", "count", "lower"),
	layer("core.learn_wall_s", "s", "lower"),
	layer("core.check_wall_s", "s", "lower"),
	layer("core.learn_unattributed_s", "s", "lower"),
	layer("core.check_unattributed_s", "s", "lower"),
	layer("core.unattributed_s", "s", "lower"),
	layer("trace.learn_overhead_ratio", "ratio", "lower"),
	layer("trace.check_overhead_ratio", "ratio", "lower"),
	layer("trace.overhead_ratio", "ratio", "lower"),
}

// spec assembles the BENCHMARK.json document.
func spec() Spec {
	return Spec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// specJSON renders the spec as BENCHMARK.json bytes.
func specJSON() ([]byte, error) {
	b, err := json.MarshalIndent(spec(), "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encode spec: %w", err)
	}
	return append(b, '\n'), nil
}

// names lists the metrics' names.
func names(ms []Metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

// unitOf returns a metric's unit from the spec.
func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}
