package main

import (
	"encoding/json"
	"sort"
)

// metricDef declares one metric of BENCHMARK.json. Bound is the share of
// the parent's median an end-to-end metric may worsen by; per-layer
// metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	// Exact marks a simulated end-to-end metric: it repeats bit-for-bit for
	// a seed, so `compare` demands equality where the seeds match.
	Exact bool
}

// runSeconds is how long one run measures: identical rounds repeat until
// their windows add up to this (and at least minRounds of them ran).
const runSeconds = 8

// endToEnd is what a user of the simulator sees. Host metrics are noisy
// (shared 2-core box); the two sim metrics repeat bit-for-bit for a seed and
// their bounds only cover the seed-to-seed spread.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "host_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "host_live_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
	{Name: "sim_resp_mean_us", Unit: "us", Better: "lower", Bound: 0.20, Exact: true},
	{Name: "ssd_pages_programmed", Unit: "count", Better: "lower", Bound: 0.25, Exact: true},
}

// perLayer lists the per-layer metrics, layer by layer. Names start with
// the module they measure.
func perLayer() []metricDef {
	defs := []metricDef{
		{Name: "hybrid.search_p50_us", Unit: "us", Better: "lower"},
		{Name: "hybrid.search_p99_us", Unit: "us", Better: "lower"},
		{Name: "hybrid.alloc_kb_per_query", Unit: "KiB", Better: "lower"},
		{Name: "hybrid.allocs_per_query", Unit: "count", Better: "lower"},
		{Name: "hybrid.gc_cpu_share", Unit: "share", Better: "lower"},
		{Name: "hybrid.peak_rss_mb", Unit: "MiB", Better: "lower"},
		{Name: "hybrid.self_share", Unit: "share", Better: "lower"},
		{Name: "hybrid.trace_overhead_pct", Unit: "%", Better: "lower"},

		{Name: "engine.self_share", Unit: "share", Better: "lower"},
		{Name: "engine.self_us_per_execute", Unit: "us", Better: "lower"},
		{Name: "engine.self_ns_per_posting", Unit: "ns", Better: "lower"},
		{Name: "engine.result_codec_us_per_query", Unit: "us", Better: "lower"},
		{Name: "engine.execute_calls", Unit: "count", Better: "lower"},
		{Name: "engine.postings_scored", Unit: "count", Better: "lower"},
		{Name: "engine.list_bytes_read", Unit: "bytes", Better: "lower"},
		{Name: "engine.early_term_share", Unit: "share", Better: "higher"},
		{Name: "engine.result_crc32", Unit: "crc32", Better: "lower"},

		{Name: "index.build_image_s", Unit: "s", Better: "lower"},
		{Name: "index.stamp_s", Unit: "s", Better: "lower"},
		{Name: "index.image_mb", Unit: "MiB", Better: "lower"},
		{Name: "index.decode_ns_per_posting", Unit: "ns", Better: "lower"},

		{Name: "core.self_share", Unit: "share", Better: "lower"},
		{Name: "core.get_result_ns_per_call", Unit: "ns", Better: "lower"},
		{Name: "core.put_result_ns_per_call", Unit: "ns", Better: "lower"},
		{Name: "core.read_list_ns_per_call", Unit: "ns", Better: "lower"},
		{Name: "core.read_list_calls", Unit: "count", Better: "lower"},
		{Name: "core.result_hit_ratio", Unit: "share", Better: "higher"},
		{Name: "core.result_hit_l2_share", Unit: "share", Better: "lower"},
		{Name: "core.list_hit_ratio", Unit: "share", Better: "higher"},
		{Name: "core.list_bytes_ssd_share", Unit: "share", Better: "higher"},
		{Name: "core.list_bytes_hdd_share", Unit: "share", Better: "lower"},
		{Name: "core.l1_evictions", Unit: "count", Better: "lower"},
		{Name: "core.l2_evictions", Unit: "count", Better: "lower"},
		{Name: "core.bytes_to_ssd", Unit: "bytes", Better: "lower"},
		{Name: "core.lists_discarded_share", Unit: "share", Better: "higher"},
		{Name: "core.ssd_errors", Unit: "count", Better: "lower"},

		{Name: "flashsim.self_share", Unit: "share", Better: "lower"},
		{Name: "flashsim.host_ns_per_read", Unit: "ns", Better: "lower"},
		{Name: "flashsim.host_ns_per_write", Unit: "ns", Better: "lower"},
		{Name: "flashsim.read_calls", Unit: "count", Better: "lower"},
		{Name: "flashsim.write_calls", Unit: "count", Better: "lower"},
		{Name: "flashsim.trim_calls", Unit: "count", Better: "lower"},
		{Name: "flashsim.pages_written", Unit: "count", Better: "lower"},
		{Name: "flashsim.gc_page_copies", Unit: "count", Better: "lower"},
		{Name: "flashsim.write_amp", Unit: "ratio", Better: "lower"},
		{Name: "flashsim.block_erases", Unit: "count", Better: "lower"},
		{Name: "flashsim.max_block_erases", Unit: "count", Better: "lower"},
		{Name: "flashsim.sim_busy_s", Unit: "s", Better: "lower"},

		{Name: "disksim.self_share", Unit: "share", Better: "lower"},
		{Name: "disksim.host_ns_per_read", Unit: "ns", Better: "lower"},
		{Name: "disksim.read_calls", Unit: "count", Better: "lower"},
		{Name: "disksim.bytes_read", Unit: "bytes", Better: "lower"},
		{Name: "disksim.sequential_share", Unit: "share", Better: "higher"},
		{Name: "disksim.sim_ms_per_read", Unit: "ms", Better: "lower"},

		{Name: "experiments.index_builds_in_window", Unit: "count", Better: "lower"},
		{Name: "experiments.output_crc32", Unit: "crc32", Better: "lower"},
	}
	for _, id := range basketIDs {
		defs = append(defs, metricDef{Name: expShareName(id), Unit: "share", Better: "lower"})
	}
	return defs
}

// expShareName names one experiment's share of the basket window.
func expShareName(id string) string { return "exp." + id + ".wall_share" }

// manifest renders BENCHMARK.json from the tables in this package, so the
// file the driver reads and the metrics a run emits have one source.
func manifest() ([]byte, error) {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type boundedEntry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerEntry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []boundedEntry  `json:"end_to_end"`
		PerLayer   []layerEntry    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadEntry{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, boundedEntry{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer() {
		m.PerLayer = append(m.PerLayer, layerEntry{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// metricValue is one emitted metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit pairs measured values with the declared units. It reports the names
// that were declared but not measured, or measured but not declared: a run
// must emit exactly the declared set.
func emit(defs []metricDef, values map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var problems []string
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			problems = append(problems, "not measured: "+d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := out[name]; !ok {
			problems = append(problems, "not declared: "+name)
		}
	}
	return out, problems
}
