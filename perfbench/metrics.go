package main

// metricDef names one reported metric. The two tables below are the
// benchmark's contract with BENCHMARK.json, which must list exactly the
// same names, units and directions (TestBenchmarkJSONMatchesTables).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"scenarios_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"synth_ms", "ms", "lower"},
	{"certify_ms", "ms", "lower"},
	{"mc_scenarios_per_s", "1/s", "higher"},
	{"utility_nofault", "utility", "higher"},
	{"peak_heap_mb", "MiB", "lower"},
}

// perLayer are the single-layer metrics of a traced run. A layer the
// workload bypasses reports 0.
var perLayer = []metricDef{
	{"client.call_p50_us", "us", "lower"},
	{"client.call_p99_us", "us", "lower"},
	{"client.self_p50_us", "us", "lower"},
	{"client.attempts_per_request", "count", "lower"},

	{"serve.handler_p50_us", "us", "lower"},
	{"serve.handler_p99_us", "us", "lower"},
	{"serve.resolve_us", "us", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.rejected", "count", "lower"},

	{"serveapi.decode_us", "us", "lower"},
	{"serveapi.encode_us", "us", "lower"},
	{"serveapi.request_bytes", "bytes", "lower"},
	{"serveapi.response_bytes", "bytes", "lower"},

	{"appio.decode_us", "us", "lower"},
	{"appio.encode_us", "us", "lower"},

	{"runtime.validate_us", "us", "lower"},
	{"runtime.cycle_ns", "ns", "lower"},
	{"runtime.compile_us", "us", "lower"},
	{"runtime.switches_per_cycle", "count", "higher"},

	{"sim.mc_ms", "ms", "lower"},
	{"sim.scenarios", "count", "higher"},

	{"core.ftqs_ms", "ms", "lower"},
	{"core.nodes_expanded", "count", "lower"},
	{"core.memo_hit_ratio", "ratio", "higher"},
	{"core.prefetch_hit_ratio", "ratio", "higher"},
	{"core.worker_busy_ratio", "ratio", "higher"},

	{"certify.ms", "ms", "lower"},
	{"certify.scenarios", "count", "lower"},
	{"certify.patterns_pruned_ratio", "ratio", "higher"},
	{"certify.us_per_scenario", "us", "lower"},

	{"proc.allocs_per_op", "count", "lower"},
	{"bench.lag_p99_ms", "ms", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
