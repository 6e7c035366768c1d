package main

// metricDef names one reported metric. The two tables below are the
// benchmark's contract: BENCHMARK.json lists the same names and units
// (steady_test.go checks that), every untraced run reports every
// end-to-end metric and every traced run every per-layer metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees. Each workload
// reports all of them; NOTES.md says what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"jobs_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's layer metrics, grouped by the module
// they observe. A workload that bypasses a layer reports 0 for it.
var perLayer = []metricDef{
	// internal/opt and internal/flow: rounds and the max-flow engine.
	{"opt.rounds_per_op", "count", "lower"},
	{"opt.phases_per_op", "count", "lower"},
	{"opt.rounds_per_phase", "count", "lower"},
	{"opt.us_per_round", "us", "lower"},
	{"opt.graph_rebuilds_per_op", "count", "lower"},
	{"opt.fallbacks_per_op", "count", "lower"},
	{"flow.solves_per_op", "count", "lower"},
	{"flow.warm_hit_ratio", "ratio", "higher"},
	{"flow.solve_ms_per_op", "ms", "lower"},
	{"flow.share_of_solve", "ratio", "lower"},
	{"flow.edges_scanned_per_solve", "count", "lower"},
	{"flow.bfs_passes_per_solve", "count", "lower"},
	{"flow.aug_paths_per_solve", "count", "lower"},
	// internal/workload and internal/opt: decode and decomposition.
	{"workload.decode_ms_per_op", "ms", "lower"},
	{"opt.components_per_op", "count", "lower"},
	{"opt.component_jobs_max", "count", "lower"},
	{"opt.contraction_ratio", "ratio", "lower"},
	// internal/schedule: the correctness check's cost, outside latency.
	{"schedule.verify_ms_per_op", "ms", "lower"},
	// internal/online: OA requests as the replica serves them.
	{"online.oa_handler_ms_p50", "ms", "lower"},
	// internal/server: admission, cache, singleflight and sessions.
	{"server.handler_ms_p50", "ms", "lower"},
	{"server.handler_ms_p99", "ms", "lower"},
	{"server.queue_wait_ms_p99", "ms", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.coalesced_ratio", "ratio", "higher"},
	{"server.rejected", "count", "lower"},
	{"server.miss_handler_ms_p50", "ms", "lower"},
	{"server.delta_ms_p50", "ms", "lower"},
	{"server.session_incremental_ratio", "ratio", "higher"},
	// internal/cluster: the front's routing and proxying.
	{"cluster.front_self_ms_p50", "ms", "lower"},
	{"cluster.front_self_ms_p99", "ms", "lower"},
	{"cluster.affinity_ratio", "ratio", "higher"},
	{"cluster.retries", "count", "lower"},
	{"cluster.coalesced", "count", "lower"},
	{"cluster.replica_balance", "ratio", "higher"},
	// api: the client and the wire encoding.
	{"api.client_self_ms_p50", "ms", "lower"},
	{"api.response_kb_per_op", "KiB", "lower"},
	// Go runtime and internal/obs.
	{"go.alloc_mb_per_op", "MB", "lower"},
	{"go.allocs_per_op", "count", "lower"},
	{"go.gc_cycles_per_op", "count", "lower"},
	{"go.gc_pause_ms_per_op", "ms", "lower"},
	{"obs.trace_overhead_pct", "%", "lower"},
	// The ledger: per-op self time of each layer and how much of the
	// mean end-to-end latency the self times account for.
	{"ledger.latency_ms_mean", "ms", "lower"},
	{"ledger.accounted_pct", "%", "higher"},
	{"ledger.workload_self_ms", "ms", "lower"},
	{"ledger.opt_self_ms", "ms", "lower"},
	{"ledger.flow_self_ms", "ms", "lower"},
	{"ledger.server_self_ms", "ms", "lower"},
	{"ledger.cluster_self_ms", "ms", "lower"},
	{"ledger.api_self_ms", "ms", "lower"},
	// The run itself, for reading the others.
	{"run.ops", "count", "higher"},
	{"run.traced_ops", "count", "higher"},
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill turns raw values into the reported metrics of defs; a def with
// no value reads 0.
func fill(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}
