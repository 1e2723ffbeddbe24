package main

// metricDef names one reported metric. moves and on record, for a
// per-layer metric, the end-to-end metric it should move and the
// workload that exercises it: the prediction a change to that layer is
// checked against. BENCHMARK.json lists the same names and units.
type metricDef struct {
	name, unit, better string
	moves, on          string
}

// setupRepeats is the number of set-ups per untraced run; setup_s is
// their median.
const setupRepeats = 9

// endToEnd are the metrics a user of the planner or the service sees.
// Every workload reports each of them; the definitions that differ per
// workload are spelled out in README.md.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "makespan_ratio", unit: "ratio", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// tracedLayers are the layers the traced run attributes self time to.
var tracedLayers = []string{
	"itc02", "socgen", "soc", "noc", "core.compile", "core.search",
	"plan", "noctestd", "resultstore",
}

const (
	lat    = "latency_p50_ms"
	cpu    = "cpu_ms_per_op"
	latCPU = "latency_p50_ms, cpu_ms_per_op"
	serve  = "serve_warm_quick, serve_explore"
)

// perLayer are the traced run's metrics. A workload that does no work
// in a layer reports 0 for it.
var perLayer = []metricDef{
	{"core.search_ms", "ms", "lower", latCPU, "plan_full"},
	{"core.search.orders", "count", "lower", latCPU, "plan_full"},
	{"core.search.ns_per_order", "ns", "lower", latCPU, "plan_full"},
	{"core.search.replayed_per_order", "count", "higher", latCPU, "plan_full"},
	{"core.search.prune_ratio", "ratio", "higher", latCPU, "plan_full"},
	{"core.search.delta_hit_ratio", "ratio", "higher", latCPU, "plan_full"},
	{"core.search.list_ms", "ms", "lower", "latency_p50_ms, cpu_ms_per_op, makespan_ratio", "plan_full"},
	{"core.search.restart_ms", "ms", "lower", "latency_p50_ms, cpu_ms_per_op, makespan_ratio", "plan_full"},
	{"core.search.anneal_ms", "ms", "lower", "latency_p50_ms, cpu_ms_per_op, makespan_ratio", "plan_full"},
	{"core.search.worker_busy_ratio", "ratio", "higher", "latency_p50_ms (the slowest member sets the time)", "plan_full"},
	{"core.compile_us", "us", "lower", latCPU, "serve_explore"},
	{"core.compile_allocs", "count", "lower", latCPU, "serve_explore"},
	{"noc.route_table_us.mesh", "us", "lower", latCPU, "serve_explore"},
	{"noc.route_table_us.torus", "us", "lower", latCPU, "serve_explore"},
	{"noc.route_table_us.degraded", "us", "lower", latCPU, "serve_explore"},
	{"itc02.parse_us", "us", "lower", latCPU, "serve_explore"},
	{"socgen.parse_scenario_us", "us", "lower", latCPU, "serve_explore"},
	{"soc.build_us", "us", "lower", latCPU, "serve_explore"},
	{"plan.validate_us", "us", "lower", latCPU, "serve_warm_quick"},
	{"plan.write_json_us", "us", "lower", cpu, "serve_warm_quick"},
	{"plan.json_bytes", "bytes", "lower", cpu, "serve_warm_quick"},
	{"noctestd.schedule_ms", "ms", "lower", latCPU, "serve_warm_quick"},
	{"noctestd.other_ms", "ms", "lower", cpu, "serve_warm_quick"},
	{"noctestd.response_bytes", "bytes", "lower", cpu, "serve_warm_quick"},
	{"noctestd.compile_ms", "ms", "lower", latCPU, "serve_explore"},
	{"noctestd.cache_hit_ratio", "ratio", "higher", latCPU, "serve_explore"},
	{"noctestd.evictions_per_req", "ratio", "lower", latCPU, "serve_explore"},
	{"noctestd.rejected_429", "count", "lower", "failed requests", serve},
	{"resultstore.memo_hit_ratio", "ratio", "higher", cpu, "serve_explore"},
	{"resultstore.bytes_per_record", "bytes", "lower", "setup_s of a restarted server", "serve_explore"},
	{"resultstore.replay_ms", "ms", "lower", "setup_s of a restarted server", "serve_explore"},
	{"loadgen.lag_p99_ms", "ms", "lower", "validity check on the printed client-side latency", serve},
	{"loadgen.conn_wait_ms", "ms", "lower", "validity check on the printed client-side latency", serve},
	{"itc02.self_ms", "ms", "lower", latCPU, "all"},
	{"socgen.self_ms", "ms", "lower", latCPU, "serve_explore"},
	{"soc.self_ms", "ms", "lower", latCPU, "all"},
	{"noc.self_ms", "ms", "lower", latCPU, "all"},
	{"core.compile.self_ms", "ms", "lower", latCPU, "all"},
	{"core.search.self_ms", "ms", "lower", latCPU, "all"},
	{"plan.self_ms", "ms", "lower", latCPU, "all"},
	{"noctestd.self_ms", "ms", "lower", cpu, serve},
	{"resultstore.self_ms", "ms", "lower", latCPU, "serve_explore"},
	{"trace.overhead_ms", "ms", "lower", "validity check on the traced split", "all"},
}
