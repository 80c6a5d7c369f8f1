package main

// metric is one benchmark metric. End-to-end metrics carry a regression
// bound; per-layer metrics carry the layer they measure and the end-to-end
// metrics they are expected to move, on which workloads.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	layer  string
	moves  []move
}

// move names an end-to-end metric a per-layer metric should move, and the
// workloads it should move it on ("all" for every workload).
type move struct {
	metric    string
	workloads []string
}

func on(metric string, workloads ...string) move { return move{metric, workloads} }

// endToEnd lists the metrics of an untraced run, in report order. Every
// workload reports every one of them.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "cells_per_s", unit: "cells/s", better: "higher", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "op_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "max_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "golden_mul_us", unit: "us", better: "lower", bound: 0.25},
	{name: "model_rms_mv", unit: "mV", better: "lower", bound: 0.01},
	{name: "model_err_lsb", unit: "LSB", better: "lower", bound: 0.01},
}

const (
	wGolden  = "paper-golden"
	wExplore = "explore-cold"
	wReplay  = "replay-warm"
	wFleet   = "server-fleet"
)

// perLayer lists the metrics of a traced run, bottom of the stack first.
// A layer a workload does not exercise reports 0 for its counts and times.
var perLayer = []metric{
	{name: "core.calibrate_s", unit: "s", better: "lower", layer: "core",
		moves: []move{on("setup_s", "all")}},
	{name: "spice.transient_us", unit: "us", better: "lower", layer: "spice",
		moves: []move{on("golden_mul_us", "all"), on("cells_per_s", wGolden)}},
	{name: "spice.transients_per_golden_mul", unit: "count", better: "lower", layer: "spice",
		moves: []move{on("golden_mul_us", "all")}},
	{name: "mult.golden_multiply_us", unit: "us", better: "lower", layer: "mult",
		moves: []move{on("golden_mul_us", "all")}},
	{name: "mult.behavioral_build_us", unit: "us", better: "lower", layer: "mult",
		moves: []move{on("cells_per_s", wExplore)}},
	{name: "mult.multiply_det_ns", unit: "ns", better: "lower", layer: "mult",
		moves: []move{on("cells_per_s", wExplore, wFleet)}},
	{name: "engine.golden_cell_ms", unit: "ms", better: "lower", layer: "engine",
		moves: []move{on("cells_per_s", wGolden)}},
	{name: "engine.behavioral_cell_us", unit: "us", better: "lower", layer: "engine",
		moves: []move{on("cells_per_s", wExplore, wFleet)}},
	{name: "engine.evals_per_op", unit: "count/op", better: "lower", layer: "engine",
		moves: []move{on("cells_per_s", wExplore), on("op_p50_ms", wReplay, wFleet)}},
	{name: "engine.memory_hits_per_op", unit: "count/op", better: "higher", layer: "engine",
		moves: []move{on("op_p50_ms", wReplay, wFleet)}},
	{name: "engine.store_hits_per_op", unit: "count/op", better: "higher", layer: "engine",
		moves: []move{on("op_p50_ms", wReplay, wFleet)}},
	{name: "engine.hit_ratio", unit: "ratio", better: "higher", layer: "engine",
		moves: []move{on("op_p50_ms", wReplay, wFleet), on("cells_per_s", wExplore)}},
	{name: "engine.queue_wait_ms", unit: "ms", better: "lower", layer: "engine",
		moves: []move{on("op_p50_ms", wFleet), on("cells_per_s", wExplore)}},
	{name: "engine.eval_busy_s", unit: "s", better: "lower", layer: "engine",
		moves: []move{on("cells_per_s", wGolden, wExplore)}},
	{name: "store.open_ms", unit: "ms", better: "lower", layer: "store",
		moves: []move{on("op_p50_ms", wReplay)}},
	{name: "store.close_ms", unit: "ms", better: "lower", layer: "store",
		moves: []move{on("op_p50_ms", wReplay)}},
	{name: "store.get_us", unit: "us", better: "lower", layer: "store",
		moves: []move{on("op_p50_ms", wReplay)}},
	{name: "store.gets_per_op", unit: "count/op", better: "lower", layer: "store",
		moves: []move{on("op_p50_ms", wReplay)}},
	{name: "store.putbatch_ms", unit: "ms", better: "lower", layer: "store",
		moves: []move{on("cells_per_s", wExplore), on("setup_s", wReplay)}},
	{name: "store.put_records_per_op", unit: "count/op", better: "lower", layer: "store",
		moves: []move{on("cells_per_s", wExplore)}},
	{name: "store.records", unit: "count", better: "lower", layer: "store",
		moves: []move{on("max_rss_mb", wReplay), on("setup_s", wReplay)}},
	{name: "store.segment_bytes", unit: "bytes", better: "lower", layer: "store",
		moves: []move{on("max_rss_mb", wReplay), on("setup_s", wReplay)}},
	{name: "search.run_self_ms", unit: "ms", better: "lower", layer: "search",
		moves: []move{on("cells_per_s", wExplore), on("op_p50_ms", wReplay)}},
	{name: "search.warm_run_ms", unit: "ms", better: "lower", layer: "search",
		moves: []move{on("op_p50_ms", wReplay)}},
	{name: "search.screen_cells_per_op", unit: "count/op", better: "lower", layer: "search",
		moves: []move{on("cells_per_s", wExplore)}},
	{name: "search.final_cells_per_op", unit: "count/op", better: "lower", layer: "search",
		moves: []move{on("cells_per_s", wExplore)}},
	{name: "exp.selection_s", unit: "s", better: "lower", layer: "exp",
		moves: []move{on("cells_per_s", wGolden), on("op_p50_ms", wGolden)}},
	{name: "exp.fig8_s", unit: "s", better: "lower", layer: "exp",
		moves: []move{on("cells_per_s", wGolden), on("op_p50_ms", wGolden)}},
	{name: "exp.speedup_s", unit: "s", better: "lower", layer: "exp",
		moves: []move{on("golden_mul_us", "all")}},
	// Not an end-to-end metric: each rep times only 256 multiplies (a
	// quarter of a millisecond), and on a shared host its run-to-run spread
	// exceeds any bound the benchmark may set.
	{name: "exp.behavioral_mul_ns", unit: "ns", better: "lower", layer: "exp",
		moves: []move{on("cells_per_s", wExplore, wFleet)}},
	{name: "exp.speedup_input_space_x", unit: "x", better: "higher", layer: "exp",
		moves: []move{on("golden_mul_us", "all")}},
	{name: "exp.speedup_monte_carlo_x", unit: "x", better: "higher", layer: "exp",
		moves: []move{on("golden_mul_us", "all")}},
	{name: "server.submit_ms", unit: "ms", better: "lower", layer: "server",
		moves: []move{on("op_p50_ms", wFleet), on("op_p95_ms", wFleet)}},
	{name: "server.poll_ms", unit: "ms", better: "lower", layer: "server",
		moves: []move{on("op_p50_ms", wFleet)}},
	{name: "server.polls_per_job", unit: "count/op", better: "lower", layer: "server",
		moves: []move{on("op_p50_ms", wFleet)}},
	{name: "server.queue_ms", unit: "ms", better: "lower", layer: "server",
		moves: []move{on("op_p95_ms", wFleet)}},
	{name: "server.exec_ms", unit: "ms", better: "lower", layer: "server",
		moves: []move{on("op_p50_ms", wFleet), on("op_p95_ms", wFleet)}},
	// Describes the server-fleet input, not the code: the share of jobs whose
	// spec ran before, read beside engine.hit_ratio.
	{name: "server.repeat_share", unit: "ratio", better: "higher", layer: "server"},
	{name: "remote.join_ms", unit: "ms", better: "lower", layer: "remote",
		moves: []move{on("setup_s", wFleet)}},
	{name: "remote.cells_shipped_per_op", unit: "count/op", better: "lower", layer: "remote",
		moves: []move{on("cells_per_s", wFleet), on("op_p95_ms", wFleet)}},
	{name: "remote.bytes_per_cell", unit: "bytes", better: "lower", layer: "remote",
		moves: []move{on("cells_per_s", wFleet)}},
	{name: "remote.retries_per_op", unit: "count/op", better: "lower", layer: "remote",
		moves: []move{on("op_p95_ms", wFleet)}},
	{name: "remote.local_fallbacks_per_op", unit: "count/op", better: "lower", layer: "remote",
		moves: []move{on("cells_per_s", wFleet)}},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower", layer: "bench"},
}
