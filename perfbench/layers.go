package main

// layerMetric is one per-layer metric of the traced run. A workload that
// does not exercise a layer reports 0 for it.
type layerMetric struct{ name, unit string }

var layerMetricList = []layerMetric{
	{"def.parse_s", "s"}, {"def.bytes", "bytes"},
	{"layout.occupancy_s", "s"}, {"layout.sites", "count"},
	{"rc.analyze_s", "s"}, {"rc.nets", "count"},
	{"scanline.extract_s", "s"}, {"scanline.columns", "count"},
	{"density.budget_s", "s"}, {"density.budget_features", "count"},
	{"cap.cache_hit_ratio", "ratio"},
	{"pilfill.session_s", "s"},
	{"core.engine_s", "s"}, {"core.build_s", "s"}, {"core.instances", "count"},
	{"core.run_s", "s"}, {"core.solve_cpu_s", "s"}, {"core.evaluate_s", "s"}, {"core.place_s", "s"},
	{"core.longest_tile_s", "s"}, {"core.memo_hit_ratio", "ratio"}, {"core.memo_entries", "count"},
	{"core.placed_ratio", "ratio"}, {"core.dual_fallbacks", "count"},
	{"ilp.nodes", "count"}, {"lp.pivots", "count"},
	{"shard.regions", "count"}, {"shard.halo_ratio", "ratio"},
	{"cluster.prepare_s", "s"}, {"cluster.scatter_s", "s"}, {"cluster.attempts", "count"},
	{"cluster.retries", "count"}, {"cluster.hedges", "count"}, {"cluster.poll_lag_s", "s"},
	{"cluster.local_s", "s"}, {"cluster.overhead_ratio", "ratio"},
	{"server.submits", "count"}, {"server.polls", "count"}, {"server.useful_poll_ratio", "ratio"},
	{"server.bytes_in", "bytes"}, {"server.bytes_out", "bytes"}, {"server.handler_s", "s"},
	{"server.errors", "count"},
	{"jobqueue.wait_s", "s"}, {"jobqueue.run_s", "s"}, {"jobqueue.rejected", "count"},
	{"check_s", "s"},
	{"trace.wall_s", "s"}, {"trace.untraced_wall_s", "s"}, {"trace.overhead_s", "s"},
	{"trace.other_s", "s"}, {"trace.leaf_coverage", "ratio"}, {"trace.lint_ok", "count"},
}

// Golden outputs of the default seed, recorded from this benchmark. The
// paper_tables entry folds all 48 runs: fill hash and τ bits are FNV-1a
// digests in run order, Placed is their sum.
var (
	goldenChipDedup      = golden{"901882ccff5190f2", 2552988, "3d5d5897cabf2f80/3d5d5897cabf2f80"}
	goldenPaperTables    = golden{"90addfdd66b132a7", 642408, "512a1ef3c358ff1e"}
	goldenClusterScatter = golden{"7959fe23806444f4", 1633276, "3d49c48d26287387/3d49c48d26287387"}
)
