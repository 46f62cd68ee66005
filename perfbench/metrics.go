package main

// metricDef names one reported metric and its unit. The lists below are
// the contract with BENCHMARK.json: spec_test.go checks that its
// end_to_end and per_layer lists name exactly these, in this order.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the stack sees, reported by untraced runs.
// "op" is one client call: a single query, a batch of queries, an insert
// or a delete.
var endToEnd = []metricDef{
	{"setup_s", "s"},       // points in memory -> serving stack ready (median of setupReps)
	{"qps", "1/s"},         // read queries completed per second
	{"query_p50_ms", "ms"}, // client wall per read call
	{"query_p95_ms", "ms"}, //
	{"sim_p50_ms", "ms"},   // Result.SimTime per read query: the paper's disk clock
	{"sim_p99_ms", "ms"},   //
	{"op_p50_ms", "ms"},    // client wall per call, writes included
	{"heap_mb", "MiB"},     // live heap after setup and a forced GC
	{"space_amp", "ratio"}, // store bytes / (live points x d x 4), median over the window
}

// perLayer is what a traced run reports. Each metric is defined on every
// workload; a layer a workload does not use reports 0 (1 for the
// straggler ratio of an unsharded stack).
var perLayer = []metricDef{
	{"shard.straggler_ratio_p95", "ratio"},
	{"shard.failovers", "count"},
	{"engine.queue_wait_ms_p50", "ms"},
	{"engine.queue_wait_ms_p95", "ms"},
	{"engine.exec_ms_p50", "ms"},
	{"engine.overhead_ms_p50", "ms"},
	{"engine.share.serves_per_fetch", "ratio"},
	{"engine.share.rounds_per_query", "ratio"},
	{"engine.rejected", "count"},
	{"core.knn_wall_ms_p50", "ms"},
	{"core.dir.blocks_per_query", "count"},
	{"core.q.pages_read_per_query", "count"},
	{"core.q.pruned_frac", "ratio"},
	{"core.candidates_per_query", "count"},
	{"core.refinements_per_query", "count"},
	{"core.refined_points_per_refinement", "ratio"},
	{"core.sim.dir_ms", "ms"},
	{"core.sim.quant_ms", "ms"},
	{"core.sim.exact_ms", "ms"},
	{"core.approx.skipped_pages_per_query", "count"},
	{"core.approx.terminated_frac", "ratio"},
	{"core.checkpoints", "count"},
	{"core.reopt.steps", "count"},
	{"core.reopt.cycles", "count"},
	{"pagesched.batches_per_query", "count"},
	{"pagesched.pages_per_batch", "count"},
	{"pagesched.overread_frac", "ratio"},
	{"store.pool.hit_rate", "ratio"},
	{"store.pool.evictions_per_query", "count"},
	{"store.dev.reads_per_query", "count"},
	{"store.dev.read_kb_per_query", "KiB"},
	{"store.dev.write_bytes_per_user_byte", "ratio"},
	{"store.wal.fsyncs_per_write", "ratio"},
	{"store.wal.appends_per_fsync", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// reportOnly metrics go to the report file and the printed table but not
// to the result line. Most are wall times that exist on one workload
// only, so on the others they would read a constant 0 rather than a
// measurement. ops_per_s follows qps through the fixed operation mix,
// and op_p95_ms on the ingest workload follows the host's fsync
// latency, which drifts more between runs than any bound allows.
var reportOnly = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_p95_ms", "ms"},
	{"writes_per_s", "1/s"},
	{"write_p50_ms", "ms"},
	{"write_p95_ms", "ms"},
	{"approx_recall", "ratio"},
	{"recall_deficit", "ratio"},
	{"failed_frac", "ratio"},
	{"shard.self_ms_p50", "ms"},
	{"core.write.insert_ms_p50", "ms"},
	{"core.write.insert_ms_p95", "ms"},
	{"core.write.delete_ms_p50", "ms"},
	{"store.dev.read_ms_p50", "ms"},
	{"store.wal.fsync_ms_p50", "ms"},
	{"store.wal.fsync_ms_p95", "ms"},
}
