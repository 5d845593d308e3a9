package main

// metricName is a metric's name and unit as the program measures it.
type metricName struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, the same three for
// every workload; bench/README.md says what each workload's operation
// is.
var endToEnd = []metricName{
	{"setup_s", "s"},
	{"op_min_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// layerDefs are the metrics a traced run reports, in BENCHMARK.json
// order. A workload whose path does not touch a layer reports that
// layer's metrics as 0.
var layerDefs = []metricName{
	// csd: diagram construction (Eq. 2–3, Algorithms 1–2, Eq. 6–8).
	{"csd.build_ms", "ms"},
	{"csd.popularity_ms", "ms"},
	{"csd.clustering_ms", "ms"},
	{"csd.purification_ms", "ms"},
	{"csd.merging_ms", "ms"},
	{"csd.finalize_ms", "ms"},
	{"csd.frompop_ms", "ms"},
	{"csd.clusters_grown", "count"},
	{"csd.kl_splits", "count"},
	{"csd.units_merged", "count"},
	{"csd.units_final", "count"},
	// recognize: Algorithm 3.
	{"recognize.chain_ms", "ms"},
	{"recognize.annotate_ms", "ms"},
	{"recognize.vote_ms", "ms"},
	{"recognize.known_ratio", "ratio"},
	{"recognize.request_us", "us"},
	{"recognize.share", "ratio"},
	// pattern: Algorithm 4 (CSD-PM extraction).
	{"pattern.extract_ms", "ms"},
	{"pattern.prefixspan_ms", "ms"},
	{"pattern.refine_ms", "ms"},
	{"pattern.closure_ms", "ms"},
	{"pattern.candidates", "count"},
	{"pattern.pruned", "count"},
	{"pattern.patterns", "count"},
	{"pattern.yield", "ratio"},
	// csd.Maintainer: incremental ingest.
	{"csd.apply_delta_p50_ms", "ms"},
	{"csd.apply_delta_p90_ms", "ms"},
	{"csd.delta.popularity_ms", "ms"},
	{"csd.delta.dirty_ms", "ms"},
	{"csd.delta.clustering_ms", "ms"},
	{"csd.delta.purification_ms", "ms"},
	{"csd.delta.assemble_ms", "ms"},
	{"csd.delta.affected_pois", "count"},
	{"csd.delta.dirty_components", "count"},
	{"csd.delta.dirty_units", "count"},
	{"csd.delta.reuse_ratio", "ratio"},
	{"setup.maintainer_s", "s"},
	// ckpt: generation publish.
	{"ckpt.publish_p50_ms", "ms"},
	{"ckpt.publish_p90_ms", "ms"},
	{"ckpt.snapshot_bytes", "bytes"},
	// serve: the online service.
	{"serve.reload_ms", "ms"},
	{"serve.handler_p50_us", "us"},
	{"serve.handler_p99_us", "us"},
	{"serve.transport_us", "us"},
	{"serve.shed", "count"},
	{"serve.allocs_per_req", "count"},
	{"serve.rps", "1/s"},
	{"serve.client_p99_ms", "ms"},
	{"serve.openloop_p99_ms.r5000", "ms"},
	{"serve.openloop_p99_ms.r20000", "ms"},
	{"ingest.read_p99_ms", "ms"},
	// shard: the out-of-core build.
	{"shard.spill_ms", "ms"},
	{"shard.build_ms", "ms"},
	{"shard.popularity_ms", "ms"},
	{"shard.halo_overhead", "ratio"},
	{"shard.resident_frac", "ratio"},
	// index: the three spatial backends on the workload's own inputs.
	{"index.grid.build_ms", "ms"},
	{"index.grid.within_us", "us"},
	{"index.kdtree.build_ms", "ms"},
	{"index.kdtree.within_us", "us"},
	{"index.rtree.build_ms", "ms"},
	{"index.rtree.within_us", "us"},
	// The workload's operation latency: median and 90th percentile.
	{"op.p50_ms", "ms"},
	{"op.p90_ms", "ms"},
	// Go runtime, per operation of the workload.
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_pause_ms", "ms"},
	// The traced half's fastest operation minus the untraced half's.
	{"trace.overhead_ms", "ms"},
}

// traceMetrics are the layer metrics read straight off the program's
// own telemetry: per traced operation, the sum of the listed span
// durations (keyed "name" or "parent/name") or counters.
var traceMetrics = []struct {
	name, unit string
	keys       []string
}{
	{"csd.build_ms", "ms", []string{"csd.build"}},
	{"csd.popularity_ms", "ms", []string{"csd.build/popularity"}},
	{"csd.clustering_ms", "ms", []string{"csd.build/clustering", "csd.frompop/clustering"}},
	{"csd.purification_ms", "ms", []string{"csd.build/purification", "csd.frompop/purification"}},
	{"csd.merging_ms", "ms", []string{"csd.build/merging", "csd.frompop/merging"}},
	{"csd.finalize_ms", "ms", []string{"csd.build/finalize", "csd.frompop/finalize"}},
	{"csd.frompop_ms", "ms", []string{"csd.frompop"}},
	{"csd.clusters_grown", "count", []string{"csd.clusters.grown"}},
	{"csd.kl_splits", "count", []string{"csd.purify.kl_splits"}},
	{"csd.units_merged", "count", []string{"csd.units.merged"}},
	{"csd.units_final", "count", []string{"csd.units.final"}},
	{"recognize.chain_ms", "ms", []string{"recognize.CSD/chain"}},
	{"recognize.annotate_ms", "ms", []string{"recognize.CSD/annotate"}},
	{"pattern.extract_ms", "ms", []string{"extract.CounterpartCluster"}},
	{"pattern.prefixspan_ms", "ms", []string{"extract.CounterpartCluster/prefixspan"}},
	{"pattern.refine_ms", "ms", []string{"extract.CounterpartCluster/refine"}},
	{"pattern.closure_ms", "ms", []string{"extract.CounterpartCluster/closure"}},
	{"pattern.candidates", "count", []string{"extract.CounterpartCluster.candidates"}},
	{"pattern.pruned", "count", []string{"extract.CounterpartCluster.pruned"}},
	{"pattern.patterns", "count", []string{"extract.CounterpartCluster.patterns"}},
	{"csd.delta.popularity_ms", "ms", []string{"csd.delta/delta.popularity"}},
	{"csd.delta.dirty_ms", "ms", []string{"csd.delta/delta.dirty"}},
	{"csd.delta.clustering_ms", "ms", []string{"csd.delta/delta.clustering"}},
	{"csd.delta.purification_ms", "ms", []string{"csd.delta/delta.purification"}},
	{"csd.delta.assemble_ms", "ms", []string{"csd.delta/delta.assemble"}},
	{"csd.delta.dirty_components", "count", []string{"csd.delta.dirty_components"}},
	{"csd.delta.dirty_units", "count", []string{"csd.delta.dirty_units"}},
	{"shard.popularity_ms", "ms", []string{"shard.build/popularity"}},
}
