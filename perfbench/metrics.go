package main

// metricDef is one reported metric. BENCHMARK.json lists the same names,
// units and directions (TestBenchmarkJSONMatches keeps them in step).
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening share
}

// endToEnd are the metrics a user of the scrubber sees, reported by every
// untraced run of every workload.
var endToEnd = []metricDef{
	{"ingest_rps", "1/s", "higher", 0.25},
	{"realtime_x", "x", "higher", 0.25},
	{"round_ms_p50", "ms", "lower", 0.25},
	{"round_ms_tail", "ms", "lower", 0.25},
	{"heap_mb_peak", "MB", "lower", 0.1},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics, keyed by module.
var perLayer = []metricDef{
	{"sflow.ns_per_record", "ns", "lower", 0},
	{"sflow.allocs_per_record", "count", "lower", 0},
	{"sflow.records_per_datagram", "count", "higher", 0},
	{"sflow.decode_errors", "count", "lower", 0},
	{"bgp.label_ns_per_call", "ns", "lower", 0},
	{"bgp.blackholed_share", "share", "higher", 0},
	{"segment.records_per_batch", "count", "higher", 0},
	{"segment.read_wait_share", "share", "lower", 0},
	{"dropper.ns_per_record", "ns", "lower", 0},
	{"dropper.allocs_per_record", "count", "lower", 0},
	{"dropper.drop_share", "share", "higher", 0},
	{"dropper.rules", "count", "lower", 0},
	{"dropper.compile_ms_p50", "ms", "lower", 0},
	{"dropper.swaps", "count", "lower", 0},
	{"netflow.queue_ns_per_batch", "ns", "lower", 0},
	{"netflow.queue_blocked_puts", "count", "lower", 0},
	{"netflow.queue_dropped_records", "count", "lower", 0},
	{"netflow.lost_share", "share", "lower", 0},
	{"balance.ns_per_record", "ns", "lower", 0},
	{"balance.allocs_per_record", "count", "lower", 0},
	{"balance.kept_share", "share", "lower", 0},
	{"ixpsim.consume_ns_per_record", "ns", "lower", 0},
	{"ixpsim.consume_allocs_per_record", "count", "lower", 0},
	{"ixpsim.window_records", "count", "lower", 0},
	{"ixpsim.snapshot_ms", "ms", "lower", 0},
	{"ixpsim.round_unattributed_ms", "ms", "lower", 0},
	{"ixpsim.rounds", "count", "higher", 0},
	{"tagging.mine_ms", "ms", "lower", 0},
	{"tagging.rules_mined", "count", "lower", 0},
	{"features.aggregate_ms", "ms", "lower", 0},
	{"features.aggregates", "count", "lower", 0},
	{"woe.encode_ms", "ms", "lower", 0},
	{"core.fit_ms", "ms", "lower", 0},
	{"core.predict_us_per_aggregate", "us", "lower", 0},
	{"acl.generate_ms", "ms", "lower", 0},
	{"acl.publish_ms", "ms", "lower", 0},
	{"acl.entries", "count", "lower", 0},
	{"mitigation.attack_drop_share", "share", "higher", 0},
	{"mitigation.benign_drop_share", "share", "lower", 0},
	{"mitigation.mitigate_min_p50", "vmin", "lower", 0},
	{"mitigation.victim_mitigated_share", "share", "higher", 0},
	{"ingest.total_ns_per_record", "ns", "lower", 0},
	{"ingest.unattributed_ns_per_record", "ns", "lower", 0},
	{"trace.overhead_share", "share", "lower", 0},
}

// defaultSeed is the seed to measure with while a change is made; a
// claimed gain must also hold on the hold-out seed (7, see README.md).
const defaultSeed = 1
