package main

// metricName is a metric the benchmark prints, with its unit. The lists
// match BENCHMARK.json's end_to_end and per_layer entries one for one.
type metricName struct{ name, unit string }

// layerMetricNames are printed by a traced run, on every workload; a
// layer the workload bypasses reads 0.
var layerMetricNames = []metricName{
	// Time per op in each call the benchmark makes (self time, ms).
	{"core.capture_ms", "ms"},
	{"core.fit_ms", "ms"},
	{"core.generate_ms", "ms"},
	{"core.replay_ms", "ms"},
	{"core.validate_ms", "ms"},
	{"core.encode_ms", "ms"},
	{"hadoop.packet_run_ms", "ms"},
	{"pcap.synth_ms", "ms"},
	{"pcap.write_ms", "ms"},
	{"pcap.reassemble_ms", "ms"},
	{"serve.self_ms", "ms"},
	// Allocations per op inside the heaviest calls.
	{"core.capture_allocs", "count"},
	{"core.fit_allocs", "count"},
	{"core.replay_allocs", "count"},
	// Telemetry counters per op.
	{"sim.events", "count"},
	{"sim.shard.windows", "count"},
	{"sim.shard.boundary_events", "count"},
	{"sim.shard.events_per_window", "count"},
	{"sim.shard.stall_ms", "ms"},
	{"sim.shard.crit_ms", "ms"},
	{"sim.shard.busy_ms", "ms"},
	{"netsim.reallocs", "count"},
	{"netsim.flows_completed", "count"},
	{"netsim.flows_completed_ratio", "ratio"},
	{"netsim.active_flows_max", "count"},
	{"netsim.tcp_rto", "count"},
	{"netsim.tcp_fast_retransmits", "count"},
	{"pcap.packets", "count"},
	{"core.fidelity_ks", "ratio"},
	{"core.interpod_relayed", "count"},
	{"hdfs.read_retries", "count"},
	{"mr.shuffle_retries", "count"},
	{"serve.queue_depth_max", "count"},
	{"serve.active_max", "count"},
	{"serve.shed", "count"},
	{"serve.flows_streamed", "count"},
	{"serve.bytes_streamed", "bytes"},
	// The tracing overhead: op p50 with and without spans.
	{"trace.op_p50_ms", "ms"},
	{"trace.untraced_op_p50_ms", "ms"},
}
