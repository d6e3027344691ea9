package main

// metricDecl is one metric BENCHMARK.json declares; the self-test holds the
// two lists equal to that file.
type metricDecl struct{ name, unit string }

// endToEnd is what a user of the system sees, reported by --trace 0 for
// every workload as the median over the untraced reps. fct_* are on the
// workload's own clock: simulated time on the five sim workloads (the
// modelled rack's result, which repeats exactly for a seed), host time from
// StartFlow to Wait's return on the two emu workloads.
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"fct_p50_us", "us"},
}

// perLayer is reported by --trace 1 for every workload; a metric that does
// not apply to a workload (emu.* on a sim workload, sim.shard_* on a serial
// one) reads 0 there.
var perLayer = []metricDecl{
	{"topology.graph_build_ms", "ms"},
	{"topology.fib_build_ms", "ms"},
	{"topology.partition_ms", "ms"},

	{"routing.table_build_ms", "ms"},
	{"routing.phi_cold_us", "us"},
	{"routing.phi_warm_ns", "ns"},
	{"routing.sample_path_ns", "ns"},
	{"routing.port_route_ns", "ns"},

	{"wire.data_codec_ns", "ns"},
	{"wire.bcast_codec_ns", "ns"},

	{"waterfill.peak_live_flows", "count"},
	{"waterfill.allocate_us", "us"},
	{"waterfill.incremental_us", "us"},
	{"waterfill.allocs_per_allocate", "count"},

	{"core.view_apply_ns", "ns"},
	{"core.replayed_views", "count"},
	{"core.compute_us", "us"},
	{"core.compute_full_us", "us"},
	{"core.summary_us", "us"},

	// sim: counts, exact run to run.
	{"sim.events", "count"},
	{"sim.data_pkts", "count"},
	{"sim.pkt_hops", "count"},
	{"sim.bcast_deliveries", "count"},
	{"sim.recomputations", "count"},
	{"sim.recompute_rounds", "count"},
	{"sim.recomputes_per_round", "ratio"},
	{"sim.bcast_bytes", "bytes"},
	{"sim.drops", "count"},
	{"sim.max_queue_p99_bytes", "bytes"},
	{"sim.reorder_p95_pkts", "pkts"},
	{"sim.tcp_retransmissions", "count"},
	{"sim.fct_p95_us", "us"},
	{"sim.fct_p99_us", "us"},
	{"sim.fct_samples", "count"},
	{"sim.shard_workers", "count"},
	{"sim.shard_handoffs", "count"},
	// sim: host time.
	{"sim.ns_per_event", "ns"},
	{"sim.engine_ns_per_event", "ns"},
	{"sim.net_ns_per_hop", "ns"},
	{"sim.bcast_ns_per_delivery", "ns"},
	{"sim.r2c2_wall_s", "s"},
	{"sim.tcp_wall_s", "s"},
	{"sim.pfq_wall_s", "s"},
	{"sim.allocs_per_run", "count"},
	{"sim.alloc_mb_per_run", "MB"},
	{"sim.gc_cycles", "count"},
	{"sim.cpu_s", "s"},
	{"sim.shard_busy_s", "s"},
	{"sim.shard_ctrl_s", "s"},
	{"sim.shard_wait_frac", "ratio"},
	{"sim.shard_imbalance", "ratio"},
	{"sim.shard_serial_wall_s", "s"},
	{"sim.shard_speedup", "ratio"},
	{"sim.share_engine_est", "ratio"},
	{"sim.share_net_est", "ratio"},
	{"sim.share_bcast_est", "ratio"},
	{"sim.share_path_est", "ratio"},
	{"sim.share_compute_est", "ratio"},

	{"emu.setup_ms", "ms"},
	{"emu.start_flow_us", "us"},
	{"emu.flow_p95_us", "us"},
	{"emu.flow_p99_us", "us"},
	{"emu.goodput_MBps", "MB/s"},
	{"emu.ns_per_pkt_hop", "ns"},
	{"emu.flows_per_s", "1/s"},
	{"emu.mbuf_peak_live", "count"},
	{"emu.mbuf_allocs", "count"},
	{"emu.mbuf_released", "count"},
	{"emu.max_queue_p99_bytes", "bytes"},
	{"emu.drops", "count"},
	{"emu.stale_view_entries", "count"},
	{"emu.allocs_per_flow", "count"},
	{"emu.cpu_s", "s"},
	{"emu.paced_rate_ratio", "ratio"},

	{"bench.trace_overhead_frac", "ratio"},
}
