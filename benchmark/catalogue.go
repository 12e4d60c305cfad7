package main

// The names the benchmark prints. BENCHMARK.json at the repository root
// repeats them with direction and regression bound; main_test.go fails when
// the two lists drift apart. Every workload prints every metric of the pass it
// runs (end-to-end with -trace 0, per-layer with -trace 1); a per-layer metric
// of a layer the workload does not use reads 0.

type metricDef struct{ name, unit string }

var workloadNames = []string{
	"full_clos", "hybrid_clos", "pdes_seq", "pdes_nullmsg", "pdes_barrier_ring", "serve_sweep",
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_per_wall", "sim-s/wall-s"},
	{"op_ms_p50", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	// des: probes on a bare kernel, counts from the workload's registry.
	{"des.ns_per_event", "ns"},
	{"des.allocs_per_event", "count"},
	{"des.ns_per_event_deep", "ns"},
	{"des.cancel_rearm_ns", "ns"},
	{"des.events", "count"},
	{"des.events_per_s", "1/s"},
	{"des.heap_high_water", "count"},
	{"des.pool_miss_ratio", "ratio"},
	// netsim: host-switch-host line probe.
	{"netsim.ns_per_hop", "ns"},
	{"netsim.allocs_per_hop", "count"},
	{"netsim.bytes_per_hop", "B"},
	{"netsim.ns_per_hop_overload", "ns"},
	{"netsim.self_ns_per_hop", "ns"},
	{"netsim.tx_packets", "count"},
	{"netsim.drops", "count"},
	{"netsim.queue_high_water_bytes", "B"},
	// tcp: one bulk flow and many short flows through one switch.
	{"tcp.ns_per_segment", "ns"},
	{"tcp.allocs_per_segment", "count"},
	{"tcp.ns_per_short_flow", "ns"},
	{"tcp.self_ns_per_segment", "ns"},
	{"tcp.retransmissions", "count"},
	{"tcp.timeouts", "count"},
	{"tcp.flows_completed", "count"},
	// topology / traffic: what every scenario.Run pays before the first event.
	{"topology.build_ms", "ms"},
	{"topology.route_ns", "ns"},
	{"traffic.gen_ms", "ms"},
	// pdes: sync-path probes, the workload's sync counters, a Time Warp probe.
	{"pdes.null_ns", "ns"},
	{"pdes.barrier_ns", "ns"},
	{"pdes.wall_over_seq", "ratio"},
	{"pdes.extra_events_ratio", "ratio"},
	{"pdes.nulls_per_cross_pkt", "ratio"},
	{"pdes.null_messages", "count"},
	{"pdes.barriers", "count"},
	{"pdes.cross_lp_packets", "count"},
	{"pdes.eit_stalls", "count"},
	{"pdes.parked_arrivals", "count"},
	{"pdes.lp_load_imbalance", "ratio"},
	{"pdes.tw_wall_ratio", "ratio"},
	{"pdes.tw_rollbacks", "count"},
	{"pdes.tw_rolled_back_ratio", "ratio"},
	// nn / approx: inference and training probes, hybrid-run counts, accuracy.
	{"nn.predict_ns_h16", "ns"},
	{"nn.predict_ns_h128", "ns"},
	{"nn.predict_allocs", "count"},
	{"nn.train_ms", "ms"},
	{"approx.model_invocations", "count"},
	{"approx.predict_ns_mean", "ns"},
	{"approx.predict_share", "ratio"},
	{"approx.event_ratio", "ratio"},
	{"approx.speedup", "ratio"},
	{"approx.accuracy_ks", "ratio"},
	{"approx.rtt_p99_relerr", "ratio"},
	// scenario: one sweep family straight through scenario.Run, with and without a pool.
	{"scenario.key_us", "us"},
	{"scenario.cold_ms", "ms"},
	{"scenario.pool_first_ms", "ms"},
	{"scenario.pool_fork_ms", "ms"},
	{"scenario.fork_over_cold", "ratio"},
	// server: request classes and the run record's view of them.
	{"server.hit_us_inproc", "us"},
	{"server.http_overhead_us", "us"},
	{"server.queue_wait_ms_p50", "ms"},
	{"server.exec_ms_p50", "ms"},
	{"server.encode_residual_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.fork_reuse_ratio", "ratio"},
	{"server.dedup_joins", "count"},
	{"server.cold_ms_p50", "ms"},
	{"server.fork_ms_p50", "ms"},
	{"server.fork_ms_p90", "ms"},
	{"server.hit_ms_p50", "ms"},
	{"server.hit_ms_p90", "ms"},
	{"server.hit_ms_p99", "ms"},
	{"server.req_per_s", "1/s"},
	// whole run: runtime deltas around the traced reps and the outside-in attribution.
	{"run.ns_per_event", "ns"},
	{"run.allocs_per_event", "count"},
	{"run.bytes_per_event", "B"},
	{"run.gc_cycles", "count"},
	{"run.gc_pause_ms", "ms"},
	{"run.cpu_per_wall", "ratio"},
	{"share_est.des", "ratio"},
	{"share_est.netsim", "ratio"},
	{"share_est.tcp", "ratio"},
	{"share_est.sync", "ratio"},
	{"share_est.nn", "ratio"},
	{"share_est.other", "ratio"},
	// trace: the benchmark's own span recorder.
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
	{"trace.self_ms.rep", "ms"},
	{"trace.self_ms.validate_key", "ms"},
	{"trace.self_ms.run", "ms"},
	{"trace.self_ms.encode", "ms"},
	{"trace.self_ms.http", "ms"},
	{"trace.self_ms.queue_wait", "ms"},
	{"trace.self_ms.exec", "ms"},
}
