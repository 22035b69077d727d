package main

// metricDef names one reported metric and its unit. BENCHMARK.json
// lists the same names and units; the self-test keeps them in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed with
// -trace 0. README.md defines each per workload.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"slo_attainment", "ratio"},
	{"success_share", "ratio"},
	{"cpu_ms_per_inv", "ms"},
	{"kinv_per_s", "kinv/s"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the per-layer metrics of the traced run, printed with
// -trace 1, grouped by the repository layer they measure.
var perLayer = []metricDef{
	// router: internal/router.
	{"router.self_ms.p50", "ms"},
	{"router.self_ms.p99", "ms"},
	{"router.forward_rtt_ms.p50", "ms"},
	{"router.forward_rtt_ms.p99", "ms"},
	{"router.forwards_per_inv", "fwd/inv"},
	{"router.shed_share", "ratio"},
	{"router.conns_per_kinv", "conns/kinv"},
	// httpapi: the router-worker wire, internal/httpapi.
	{"httpapi.wire_ms.p50", "ms"},
	{"httpapi.wire_ms.p99", "ms"},
	{"httpapi.worker_self_ms.p50", "ms"},
	{"httpapi.worker_self_ms.p99", "ms"},
	// platform: internal/platform.
	{"platform.sched_ms.p50", "ms"},
	{"platform.sched_ms.p99", "ms"},
	{"platform.cold_ms.p99", "ms"},
	{"platform.cold_share", "ratio"},
	{"platform.queue_ms.p99", "ms"},
	{"platform.exec_ms.p50", "ms"},
	{"platform.exec_ms.p99", "ms"},
	{"platform.retries", "count"},
	// dispatch: internal/dispatch through the platform's Invoke Mapper.
	{"dispatch.group_size_mean", "inv/group"},
	{"dispatch.fast_path_share", "ratio"},
	// multiplex: internal/multiplex behind Resources.GetContext.
	{"multiplex.hit_ratio", "ratio"},
	{"multiplex.get_ms.p50", "ms"},
	{"multiplex.get_ms.p99", "ms"},
	{"multiplex.builds", "count"},
	// loadgen: the benchmark's own generator (validity guards).
	{"loadgen.late_ms.p99", "ms"},
	{"loadgen.conns", "count"},
	// sim, scenario, cpusched, node, core, cluster (sim-fleet).
	{"sim.run_s", "s"},
	{"scenario.report_s", "s"},
	{"sim.allocs_per_inv", "allocs/inv"},
	{"sim.bytes_per_inv", "B/inv"},
	{"sim.gc_cpu_share", "ratio"},
	{"sim.gc_cycles", "count"},
	{"sim.cpu_share.sim", "ratio"},
	{"sim.cpu_share.cpusched", "ratio"},
	{"sim.cpu_share.node", "ratio"},
	{"sim.cpu_share.core", "ratio"},
	{"sim.cpu_share.cluster", "ratio"},
	{"sim.cpu_share.scenario", "ratio"},
	{"sim.cpu_share.fnruntime", "ratio"},
	{"sim.cpu_share.gc", "ratio"},
	{"scenario.groups", "count"},
	{"scenario.cold_starts", "count"},
	// trace: the cost and consistency of tracing itself.
	{"trace.overhead_share", "ratio"},
	{"trace.span_sum_err", "ratio"},
}
