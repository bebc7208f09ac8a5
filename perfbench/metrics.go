package main

// metricDef names one reported metric. For a per-layer metric, Moves
// is the end-to-end metric it should move and On the workload it
// should move it on; the traced run prints both beside the value.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Moves  string
	On     string
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run. Each workload defines its unit of work (README.md):
// a Fig. 8(c)+(d) sweep, one MUM simulation, or the seeded request
// sequence.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "sim_cycles_per_s", Unit: "cycles/s", Better: "higher"},
	{Name: "ipc_gain_reg_pct", Unit: "%", Better: "higher"},
	{Name: "ipc_gain_smem_pct", Unit: "%", Better: "higher"},
	{Name: "done_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "done_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

const (
	wlSweep   = "paper-sweep"
	wlKernel  = "kernel-membound"
	wlService = "service"
	gains     = "ipc_gain_reg_pct, ipc_gain_smem_pct"
	svcE2E    = "done_p50_ms, done_p95_ms, jobs_per_s"
)

// perLayer are the traced run's metrics. "*.cpu_pct" is the share of
// CPU-profile samples whose leaf frame lies in that layer's package;
// "(sim)" counters come from stats.GPU; the rest are the benchmark's
// own spans around its calls. A layer the workload does not reach
// reads 0.
var perLayer = []metricDef{
	{"smcore.cpu_pct", "%", "lower", "wall_s", wlSweep},
	{"smcore.issue_util", "ratio", "higher", gains, wlSweep},
	{"smcore.stall_share", "ratio", "lower", gains, wlSweep},
	{"smcore.idle_share", "ratio", "lower", gains, wlSweep},
	{"warp.cpu_pct", "%", "lower", "wall_s", wlSweep},
	{"isa.cpu_pct", "%", "lower", "wall_s", wlSweep},
	{"sched.cpu_pct", "%", "lower", "wall_s", wlSweep},
	{"core.cpu_pct", "%", "lower", "wall_s", wlSweep},
	{"core.shared_reg_waits_pki", "1/kinstr", "lower", "ipc_gain_reg_pct", wlSweep},
	{"core.shared_smem_waits_pki", "1/kinstr", "lower", "ipc_gain_smem_pct", wlSweep},
	{"core.lock_wait_pki", "1/kinstr", "lower", gains, wlSweep},
	{"core.dyn_gate_pki", "1/kinstr", "lower", "ipc_gain_reg_pct", wlSweep},
	{"mem.cpu_pct", "%", "lower", "sim_cycles_per_s", wlKernel},
	{"mem.cache.cpu_pct", "%", "lower", "sim_cycles_per_s", wlKernel},
	{"mem.icnt.cpu_pct", "%", "lower", "sim_cycles_per_s", wlKernel},
	{"mem.dram.cpu_pct", "%", "lower", "sim_cycles_per_s", wlKernel},
	{"mem.busy_share", "ratio", "lower", "sim_cycles_per_s", wlKernel},
	{"mem.cache.l1_hit_rate", "ratio", "higher", "ipc_gain_reg_pct", wlSweep},
	{"mem.cache.l2_hit_rate", "ratio", "higher", "ipc_gain_reg_pct", wlSweep},
	{"mem.dram.row_hit_rate", "ratio", "higher", "ipc_gain_reg_pct", wlSweep},
	{"gpu.cpu_pct", "%", "lower", "sim_cycles_per_s", wlKernel},
	{"gpu.run_ms", "ms", "lower", "sim_cycles_per_s", wlKernel},
	{"gpu.sleep_entries", "count", "higher", "sim_cycles_per_s", wlKernel},
	{"gpu.host_ns_per_warp_instr", "ns", "lower", "sim_cycles_per_s", wlKernel},
	{"go-runtime.cpu_pct", "%", "lower", "sim_cycles_per_s, alloc_mb", wlKernel},
	{"go-runtime.gc_cycles", "count", "lower", "sim_cycles_per_s, alloc_mb", wlKernel},
	{"workloads.setup_ms", "ms", "lower", "setup_s", wlKernel},
	{"workloads.check_ms", "ms", "lower", "setup_s", wlKernel},
	{"workloads.cpu_pct", "%", "lower", "setup_s", wlKernel},
	{"runner.job_p50_ms", "ms", "lower", "wall_s", wlSweep},
	{"runner.job_max_ms", "ms", "lower", "wall_s", wlSweep},
	{"runner.worker_idle_pct", "%", "lower", "wall_s", wlSweep},
	{"runner.cache_hit_rate", "ratio", "higher", "wall_s", wlSweep},
	{"runner.cpu_pct", "%", "lower", "wall_s", wlSweep},
	{"harness.precompute_s", "s", "lower", "wall_s", wlSweep},
	{"harness.tables_ms", "ms", "lower", "wall_s", wlSweep},
	{"fleet.cpu_pct", "%", "lower", svcE2E, wlService},
	{"server.cpu_pct", "%", "lower", svcE2E, wlService},
	{"http-json.cpu_pct", "%", "lower", svcE2E, wlService},
	{"tenancy.cpu_pct", "%", "lower", svcE2E, wlService},
	{"service.hit_p50_ms", "ms", "lower", svcE2E, wlService},
	{"service.miss_p50_ms", "ms", "lower", svcE2E, wlService},
	{"service.tenancy_p50_ms", "ms", "lower", svcE2E, wlService},
	{"service.overhead_p50_ms", "ms", "lower", svcE2E, wlService},
	{"service.dedup_share", "ratio", "higher", svcE2E, wlService},
	{"service.shed", "count", "lower", svcE2E, wlService},
	{"paper.gap_reg_pct", "%", "lower", "ipc_gain_reg_pct", wlSweep},
	{"paper.gap_smem_pct", "%", "lower", "ipc_gain_smem_pct", wlSweep},
	{"other.cpu_pct", "%", "lower", "wall_s", "all"},
	{"trace.overhead_s", "s", "lower", "none (cost of tracing)", "all"},
	{"trace.spans", "count", "lower", "none (cost of tracing)", "all"},
}
