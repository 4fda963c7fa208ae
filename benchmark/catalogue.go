package main

// class says who gates a metric.
type class int

const (
	// gated metrics are BENCHMARK.json's end_to_end list: every workload
	// reports them, and the driver rejects a change that worsens one by
	// more than its bound.
	gated class = iota
	// headline metrics are end-to-end numbers that only some workloads
	// have (a compile time has no meaning on a run-only workload) or that
	// do not repeat well enough on the sandbox for the driver to gate
	// (ops_per_s). They carry a bound that -compare enforces, and are
	// listed under per_layer in BENCHMARK.json because that list is the
	// one a workload may leave at zero.
	headline
	// layer metrics are the per-layer ledger and the harness's own
	// diagnostics: no bound.
	layer
)

// metricSpec is one catalogue entry. exact marks a count that must
// repeat exactly between two runs of one commit on one host.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	class  class
	exact  bool
}

// catalogue is every metric the benchmark can emit, in print order. The
// names are cited verbatim by later issues; BENCHMARK.json must list
// exactly these (harness_test.go checks it).
var catalogue = []metricSpec{
	{"setup_s", "s", "lower", 0.25, gated, false},
	{"op_ms", "ms", "lower", 0.25, gated, false},
	{"alloc_kb_per_op", "KB", "lower", 0.1, gated, false},

	{"ops_per_s", "1/s", "higher", 0.25, headline, false},
	{"compile_ms", "ms", "lower", 0.25, headline, false},
	{"run_ms", "ms", "lower", 0.25, headline, false},
	{"seq_ms", "ms", "lower", 0.25, headline, false},
	{"wall_speedup", "x", "higher", 0.25, headline, false},
	{"sim_speedup", "x", "higher", 0.001, headline, true},
	{"jobs_per_s", "1/s", "higher", 0.25, headline, false},
	{"job_ms", "ms", "lower", 0.25, headline, false},
	{"retained_kb_per_op", "KB", "lower", 0.05, headline, false},
	{"failed_share", "ratio", "lower", 0, headline, true},

	{"compile_paper_ms", "ms", "lower", 0, layer, false},
	{"compile_random_ms", "ms", "lower", 0, layer, false},
	{"progs.build_ms", "ms", "lower", 0, layer, false},
	{"randprog.generate_ms", "ms", "lower", 0, layer, false},
	{"ir.verify_ms", "ms", "lower", 0, layer, false},
	{"ir.instrs_after", "count", "lower", 0, layer, true},
	{"profiling.run_ms", "ms", "lower", 0, layer, false},
	{"profiling.ns_per_step", "ns", "lower", 0, layer, false},
	{"profiling.steps", "count", "lower", 0, layer, true},
	{"profiling.paper_share", "ratio", "lower", 0, layer, false},
	{"profiling.random_share", "ratio", "lower", 0, layer, false},
	{"analysis.pointsto_ms", "ms", "lower", 0, layer, false},
	{"core.parallelize_ms", "ms", "lower", 0, layer, false},
	{"core.static_ms", "ms", "lower", 0, layer, false},
	{"core.regions_selected", "count", "higher", 0, layer, true},
	{"core.loops_rejected", "count", "lower", 0, layer, true},
	{"transform.checks_inserted", "count", "lower", 0, layer, true},
	{"transform.checks_elided", "count", "higher", 0, layer, true},
	{"transform.static_proven", "count", "higher", 0, layer, true},

	{"interp.seq_ns_per_step", "ns", "lower", 0, layer, false},
	{"interp.steps_seq", "count", "lower", 0, layer, true},
	{"interp.spec_ns_per_step", "ns", "lower", 0, layer, false},
	{"interp.shared_program_us", "us", "lower", 0, layer, false},

	{"vm.clone_us", "us", "lower", 0, layer, false},
	{"vm.reclone_us", "us", "lower", 0, layer, false},
	{"vm.cow_first_write_us", "us", "lower", 0, layer, false},
	{"vm.dirty_walk_us", "us", "lower", 0, layer, false},
	{"vm.resident_pages", "count", "lower", 0, layer, true},
	{"vm.pages_copied", "count", "lower", 0, layer, false},
	{"vm.nodes_copied", "count", "lower", 0, layer, false},
	{"vm.summary_hits", "count", "higher", 0, layer, false},

	{"specrt.new_us", "us", "lower", 0, layer, false},
	{"specrt.run_ms", "ms", "lower", 0, layer, false},
	{"specrt.run_p90_ms", "ms", "lower", 0, layer, false},
	{"specrt.spawn_us", "us", "lower", 0, layer, false},
	{"specrt.join_us", "us", "lower", 0, layer, false},
	{"specrt.checkpoint_us", "us", "lower", 0, layer, false},
	{"specrt.priv_read_us", "us", "lower", 0, layer, false},
	{"specrt.priv_write_us", "us", "lower", 0, layer, false},
	{"specrt.worker_busy_ms", "ms", "lower", 0, layer, false},
	{"specrt.region_wall_ms", "ms", "lower", 0, layer, false},
	{"specrt.invocations", "count", "lower", 0, layer, true},
	{"specrt.checkpoints", "count", "lower", 0, layer, true},
	{"specrt.priv_read_checks", "count", "lower", 0, layer, true},
	{"specrt.priv_write_checks", "count", "lower", 0, layer, true},
	{"specrt.separation_checks", "count", "lower", 0, layer, true},
	{"specrt.proven_range_bytes", "count", "higher", 0, layer, true},
	{"specrt.warm_spawns", "count", "higher", 0, layer, false},
	{"specrt.misspecs", "count", "lower", 0, layer, false},
	{"specrt.recoveries", "count", "lower", 0, layer, false},
	{"specrt.fallbacks", "count", "lower", 0, layer, false},
	{"specrt.master_ms", "ms", "lower", 0, layer, false},
	{"specrt.parallel_efficiency", "ratio", "higher", 0, layer, false},
	{"specrt.instr_slowdown", "x", "lower", 0, layer, false},
	{"specrt.pool_hit_ratio", "ratio", "higher", 0, layer, false},
	{"specrt.useful_ratio", "ratio", "higher", 0, layer, false},
	{"specrt.sim_time", "steps", "lower", 0, layer, true},
	{"specrt.sim_useful_share", "ratio", "higher", 0, layer, true},
	{"specrt.sim_priv_share", "ratio", "lower", 0, layer, true},
	{"specrt.sim_checkpoint_share", "ratio", "lower", 0, layer, true},
	{"specrt.sim_spawn_share", "ratio", "lower", 0, layer, true},
	{"specrt.sim_idle_share", "ratio", "lower", 0, layer, true},
	{"specrt.recovery_steps", "steps", "lower", 0, layer, false},
	{"specrt.sim_speedup_w", "x", "higher", 0, layer, true},
	{"specrt.sim_wall_gap", "x", "lower", 0, layer, false},

	{"service.submit_us", "us", "lower", 0, layer, false},
	{"service.view_us", "us", "lower", 0, layer, false},
	{"service.queue_us", "us", "lower", 0, layer, false},
	{"service.run_us", "us", "lower", 0, layer, false},
	{"service.overhead_us", "us", "lower", 0, layer, false},
	{"service.job_p99_ms", "ms", "lower", 0, layer, false},
	{"service.retries", "count", "lower", 0, layer, false},
	{"service.first_job_ms", "ms", "lower", 0, layer, false},
	{"service.warm_spawn_ratio", "ratio", "higher", 0, layer, false},
	{"service.phase_us.queued", "us", "lower", 0, layer, false},
	{"service.phase_us.spawn", "us", "lower", 0, layer, false},
	{"service.phase_us.run", "us", "lower", 0, layer, false},
	{"service.phase_us.validate", "us", "lower", 0, layer, false},
	{"service.phase_us.merge", "us", "lower", 0, layer, false},
	{"service.phase_us.commit", "us", "lower", 0, layer, false},
	{"service.phase_us.recovery", "us", "lower", 0, layer, false},
	{"service.http_submit_us", "us", "lower", 0, layer, false},
	{"service.http_poll_us", "us", "lower", 0, layer, false},
	{"service.http_trace_us", "us", "lower", 0, layer, false},
	{"obs.trace_events_per_job", "count", "lower", 0, layer, false},
	{"obs.trace_dropped_per_job", "count", "lower", 0, layer, false},

	{"harness.trace_overhead_pct", "%", "lower", 0, layer, false},
	{"harness.op_self_pct", "%", "lower", 0, layer, false},
	{"harness.peak_rss_mb", "MB", "lower", 0, layer, false},
	{"harness.generator_lag_us", "us", "lower", 0, layer, false},
}

func specOf(name string) (metricSpec, bool) {
	for _, s := range catalogue {
		if s.name == name {
			return s, true
		}
	}
	return metricSpec{}, false
}
