package main

// Metric is one figure the benchmark reports. BENCHMARK.json at the
// repository root lists the same names, units and directions; the
// package tests keep the two in step.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the figures a user of each workload sees. Every workload
// reports all of them; README.md says what each means per workload. The
// time bounds are wide because the CPU speed of a shared 2-vCPU box
// drifts by 10-20% over minutes, and more under hypervisor steal.
var endToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.1},
}

// perLayer are the traced run's figures, one group per module. README.md
// names the end-to-end metric and workload each should move.
var perLayer = []Metric{
	{"trace.bank_s", "s", "lower", 0},
	{"trace.bank_mb", "MB", "lower", 0},

	{"pipeline.pass_s", "s", "lower", 0},
	{"pipeline.pass_isv_s", "s", "lower", 0},
	{"pipeline.pass_alloc_mb", "MB", "lower", 0},

	{"experiments.fleet_config_s", "s", "lower", 0},
	{"experiments.fig5_s", "s", "lower", 0},
	{"experiments.fig6_s", "s", "lower", 0},
	{"experiments.fig8_s", "s", "lower", 0},
	{"experiments.mru_s", "s", "lower", 0},
	{"experiments.table3_s", "s", "lower", 0},
	{"experiments.efficiency_s", "s", "lower", 0},
	{"experiments.vmin_s", "s", "lower", 0},
	{"experiments.lifetime_s", "s", "lower", 0},
	{"experiments.yield_s", "s", "lower", 0},
	{"experiments.alloc_mb", "MB", "lower", 0},

	{"lifetime.step_ms", "ms", "lower", 0},
	{"lifetime.snapshot_ms", "ms", "lower", 0},
	{"lifetime.snapshot_mb", "MB", "lower", 0},

	{"store.checkpoint_write_ms", "ms", "lower", 0},
	{"store.put_ms", "ms", "lower", 0},
	{"store.get_ms", "ms", "lower", 0},
	{"store.open_s", "s", "lower", 0},

	{"service.miss_p50_ms", "ms", "lower", 0},
	{"service.hit_p50_ms", "ms", "lower", 0},
	{"service.store_hit_p50_ms", "ms", "lower", 0},
	{"service.jobs_per_s", "1/s", "higher", 0},
	{"service.miss_p99_ms", "ms", "lower", 0},
	{"service.miss_n", "count", "higher", 0},
	{"service.hit_p99_ms", "ms", "lower", 0},
	{"service.hit_n", "count", "higher", 0},
	{"service.store_hit_p99_ms", "ms", "lower", 0},
	{"service.store_hit_n", "count", "higher", 0},
	{"service.queue_wait_ms", "ms", "lower", 0},
	{"service.run_ms", "ms", "lower", 0},
	{"service.store_write_ms", "ms", "lower", 0},
	{"service.polls_per_miss", "count", "lower", 0},
	{"service.submit_ms", "ms", "lower", 0},
	{"service.status_ms", "ms", "lower", 0},
	{"service.result_ms", "ms", "lower", 0},

	{"fleetops.tick_p50_ms", "ms", "lower", 0},
	{"fleetops.tick_p95_ms", "ms", "lower", 0},
	{"fleetops.tick_n", "count", "higher", 0},
	{"fleetops.chip_epochs_per_s", "1/s", "higher", 0},
	{"fleetops.events", "count", "higher", 0},
	{"fleetops.bus_dropped", "count", "lower", 0},

	{"bench.trace_overhead_pct", "%", "lower", 0},
}

// unitOf returns the catalog unit of a metric name.
func unitOf(name string) (string, bool) {
	for _, set := range [][]Metric{endToEnd, perLayer} {
		for _, m := range set {
			if m.Name == name {
				return m.Unit, true
			}
		}
	}
	return "", false
}
