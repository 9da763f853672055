package main

// The vocabulary of the benchmark. BENCHMARK.json at the repository
// root lists the same workloads, end-to-end metrics and per-layer
// metrics; TestBenchmarkJSONMatchesDefs keeps the two in step.

// metricDef names one metric: its unit, which direction is better and,
// for a bounded metric, the share of the old median by which the new
// one may be worse before it counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string
	Why  string
	run  func(params) (*runResult, error)
}

var workloads = []workloadDef{
	{"relay-open", "open loop, Poisson arrivals at 10k/s then 40k/s: the shard idles between packets, so wake-up and per-syscall cost set latency and batching does little", runRelayOpen},
	{"relay-sat", "closed loop, 2 sockets x 32 in flight: full batches on a CPU-bound shard, so per-packet pipeline cost and syscall amortisation set replies/s/core", runRelaySat},
	{"sync-replay", "14-day 5-server trace (2 colluding) replayed through the ensemble as fast as one thread goes: core, window and ensemble do all the work, the serving path none", runSyncReplay},
	{"clock-reads", "a reader thread times clock reads while a writer thread feeds exchanges to the same clock: the published-readout trade of write cost for read cost, both sides in one row", runClockReads},
}

// gateMetrics are the end-to-end metrics of BENCHMARK.json: the five
// things every user of every workload pays for, so that every workload
// reports every one of them. What "operation" means on each workload
// is in the table of bench/README.md; which of the workload's own
// metrics (ownMetrics) each one is read from is in gateFrom.
var gateMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// ownMetrics are each workload's own end-to-end metrics, under the
// names its users would use, measured with tracing off and printed by
// every run. Their bounds are what -compare applies between two
// result files taken with the SAME seeds, which is why the accuracy
// and allocation rows, exact at a fixed seed, are held to 1 %.
var ownMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"lat_p50_us.r10k", "us", "lower", 0.10},
	{"lat_p50_us.r40k", "us", "lower", 0.10},
	{"rtt_p50_us", "us", "lower", 0.10},
	{"server_cpu_us_per_reply", "us", "lower", 0.10},
	{"replies_per_s", "1/s", "higher", 0.10},
	{"fail_frac", "frac", "lower", 0}, // absolute: +0.002, see failFracSlack
	{"exchanges_per_s", "1/s", "higher", 0.10},
	{"exchange_p50_us", "us", "lower", 0.10},
	{"cpu_us_per_exchange", "us", "lower", 0.10},
	{"offset_err_median_us", "us", "lower", 0.01},
	{"offset_err_iqr_us", "us", "lower", 0.01},
	{"offset_err_p99abs_us", "us", "lower", 0.01},
	{"converge_s", "s", "lower", 0.01},
	{"alloc_bytes_per_exchange", "B", "lower", 0.01},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"ensemble_read_ns", "ns", "lower", 0.10},
	{"clock_read_ns", "ns", "lower", 0.10},
	{"write_ns_p50", "ns", "lower", 0.10},
	{"reads_per_s", "1/s", "higher", 0.10},
	{"read_cpu_ns", "ns", "lower", 0.10},
}

// failFracSlack is the absolute rise of fail_frac that -compare lets
// pass: failures are counted against attempts, and a ratio near zero
// has no meaningful relative bound.
const failFracSlack = 0.002

// gateFrom says which of a workload's own metrics fills each gate
// metric, and the factor that converts its unit.
var gateFrom = map[string]map[string]struct {
	own   string
	scale float64
}{
	"relay-open": {
		"op_p50_us":     {"lat_p50_us.r40k", 1},
		"cpu_us_per_op": {"server_cpu_us_per_reply", 1},
		"ops_per_s":     {"replies_per_s", 1},
	},
	"relay-sat": {
		"op_p50_us":     {"rtt_p50_us", 1},
		"cpu_us_per_op": {"server_cpu_us_per_reply", 1},
		"ops_per_s":     {"replies_per_s", 1},
	},
	"sync-replay": {
		"op_p50_us":     {"exchange_p50_us", 1},
		"cpu_us_per_op": {"cpu_us_per_exchange", 1},
		"ops_per_s":     {"exchanges_per_s", 1},
	},
	"clock-reads": {
		"op_p50_us":     {"write_ns_p50", 1e-3},
		"cpu_us_per_op": {"read_cpu_ns", 1e-3},
		"ops_per_s":     {"reads_per_s", 1},
	},
}

// layerMetrics are the per-layer metrics of BENCHMARK.json, printed by
// a traced run. Layer = module name; gen is the benchmark's own
// generator, listed so that harness noise is visible. A layer the
// workload bypasses reports 0. What each one should move is in
// bench/README.md.
var layerMetrics = []metricDef{
	{"trace_overhead_frac", "frac", "lower", 0},

	{"gen.late_p99_us", "us", "lower", 0},
	{"gen.lat_p99_us.r10k", "us", "lower", 0},
	{"gen.lat_p99_us.r40k", "us", "lower", 0},
	{"gen.lat_p999_us.r40k", "us", "lower", 0},
	{"gen.rx_dwell_p50_us", "us", "lower", 0},
	{"gen.cpu_us_per_req", "us", "lower", 0},
	{"gen.samples", "count", "higher", 0},
	{"gen.self_us_per_req", "us", "lower", 0},

	{"ntp.sys_per_reply", "1/reply", "lower", 0},
	{"ntp.rx_batch_avg", "count", "higher", 0},
	{"ntp.server_busy_frac", "frac", "higher", 0},
	{"ntp.residence_p50_us", "us", "lower", 0},
	{"ntp.residence_p99_us", "us", "lower", 0},
	{"ntp.drop_frac", "frac", "lower", 0},
	{"ntp.stamp_clamped", "count", "lower", 0},
	{"ntp.rxcov", "frac", "higher", 0},
	{"ntp.marshal_ns", "ns", "lower", 0},
	{"ntp.unmarshal_ns", "ns", "lower", 0},
	{"ntp.exchange_us", "us", "lower", 0},
	{"ntp.client_kstamp_cov", "frac", "higher", 0},

	{"ratelimit.allow_ns", "ns", "lower", 0},
	{"ratelimit.allow_new_ns", "ns", "lower", 0},
	{"ratelimit.denied", "count", "lower", 0},

	{"tscclock.sample_ns", "ns", "lower", 0},
	{"tscclock.wrap_self_ns", "ns", "lower", 0},
	{"tscclock.ready_s", "s", "lower", 0},
	{"tscclock.scrape_ms", "ms", "lower", 0},
	{"tscclock.scrape_bytes", "B", "lower", 0},

	{"ensemble.process_ns", "ns", "lower", 0},
	{"ensemble.self_ns", "ns", "lower", 0},
	{"ensemble.process_batch_ns", "ns", "lower", 0},
	{"ensemble.allocs_per_exchange", "count", "lower", 0},
	{"ensemble.read_ns", "ns", "lower", 0},
	{"ensemble.falsetickers_final", "count", "higher", 0},
	{"ensemble.synced_frac", "frac", "higher", 0},
	{"ensemble.selected_avg", "count", "higher", 0},

	{"core.process_ns", "ns", "lower", 0},
	{"core.alloc_bytes_per_exchange", "B", "lower", 0},
	{"core.read_ns", "ns", "lower", 0},
	{"core.accept_frac", "frac", "higher", 0},
	{"core.poor_quality_frac", "frac", "lower", 0},
	{"core.offset_sanity_frac", "frac", "lower", 0},
	{"core.shift_events", "count", "lower", 0},

	{"window.mintracker_push_ns", "ns", "lower", 0},
	{"window.ring_push_ns", "ns", "lower", 0},

	{"sim.next_ns", "ns", "lower", 0},
	{"metrics.counter_inc_ns", "ns", "lower", 0},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
