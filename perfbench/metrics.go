package main

import (
	"fmt"
	"regexp"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds (pinned by TestBenchmarkJSON).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the user-visible metrics every workload reports (with
// --trace 0). Each workload fills them from its own pipeline; see
// README.md for what the operation and the throughput are per workload.
// The bounds are as tight as the run-to-run spread on a shared
// two-vCPU host allows (README.md lists the spreads measured).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"max_rss_mib", "MiB", "lower", 0.2},
	{"hamming", "score", "higher", 0.15},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
}

// perLayer are the traced run's metrics (--trace 1), each measured from
// outside the program around the public call named in README.md, on the
// workload's own deployment and inputs.
var perLayer = []metricDef{
	{"loadgen.late_p99_us", "us", "lower", 0},
	{"serve.open_p90_us", "us", "lower", 0},
	{"serve.open_p99_us", "us", "lower", 0},
	{"serve.max_rps", "1/s", "higher", 0},
	{"http.decode_us", "us", "lower", 0},
	{"http.encode_us", "us", "lower", 0},
	{"http.handler_p50_us", "us", "lower", 0},
	{"http.handler_p99_us", "us", "lower", 0},
	{"net.loopback_us", "us", "lower", 0},
	{"serve.submit_wait_p50_us", "us", "lower", 0},
	{"serve.submit_wait_p99_us", "us", "lower", 0},
	{"serve.queue_self_us", "us", "lower", 0},
	{"serve.batches", "count", "higher", 0},
	{"serve.batch_share", "ratio", "higher", 0},
	{"serve.rejected", "count", "lower", 0},
	{"serve.gap_p50_us", "us", "lower", 0},
	{"serve.gap_p99_us", "us", "lower", 0},
	{"core.localize_features_us", "us", "lower", 0},
	{"core.localize_readings_us", "us", "lower", 0},
	{"core.baseline_us", "us", "lower", 0},
	{"core.baseline_misses", "count", "lower", 0},
	{"core.observe_us", "us", "lower", 0},
	{"core.train_windows", "count", "lower", 0},
	{"mlearn.predict_us", "us", "lower", 0},
	{"mlearn.fit_s.rf", "s", "lower", 0},
	{"mlearn.fit_s.svm", "s", "lower", 0},
	{"mlearn.fit_s.stack", "s", "lower", 0},
	{"mlearn.fit_outputs", "count", "lower", 0},
	{"social.cliques_us", "us", "lower", 0},
	{"dataset.sample_us", "us", "lower", 0},
	{"dataset.generate_s", "s", "lower", 0},
	{"dataset.shard_write_mib_per_s", "MiB/s", "higher", 0},
	{"dataset.shard_bytes", "bytes", "lower", 0},
	{"dataset.fsyncs", "count", "lower", 0},
	{"dataset.read_mib_per_s", "MiB/s", "higher", 0},
	{"dataset.bytes_read", "bytes", "lower", 0},
	{"hydraulic.solve_us", "us", "lower", 0},
	{"hydraulic.newton_iters", "iters", "lower", 0},
	{"hydraulic.retries", "count", "lower", 0},
	{"matrix.factor_us", "us", "lower", 0},
	{"matrix.solve_us", "us", "lower", 0},
	{"matrix.nnz_l", "count", "lower", 0},
	{"matrix.flops", "count", "lower", 0},
	{"trace.op_ms", "ms", "lower", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
	{"trace.unaccounted_share", "ratio", "lower", 0},
}

// workloadDef names a workload and why it is in the benchmark.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"observe-mix", "open-loop HTTP observe traffic to a served EPA-NET hybrid district: serve queue and batching, JSON codec, compiled eval, fusion, baseline memo"},
	{"profile-epanet", "Phase-I profile build (generate + hybrid-rsl fit) and fused Phase-II evaluation on EPA-NET: the figure pipeline, dominated by mlearn fitting"},
	{"corpus-grid", "out-of-core corpus on a 1026-node grid: sparse steady solves and shard writes in generation, per-window shard re-reads in streamed linear training"},
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects one run's metrics, checking each name against its
// declaration.
type metricSet struct {
	defs map[string]metricDef
	vals map[string]metricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: map[string]metricDef{}, vals: map[string]metricValue{}}
	for _, d := range defs {
		m.defs[d.Name] = d
	}
	return m
}

// set records a metric; a name outside the declared set is a bug in the
// benchmark, so it panics.
func (m *metricSet) set(name string, v float64) {
	d, ok := m.defs[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: undeclared metric %q", name))
	}
	m.vals[name] = metricValue{Value: v, Unit: d.Unit}
}

// missing lists declared metrics that were never set.
func (m *metricSet) missing() []string {
	var out []string
	for name := range m.defs {
		if _, ok := m.vals[name]; !ok {
			out = append(out, name)
		}
	}
	return out
}
