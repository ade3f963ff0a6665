package aquascale_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/aquascale/aquascale"
)

// TestMetricNameStability is the observability contract test: dashboards
// and alert rules key on these exact instrument names, so renaming or
// dropping any of them is a breaking change that must show up in review.
// The golden set is everything the full pipeline (hydraulics, dataset
// factory, evaluation, serving, runtime gauges) binds on the registry.
func TestMetricNameStability(t *testing.T) {
	if testing.Short() {
		t.Skip("exercises the full pipeline")
	}
	reg := aquascale.EnableTelemetry()
	defer aquascale.DisableTelemetry()

	net := aquascale.BuildTestNet()
	baseline, err := aquascale.RunEPS(net, aquascale.EPSOptions{Duration: 2 * time.Hour, Step: time.Hour}, nil)
	if err != nil {
		t.Fatalf("RunEPS: %v", err)
	}
	placer, err := aquascale.NewPlacer(net, baseline)
	if err != nil {
		t.Fatalf("NewPlacer: %v", err)
	}
	sensors, err := placer.KMedoids(5, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatalf("KMedoids: %v", err)
	}
	leaks := aquascale.LeakGeneratorConfig{MinEvents: 1, MaxEvents: 2}
	factory, err := aquascale.NewFactory(net, sensors, aquascale.DatasetConfig{
		Noise: aquascale.DefaultSensorNoise,
		Leaks: leaks,
	})
	if err != nil {
		t.Fatalf("NewFactory: %v", err)
	}
	sys := aquascale.NewSystem(factory, net, aquascale.SystemConfig{})
	if err := sys.Train(40, aquascale.ProfileConfig{Technique: "linear", Seed: 5},
		rand.New(rand.NewSource(3))); err != nil {
		t.Fatalf("Train: %v", err)
	}
	// The out-of-core pipeline binds the corpus_* instruments; a
	// checkpointed streamed training binds core_checkpoint_*.
	corpusDir := t.TempDir()
	if _, err := factory.GenerateCorpus(context.Background(), 20, 6, corpusDir,
		aquascale.CorpusOptions{ShardSamples: 8}); err != nil {
		t.Fatalf("GenerateCorpus: %v", err)
	}
	corpus, err := aquascale.OpenCorpus(corpusDir)
	if err != nil {
		t.Fatalf("OpenCorpus: %v", err)
	}
	if _, err := aquascale.TrainProfileFromCorpus(context.Background(), corpus, len(net.Nodes),
		aquascale.ProfileConfig{Technique: "linear", Seed: 5},
		aquascale.CorpusTrainOptions{CheckpointPath: filepath.Join(corpusDir, "train.ckpt")}); err != nil {
		t.Fatalf("TrainProfileFromCorpus: %v", err)
	}
	if _, err := sys.Evaluate(2, leaks, aquascale.ObserveOptions{}, rand.New(rand.NewSource(4))); err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	// A nonzero fault probability makes serve.New build the injector, which
	// is what binds the faults_* instruments.
	server, err := aquascale.NewServer(sys, aquascale.ServeConfig{
		Workers: 1,
		Faults:  aquascale.FaultConfig{RequestSlow: 0.001, RequestDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer server.Shutdown(context.Background())
	stop := reg.StartRuntimeGauges(time.Hour)
	defer stop()

	snap := reg.Snapshot()
	var got []string
	for name := range snap.Counters {
		got = append(got, name)
	}
	for name := range snap.Gauges {
		got = append(got, name)
	}
	for name := range snap.Histograms {
		got = append(got, name)
	}
	for name := range snap.Spans {
		got = append(got, name)
	}
	sort.Strings(got)

	want := []string{
		"core_checkpoint_loads_total",
		"core_checkpoint_saves_total",
		"core_corpus_window_fit_seconds",
		"core_corpus_window_read_seconds",
		"core_eval_retries_total",
		"core_eval_scenarios_per_second",
		"core_eval_scenarios_total",
		"core_eval_skipped_total",
		"core_eval_worker_busy_seconds_total",
		"core_evaluate_parallel",
		"core_observe_seconds",
		"corpus_bytes_written_total",
		"corpus_samples_read_total",
		"corpus_samples_written_total",
		"corpus_shard_write_seconds",
		"corpus_shards_skipped_total",
		"corpus_shards_verified_total",
		"corpus_shards_written_total",
		"dataset_bad_features_total",
		"dataset_baseline_cache_hits_total",
		"dataset_baseline_cache_misses_total",
		"dataset_retries_total",
		"dataset_sample_seconds",
		"dataset_samples_generated_total",
		"dataset_session_reuse_total",
		"dataset_sessions_opened_total",
		"dataset_skipped_total",
		"faults_forced_nonconvergence_total",
		"faults_request_failed_total",
		"faults_request_slow_total",
		"faults_sensor_dropouts_total",
		"faults_sensor_nan_total",
		"faults_sensor_stuck_total",
		"hydraulic_convergence_failures_total",
		"hydraulic_eps_steps_total",
		"hydraulic_factor_fill_ratio",
		"hydraulic_injected_failures_total",
		"hydraulic_iterations_per_solve",
		"hydraulic_linear_solve_seconds",
		"hydraulic_newton_iterations_total",
		"hydraulic_numeric_factorizations_total",
		"hydraulic_retries_total",
		"hydraulic_retry_recoveries_total",
		"hydraulic_solves_total",
		"hydraulic_symbolic_factorizations_total",
		"hydraulic_warm_restarts_total",
		"runtime_gc_pause_total_seconds",
		"runtime_goroutines",
		"runtime_heap_inuse_bytes",
		"runtime_uptime_seconds",
		"serve_flat_eval_seconds",
		"serve_inflight_jobs",
		"serve_jobs_done_total",
		"serve_jobs_failed_total",
		"serve_jobs_panicked_total",
		"serve_jobs_submitted_total",
		"serve_profile_swaps_total",
		"serve_queue_depth",
		"serve_rejected_draining_total",
		"serve_rejected_queue_full_total",
		"serve_request_seconds",
		"serve_traces_captured_total",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("instrument name set drifted.\ngot:  %q\nwant: %q", got, want)
		for _, n := range diffStrings(want, got) {
			t.Errorf("missing (renamed or dropped — breaks dashboards): %s", n)
		}
		for _, n := range diffStrings(got, want) {
			t.Errorf("unexpected (new instrument? add it to the golden set): %s", n)
		}
	}
}

// diffStrings returns the elements of a not present in b.
func diffStrings(a, b []string) []string {
	in := make(map[string]bool, len(b))
	for _, s := range b {
		in[s] = true
	}
	var out []string
	for _, s := range a {
		if !in[s] {
			out = append(out, s)
		}
	}
	return out
}
