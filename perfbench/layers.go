package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"github.com/aquascale/aquascale/internal/core"
	"github.com/aquascale/aquascale/internal/dataset"
	"github.com/aquascale/aquascale/internal/fusion"
	"github.com/aquascale/aquascale/internal/hydraulic"
	"github.com/aquascale/aquascale/internal/leak"
	"github.com/aquascale/aquascale/internal/matrix"
	"github.com/aquascale/aquascale/internal/mlearn"
	"github.com/aquascale/aquascale/internal/network"
	"github.com/aquascale/aquascale/internal/serve"
	"github.com/aquascale/aquascale/internal/social"
	"github.com/aquascale/aquascale/internal/telemetry"
)

// timed calls fn(i) for i in [0, n), records one span per call named
// after the layer, and returns each call's duration in µs. The span is
// added after the clock stops, so recording costs nothing measured.
func timed(tr *tracer, name string, n int, fn func(i int) error) ([]float64, error) {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := fn(i)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out[i] = micros(t1.Sub(t0))
		tr.add(name, "probe."+name, -1, t0, t1)
	}
	return out, nil
}

// serveLayers holds the serving path measured one layer at a time, each
// closed-loop on one goroutine over the same request bodies.
type serveLayers struct {
	roundtripP50, roundtripP99 float64
	handlerP50, handlerP99     float64
	submitP50, submitP99       float64
	localizeP50, localizeP99   float64 // both request classes together
	decode, encode             float64
}

// probeServe measures every serving layer on district d: the socket
// round trip, the fleet handler without a socket, Server.Submit + Done,
// System.LocalizeInto per request class, the compiled profile, the JSON
// codec, clique building and the baseline memo. n is the call count per
// layer.
func probeServe(d *district, rs *requestSet, results []*serve.Result, n int, tr *tracer, m *metricSet) (serveLayers, error) {
	var sl serveLayers
	k := len(rs.bodies)
	dec, err := timed(tr, "http.decode", n, func(i int) error {
		var req serve.ObserveRequest
		jd := json.NewDecoder(bytes.NewReader(rs.bodies[i%k]))
		jd.DisallowUnknownFields()
		return jd.Decode(&req)
	})
	if err != nil {
		return sl, err
	}
	var buf bytes.Buffer
	enc, err := timed(tr, "http.encode", n, func(i int) error {
		buf.Reset()
		je := json.NewEncoder(&buf)
		je.SetEscapeHTML(false)
		return je.Encode(jobReply{Job: "j-00000001", State: "done", Result: results[i%k]})
	})
	if err != nil {
		return sl, err
	}
	rt, err := timed(tr, "net.roundtrip", n, func(i int) error {
		raw, err := d.post(0, rs.bodies[i%k], -1, "")
		if err == nil {
			err = okReply(raw)
		}
		return err
	})
	if err != nil {
		return sl, err
	}
	handler, err := timed(tr, "http.handler_direct", n, func(i int) error {
		rec := httptest.NewRecorder()
		d.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, observePath, bytes.NewReader(rs.bodies[i%k])))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("HTTP %d: %s", rec.Code, rec.Body.Bytes())
		}
		return okReply(rec.Body.Bytes())
	})
	if err != nil {
		return sl, err
	}
	submit, err := timed(tr, "serve.submit_wait", n, func(i int) error {
		j, err := d.srv.Submit(rs.reqs[i%k])
		if err != nil {
			return err
		}
		<-j.Done()
		_, _, err = j.Status()
		return err
	})
	if err != nil {
		return sl, err
	}
	pred := &fusion.Prediction{Proba: make([]float64, len(d.sys.Network().Nodes))}
	var feat, read []float64
	loc, err := timed(tr, "core.localize", n, func(i int) error {
		_, err := d.sys.LocalizeInto(pred, rs.obs[i%k])
		return err
	})
	if err != nil {
		return sl, err
	}
	for i, v := range loc {
		if rs.readings[i%k] {
			read = append(read, v)
		} else {
			feat = append(feat, v)
		}
	}
	cp, err := d.sys.Profile().Compile()
	if err != nil {
		return sl, err
	}
	out := make([]float64, cp.NodeCount())
	predict, err := timed(tr, "mlearn.predict", n, func(i int) error {
		return cp.PredictProbaInto(rs.obs[i%k].Features, out)
	})
	if err != nil {
		return sl, err
	}
	pe := d.sys.Social().FalsePositiveRate
	if pe <= 0 {
		pe = 0.3
	}
	var withReports []int
	for i, r := range rs.reports {
		if len(r) > 0 {
			withReports = append(withReports, i)
		}
	}
	cliques := []float64{0}
	if len(withReports) > 0 {
		cliques, err = timed(tr, "social.cliques", n, func(i int) error {
			social.BuildCliques(d.sys.Network(), rs.reports[withReports[i%len(withReports)]], 30, pe)
			return nil
		})
		if err != nil {
			return sl, err
		}
	}
	baseline, err := timed(tr, "core.baseline", n, func(i int) error {
		_, err := d.sys.QuiescentBaseline(i % 24)
		return err
	})
	if err != nil {
		return sl, err
	}
	misses, err := baselineMisses(d.sys)
	if err != nil {
		return sl, err
	}

	sl = serveLayers{
		roundtripP50: percentile(rt, 50), roundtripP99: percentile(rt, 99),
		handlerP50: percentile(handler, 50), handlerP99: percentile(handler, 99),
		submitP50: percentile(submit, 50), submitP99: percentile(submit, 99),
		localizeP50: percentile(loc, 50), localizeP99: percentile(loc, 99),
		decode: median(dec), encode: median(enc),
	}
	m.set("http.decode_us", sl.decode)
	m.set("http.encode_us", sl.encode)
	m.set("http.handler_p50_us", sl.handlerP50)
	m.set("http.handler_p99_us", sl.handlerP99)
	m.set("net.loopback_us", sl.roundtripP50-sl.handlerP50)
	m.set("serve.submit_wait_p50_us", sl.submitP50)
	m.set("serve.submit_wait_p99_us", sl.submitP99)
	m.set("serve.queue_self_us", sl.submitP50-sl.localizeP50)
	m.set("core.localize_features_us", median(feat))
	m.set("core.localize_readings_us", median(read))
	m.set("core.baseline_us", median(baseline))
	m.set("core.baseline_misses", float64(misses))
	m.set("mlearn.predict_us", median(predict))
	m.set("social.cliques_us", median(cliques))
	return sl, nil
}

// baselineMisses recompiles sys and counts how many of the 24 pattern
// hours the quiescent-baseline memo has to solve on first use, read from
// the baseline_memo_miss events of a per-call trace.
func baselineMisses(sys *core.System) (int, error) {
	if err := sys.Compile(); err != nil {
		return 0, err
	}
	tr := telemetry.NewTrace(telemetry.TraceID{})
	ctx := telemetry.ContextWithTrace(context.Background(), tr)
	for h := 0; h < 24; h++ {
		if _, err := sys.QuiescentBaselineContext(ctx, h); err != nil {
			return 0, err
		}
	}
	misses := 0
	for _, e := range tr.Snapshot().Events {
		if e.Stage == string(telemetry.StageBaselineMemoMiss) {
			misses++
		}
	}
	return misses, nil
}

// setServeStatus copies the district's batching and refusal counters.
func setServeStatus(d *district, m *metricSet) {
	st := d.srv.Status()
	m.set("serve.batches", float64(st.Batches))
	share := 0.0
	if st.Done > 0 {
		share = float64(st.BatchedJobs) / float64(st.Done)
	}
	m.set("serve.batch_share", share)
	m.set("serve.rejected", float64(st.RejectedFull))
}

// readTime is when every workload's post-leak reading is taken: the
// factory's default onset (08:00) plus one 15-minute sampling slot.
const readTime = 8*time.Hour + 15*time.Minute

// probeHydraulic solves each scenario's leak state with a fresh solver
// and reports the per-solve time, the mean Newton iteration count and
// the retries the default (no-retry) policy consumed. It also reports
// the factor fill of the network's own head matrix.
func probeHydraulic(net *network.Network, scenarios []leak.Scenario, tr *tracer, m *metricSet) error {
	solver, err := hydraulic.NewSolver(net, hydraulic.Options{})
	if err != nil {
		return err
	}
	iters, retries := 0, 0
	us, err := timed(tr, "hydraulic.solve", len(scenarios), func(i int) error {
		res, stats, err := solver.SolveSteadyRetry(readTime, scenarios[i].Emitters(), nil, hydraulic.RetryPolicy{})
		retries += stats.Retries
		if err == nil {
			iters += res.Iterations
		}
		return err
	})
	if err != nil {
		return err
	}
	m.set("hydraulic.solve_us", median(us))
	m.set("hydraulic.newton_iters", float64(iters)/float64(len(scenarios)))
	m.set("hydraulic.retries", float64(retries))
	return nil
}

// probeMatrix factorizes and solves a weighted graph Laplacian with a
// unit diagonal shift on the network's own junction pattern — the shape
// of the Newton head system — through SparseSPD. matrix.flops is the
// arithmetic of one solve (forward, diagonal and backward sweeps),
// computed from the factor's nonzeros.
func probeMatrix(net *network.Network, reps int, tr *tracer, m *metricSet) error {
	ord := make([]int, len(net.Nodes))
	for i := range ord {
		ord[i] = -1
	}
	js := net.JunctionIndices()
	for k, v := range js {
		ord[v] = k
	}
	var pairs [][2]int
	for _, l := range net.Links {
		if a, b := ord[l.From], ord[l.To]; a >= 0 && b >= 0 && a != b {
			pairs = append(pairs, [2]int{a, b})
		}
	}
	n := len(js)
	sys, err := matrix.NewSparseSPD(n, pairs)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		sys.Add(sys.DiagSlot(i), 1)
	}
	for k, p := range pairs {
		w := 1 + float64(k%7)/7
		sys.Add(sys.PairSlot(p[0], p[1]), -w)
		sys.Add(sys.DiagSlot(p[0]), w)
		sys.Add(sys.DiagSlot(p[1]), w)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%11) - 5
	}
	x := make([]float64, n)
	factor, err := timed(tr, "matrix.factor", reps, func(int) error { return sys.Factorize() })
	if err != nil {
		return err
	}
	solve, err := timed(tr, "matrix.solve", reps, func(int) error { return sys.Solve(b, x) })
	if err != nil {
		return err
	}
	lnz := sys.FactorNNZ()
	m.set("matrix.factor_us", median(factor))
	m.set("matrix.solve_us", median(solve))
	m.set("matrix.nnz_l", float64(lnz))
	m.set("matrix.flops", float64(4*(lnz-n)+n))
	return nil
}

// probeSamples builds one sample per scenario through a reused
// dataset.Session (solve + sensor read + noisy baseline delta).
func probeSamples(f *dataset.Factory, scenarios []leak.Scenario, seed int64, tr *tracer, m *metricSet) error {
	sess, err := f.NewSession()
	if err != nil {
		return err
	}
	us, err := timed(tr, "dataset.sample", len(scenarios), func(i int) error {
		_, err := sess.FromScenario(scenarios[i], rand.New(rand.NewSource(seed+int64(i))))
		return err
	})
	if err != nil {
		return err
	}
	m.set("dataset.sample_us", median(us))
	return nil
}

// probeShards writes samples as a corpus through dataset.ShardWriter
// (256 per shard, one fsync each) into dir, then reads it back with
// OpenCorpus + Each. It reports write and read throughput, the bytes on
// disk and the fsync count, and returns the corpus bytes.
func probeShards(f *dataset.Factory, samples []dataset.Sample, seed int64, dir string, tr *tracer, m *metricSet) (int64, error) {
	plan, err := f.PlanCorpus(len(samples), seed, dataset.CorpusOptions{ShardSamples: 256})
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	var total int64
	sp := tr.begin("dataset.shard_write", "probe.dataset.shard_write", -1)
	t0 := time.Now()
	for s := 0; s < plan.ShardCount; s++ {
		w, err := dataset.NewShardWriter(filepath.Join(dir, dataset.ShardFileName(s)), plan.ShardMeta(s))
		if err != nil {
			return 0, err
		}
		first, cnt := plan.ShardRange(s)
		for i := first; i < first+cnt; i++ {
			if err := w.Append(i, samples[i].Retries, samples[i].Features, samples[i].Labels); err != nil {
				w.Abort()
				return 0, err
			}
		}
		if err := w.Close(); err != nil {
			return 0, err
		}
		total += w.Bytes()
	}
	write := time.Since(t0)
	tr.end(sp)
	readS, got, err := readCorpus(dir, tr)
	if err != nil {
		return 0, err
	}
	if got != len(samples) {
		return 0, fmt.Errorf("shard probe: read %d samples back, wrote %d", got, len(samples))
	}
	mib := float64(total) / (1 << 20)
	m.set("dataset.shard_write_mib_per_s", mib/write.Seconds())
	m.set("dataset.shard_bytes", float64(total))
	m.set("dataset.fsyncs", float64(plan.ShardCount))
	m.set("dataset.read_mib_per_s", mib/readS)
	return total, nil
}

// readCorpus opens dir and streams every sample once, returning the
// seconds taken and the sample count.
func readCorpus(dir string, tr *tracer) (float64, int, error) {
	sp := tr.begin("dataset.read", "probe.dataset.read", -1)
	defer tr.end(sp)
	t0 := time.Now()
	r, err := dataset.OpenCorpus(dir)
	if err != nil {
		return 0, 0, err
	}
	n := 0
	if err := r.Each(context.Background(), func(*dataset.CorpusSample) error { n++; return nil }); err != nil {
		return 0, 0, err
	}
	return time.Since(t0).Seconds(), n, nil
}

// probeFit fits the hybrid stack and each of its legs over the first
// outputs label columns of (x, y) and reports the legs' fit times, the
// stack's own share (hybrid minus legs) and the column count.
func probeFit(x [][]float64, y [][]int, outputs int, seed int64, tr *tracer, m *metricSet) (hybridS float64, err error) {
	if outputs <= 0 || outputs > len(y[0]) {
		outputs = len(y[0])
	}
	cols := make([][]int, len(y))
	for i := range y {
		cols[i] = y[i][:outputs]
	}
	fit := func(name string) (float64, error) {
		mo := mlearn.NewMultiOutput(func(s int64) mlearn.Classifier {
			c, _ := mlearn.NewByName(name, s) // every name here is registered
			return c
		}, seed)
		sp := tr.begin("mlearn.fit."+name, "probe.mlearn.fit", -1)
		defer tr.end(sp)
		t0 := time.Now()
		if err := mo.Fit(x, cols); err != nil {
			return 0, fmt.Errorf("fit %s: %w", name, err)
		}
		return time.Since(t0).Seconds(), nil
	}
	rf, err := fit("rf")
	if err != nil {
		return 0, err
	}
	svm, err := fit("svm")
	if err != nil {
		return 0, err
	}
	hybrid, err := fit(string(core.TechniqueHybridRSL))
	if err != nil {
		return 0, err
	}
	m.set("mlearn.fit_s.rf", rf)
	m.set("mlearn.fit_s.svm", svm)
	m.set("mlearn.fit_s.stack", hybrid-rf-svm)
	m.set("mlearn.fit_outputs", float64(outputs))
	return hybrid, nil
}
