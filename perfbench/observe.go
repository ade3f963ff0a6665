package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"github.com/aquascale/aquascale/internal/core"
	"github.com/aquascale/aquascale/internal/dataset"
	"github.com/aquascale/aquascale/internal/leak"
	"github.com/aquascale/aquascale/internal/network"
	"github.com/aquascale/aquascale/internal/serve"
)

// servedSeed fixes the training data and fit of the served profile.
const servedSeed = 1

// observeScale sizes the observe-mix workload.
type observeScale struct {
	train     int           // training scenarios behind the served profile
	bodies    int           // distinct request bodies
	probeN    int           // calls per layer probe (traced run)
	setupReps int           // daemon start-ups timed for setup_s
	rate      float64       // fixed open-loop rate, requests/s
	limitUs   float64       // p99 latency limit for the rate ladder
	phase     time.Duration // fixed-rate phase
	step      time.Duration // one ladder step
}

func observeScaleFor(cfg runConfig) observeScale {
	s := observeScale{train: 800, bodies: 1024, probeN: 2000, setupReps: 30, rate: 1000, limitUs: 50000}
	if cfg.tiny {
		s = observeScale{train: 60, bodies: 24, probeN: 24, setupReps: 2, rate: 200, limitUs: 50000}
	}
	// A quarter of the run at the fixed rate, the rest saturated. The
	// traced run spends that rest on the saturated loop with and without
	// spans and on the rate ladder (up to seven coarse rates and three
	// bisections; about twelve steps with the repeats of failing ones).
	s.phase = time.Duration(cfg.seconds / 4 * float64(time.Second))
	s.step = time.Duration(cfg.seconds / 4 / 12 * float64(time.Second))
	return s
}

// runObserveMix serves one EPA-NET hybrid-rsl district (60% IoT,
// compiled) over loopback HTTP and drives it with an open loop of
// observe requests, half "features" and half "readings".
func runObserveMix(cfg runConfig) (*runResult, error) {
	sc := observeScaleFor(cfg)
	res := newRunResult(cfg)
	tr := res.tr

	// Phase I, once: train and save the profile the district serves. Like
	// the placement it is fixed, so the seed varies only the traffic.
	d0, err := buildDeployment(network.BuildEPANet, 60)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	ds, err := d0.factory.Generate(sc.train, rand.New(rand.NewSource(servedSeed+11)))
	if err != nil {
		return nil, err
	}
	genS := time.Since(t0).Seconds()
	res.count(sc.train, len(ds.Skipped))
	prof, err := core.TrainProfile(ds, len(d0.net.Nodes), core.ProfileConfig{Technique: core.TechniqueHybridRSL, Seed: servedSeed + 77})
	if err != nil {
		return nil, err
	}
	var saved bytes.Buffer
	if err := prof.Save(&saved); err != nil {
		return nil, err
	}

	// Set-up is the daemon's start-up: rebuild the deployment, load the
	// saved profile, compile it into a fleet and listen.
	setupS, dist, err := repeatSetup(sc.setupReps, func() (*district, error) {
		d, err := buildDeployment(network.BuildEPANet, 60)
		if err != nil {
			return nil, err
		}
		p, err := core.LoadProfile(bytes.NewReader(saved.Bytes()))
		if err != nil {
			return nil, err
		}
		if err := d.sys.SetProfile(p); err != nil {
			return nil, err
		}
		return startDistrict(d.sys, tr)
	}, func(d *district) { _ = d.close() })
	if err != nil {
		return nil, err
	}
	defer dist.close()

	rs, err := buildRequests(dist.sys, sc.bodies, cfg.seed+23, tr)
	if err != nil {
		return nil, err
	}
	res.digest = rs.digest

	// Correctness gate, which also warms every pattern hour's baseline.
	g, err := dist.gate(rs)
	if err != nil {
		return nil, err
	}
	res.count(g.requests, g.failed)
	res.checkGate(g)

	k := len(rs.bodies)
	post := func(c, i, span int, trace string) error {
		raw, err := dist.post(c, rs.bodies[i%k], span, trace)
		if err == nil {
			err = okReply(raw)
		}
		return err
	}
	send := func(c, i int, _ time.Time) error { return post(c, i, -1, "") }
	run := func(rate float64, dur time.Duration) (loadStep, error) {
		st, err := openLoop(rate, dur, 2, send)
		res.count(st.sent, st.failed)
		res.check(st.failed == 0, "%d of %d requests at %.0f req/s failed", st.failed, st.sent, rate)
		return st, err
	}
	saturate := func(dur time.Duration, send func(c, i int) error) saturation {
		sat := closedLoop(dur, 2, send)
		res.count(sat.sent, sat.failed)
		res.check(sat.failed == 0, "%d of %d closed-loop requests failed", sat.failed, sat.sent)
		return sat
	}

	// The fixed-rate open loop, as independent operators would load the
	// service.
	fixed, err := run(sc.rate, sc.phase)
	if err != nil {
		return nil, err
	}
	res.note("fixed %.0f req/s: %d requests, p50 %.1f us, p90 %.1f us, p99 %.1f us, late p99 %.1f us",
		sc.rate, fixed.sent, fixed.p50(), fixed.tail(90, 8), fixed.p99(), percentile(fixed.late, 99))

	if !cfg.trace {
		// Both connections busy back to back: the CPUs never idle, so the
		// latency is the serving path's own cost under full load and not
		// the host's wake-up delays, which dominate an idle open loop here.
		sat := saturate(2*sc.phase, func(c, i int) error { return post(c, i, -1, "") })
		res.note("saturated: %.1f req/s, p50 %.1f us", sat.rate, percentile(sat.lat, 50))
		m := res.m
		m.set("setup_s", setupS)
		m.set("hamming", g.hamming)
		m.set("op_p50_ms", percentile(sat.lat, 50)/1000)
		m.set("throughput_per_s", sat.rate)
		return res, nil
	}

	// Traced run: the saturated loop without spans, then with a span per
	// request (http.roundtrip → http.handler, the handler span recorded by
	// the server-side wrapper).
	plain := saturate(sc.phase/2, func(c, i int) error { return post(c, i, -1, "") })
	traced := saturate(sc.phase/2, func(c, i int) error {
		id := fmt.Sprintf("r%d", i)
		rt := tr.begin("http.roundtrip", id, -1)
		err := post(c, i, rt, id)
		tr.end(rt)
		return err
	})
	opPlain, opTraced := percentile(plain.lat, 50), percentile(traced.lat, 50)

	// The rate ladder: the highest open-loop rate that holds the latency
	// limit with no growing backlog.
	maxRPS, steps, err := ladder(2*sc.rate, sc.limitUs, 7, 3, func(r float64) (loadStep, error) { return run(r, sc.step) })
	if err != nil {
		return nil, err
	}
	for _, s := range steps {
		res.note("ladder %.0f req/s: p99 %.0f us, backlog %.0f us, failed %d, meets limit %v",
			s.rate, s.p99(), s.backlogUs(), s.failed, s.meets(sc.limitUs))
	}

	m := res.m
	m.set("serve.max_rps", maxRPS)
	sl, err := servedLayers(dist, rs, g.results, fixed, sc.probeN, tr, m)
	if err != nil {
		return nil, err
	}
	m.set("trace.op_ms", opTraced/1000)
	m.set("trace.overhead_share", opTraced/opPlain-1)
	accounted := (sl.roundtripP50 - sl.handlerP50) + sl.decode + sl.encode + sl.submitP50
	m.set("trace.unaccounted_share", 1-accounted/opPlain)
	res.breakdown["gap"] = gapBreakdown(fixed, sl, res)

	m.set("core.observe_us", median(rs.observe))
	m.set("core.train_windows", 0)
	m.set("dataset.generate_s", genS)
	m.set("dataset.bytes_read", 0)
	if _, err := offlineLayers(d0, ds.X(), ds.Y(), ds.Samples, 0, cfg, tr, m); err != nil {
		return nil, err
	}
	return res, nil
}

// servedLayers runs the serving-path probes on d and records the load
// generator's lateness, the batching counters and the served-minus-
// compiled gaps against the open-loop step open.
func servedLayers(d *district, rs *requestSet, results []*serve.Result, open loadStep, n int, tr *tracer, m *metricSet) (serveLayers, error) {
	setServeStatus(d, m)
	sl, err := probeServe(d, rs, results, n, tr, m)
	if err != nil {
		return sl, err
	}
	m.set("loadgen.late_p99_us", percentile(open.late, 99))
	m.set("serve.open_p90_us", open.tail(90, 8))
	m.set("serve.open_p99_us", open.p99())
	m.set("serve.gap_p50_us", open.p50()-sl.localizeP50)
	m.set("serve.gap_p99_us", open.p99()-sl.localizeP99)
	return sl, nil
}

// gapBreakdown attributes the served-minus-compiled latency gap, at p50
// and at p99, to the layers between the load generator and the compiled
// evaluation, names the largest share, and notes it in the result.
func gapBreakdown(open loadStep, sl serveLayers, res *runResult) map[string]any {
	out := map[string]any{}
	for _, q := range []struct {
		name                                     string
		served, late, roundtrip, handler, submit float64
		localize                                 float64
	}{
		{"p50", open.p50(), percentile(open.late, 50), sl.roundtripP50, sl.handlerP50, sl.submitP50, sl.localizeP50},
		{"p99", open.p99(), percentile(open.late, 99), sl.roundtripP99, sl.handlerP99, sl.submitP99, sl.localizeP99},
	} {
		parts := []struct {
			layer string
			us    float64
		}{
			{"loadgen lateness", q.late},
			{"open-loop contention", q.served - q.late - q.roundtrip},
			{"net loopback", q.roundtrip - q.handler},
			{"http codec", sl.decode + sl.encode},
			{"http handler other", q.handler - q.submit - sl.decode - sl.encode},
			{"serve queue", q.submit - q.localize},
		}
		shares := map[string]float64{}
		top, topUs := "", 0.0
		for _, p := range parts {
			shares[p.layer] = p.us
			if p.us > topUs {
				top, topUs = p.layer, p.us
			}
		}
		gap := q.served - q.localize
		out[q.name] = map[string]any{"served_us": q.served, "compiled_us": q.localize, "gap_us": gap, "parts_us": shares, "largest": top}
		res.note("served-minus-compiled gap %s: served %.1f us vs compiled %.1f us, gap %.1f us; largest share %s (%.1f us); parts %v",
			q.name, q.served, q.localize, gap, top, topUs, shares)
	}
	return out
}

// offlineLayers measures the layers below serving on the workload's
// deployment d: hybrid fit legs on (x, y), sample building, shard write
// and read, steady solves and sparse factorization, using the workload's
// own samples and scenarios.
// It returns the probe's hybrid fit time.
func offlineLayers(d *deployment, x [][]float64, y [][]int, samples []dataset.Sample, fitOutputs int, cfg runConfig, tr *tracer, m *metricSet) (float64, error) {
	n := 200
	if cfg.tiny {
		n = 10
	}
	if n > len(samples) {
		n = len(samples)
	}
	scenarios := make([]leak.Scenario, n)
	for i := range scenarios {
		scenarios[i] = samples[i].Scenario
	}
	hybridS, err := probeFit(x, y, fitOutputs, cfg.seed+77, tr, m)
	if err != nil {
		return 0, err
	}
	if err := probeSamples(d.factory, scenarios, cfg.seed+29, tr, m); err != nil {
		return 0, err
	}
	if _, err := probeShards(d.factory, samples, cfg.seed+11, filepath.Join(cfg.work, "probe-shards"), tr, m); err != nil {
		return 0, err
	}
	if err := probeHydraulic(d.net, scenarios, tr, m); err != nil {
		return 0, err
	}
	reps := 2000
	if cfg.tiny {
		reps = 10
	}
	return hybridS, probeMatrix(d.net, reps, tr, m)
}
