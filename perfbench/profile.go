package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/aquascale/aquascale/internal/core"
	"github.com/aquascale/aquascale/internal/dataset"
	"github.com/aquascale/aquascale/internal/network"
)

// profileScale sizes the profile-epanet workload.
type profileScale struct {
	train, eval, setupReps, minIters, bodies, probeN int
}

func profileScaleFor(cfg runConfig) profileScale {
	if cfg.tiny {
		return profileScale{train: 40, eval: 20, setupReps: 2, minIters: 2, bodies: 8, probeN: 8}
	}
	return profileScale{train: 800, eval: 2000, setupReps: 200, minIters: 3, bodies: 64, probeN: 500}
}

// profileIter is one pass of the figure pipeline.
type profileIter struct {
	genS, fitS, profileS float64
	evalRate, hamming    float64
	ds                   *dataset.Dataset
}

// runProfileEPANet repeats the figure pipeline on EPA-NET (60% IoT):
// generate 800 multi-leak scenarios, fit a hybrid-rsl profile, then
// evaluate 2000 fused (weather + human) cold scenarios.
func runProfileEPANet(cfg runConfig) (*runResult, error) {
	sc := profileScaleFor(cfg)
	res := newRunResult(cfg)
	setupS, d, err := repeatSetup(sc.setupReps, func() (*deployment, error) {
		return buildDeployment(network.BuildEPANet, 60)
	}, nil)
	if err != nil {
		return nil, err
	}
	nodes := len(d.net.Nodes)

	iterate := func(tr *tracer, id string) (profileIter, error) {
		var it profileIter
		root := tr.begin("profile.op", id, -1)
		t0 := time.Now()
		sp := tr.begin("dataset.generate", id, root)
		ds, err := d.factory.Generate(sc.train, rand.New(rand.NewSource(cfg.seed+11)))
		tr.end(sp)
		if err != nil {
			return it, err
		}
		t1 := time.Now()
		sp = tr.begin("core.train_profile", id, root)
		prof, err := core.TrainProfile(ds, nodes, core.ProfileConfig{Technique: core.TechniqueHybridRSL, Seed: cfg.seed + 77})
		tr.end(sp)
		if err != nil {
			return it, err
		}
		t2 := time.Now()
		tr.end(root)
		if err := d.sys.SetProfile(prof); err != nil {
			return it, err
		}
		sp = tr.begin("core.evaluate", id, -1)
		er, err := d.sys.EvaluateParallel(sc.eval, multiLeak,
			core.ObserveOptions{Sources: core.Sources{Weather: true, Human: true}}, 0, rand.New(rand.NewSource(cfg.seed+31)))
		tr.end(sp)
		if err != nil {
			return it, err
		}
		evalS := time.Since(t2).Seconds()
		res.count(sc.train+sc.eval, len(ds.Skipped)+len(er.Skipped))
		res.check(er.Evaluated == sc.eval && len(er.Skipped) == 0,
			"EvaluateParallel evaluated %d of %d scenarios (%d skipped)", er.Evaluated, sc.eval, len(er.Skipped))
		res.check(er.MeanHamming >= 0 && er.MeanHamming <= 1, "hamming %v outside [0,1]", er.MeanHamming)
		return profileIter{genS: t1.Sub(t0).Seconds(), fitS: t2.Sub(t1).Seconds(), profileS: t2.Sub(t0).Seconds(),
			evalRate: float64(sc.eval) / evalS, hamming: er.MeanHamming, ds: ds}, nil
	}
	// loop runs iterations until budget has passed (at least minIters).
	loop := func(tr *tracer, budget time.Duration, tag string) ([]profileIter, error) {
		var its []profileIter
		start := time.Now()
		for len(its) < sc.minIters || time.Since(start) < budget {
			it, err := iterate(tr, fmt.Sprintf("%s%d", tag, len(its)))
			if err != nil {
				return nil, err
			}
			if len(its) > 0 {
				res.check(it.hamming == its[0].hamming, "hamming changed between iterations: %v then %v", its[0].hamming, it.hamming)
			}
			its = append(its, it)
		}
		return its, nil
	}
	field := func(its []profileIter, f func(profileIter) float64) []float64 {
		out := make([]float64, len(its))
		for i, it := range its {
			out[i] = f(it)
		}
		return out
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))

	if !cfg.trace {
		its, err := loop(nil, budget, "it")
		if err != nil {
			return nil, err
		}
		res.digest = datasetDigest(its[0].ds)
		profile := field(its, func(it profileIter) float64 { return it.profileS * 1000 })
		res.note("%d iterations: profile ms %v, eval scenarios/s %v", len(its), profile,
			field(its, func(it profileIter) float64 { return it.evalRate }))
		m := res.m
		m.set("setup_s", setupS)
		m.set("hamming", its[0].hamming)
		m.set("op_p50_ms", median(profile))
		m.set("throughput_per_s", median(field(its, func(it profileIter) float64 { return it.evalRate })))
		return res, nil
	}

	// Traced run: a third of the budget without spans, a third with.
	plain, err := loop(nil, budget/3, "plain")
	if err != nil {
		return nil, err
	}
	traced, err := loop(res.tr, budget/3, "it")
	if err != nil {
		return nil, err
	}
	res.digest = datasetDigest(traced[0].ds)
	opPlain := median(field(plain, func(it profileIter) float64 { return it.profileS }))
	opTraced := median(field(traced, func(it profileIter) float64 { return it.profileS }))
	genS := median(field(traced, func(it profileIter) float64 { return it.genS }))
	m := res.m
	m.set("trace.op_ms", opTraced*1000)
	m.set("trace.overhead_share", opTraced/opPlain-1)
	m.set("dataset.generate_s", genS)
	m.set("core.train_windows", 0)
	m.set("dataset.bytes_read", 0)

	ds := traced[0].ds
	if err := servedProbes(d, sc.bodies, sc.probeN, cfg, res); err != nil {
		return nil, err
	}
	hybridS, err := offlineLayers(d, ds.X(), ds.Y(), ds.Samples, 0, cfg, res.tr, m)
	if err != nil {
		return nil, err
	}
	// The profile build is generation plus the hybrid fit of every
	// junction column; what the separately timed layers leave over is
	// TrainProfile's own work and the benchmark's glue.
	m.set("trace.unaccounted_share", 1-(genS+hybridS)/opTraced)
	res.breakdown["profile"] = map[string]any{
		"op_s": opTraced, "generate_s": genS, "hybrid_fit_s": hybridS,
		"fit_s": median(field(traced, func(it profileIter) float64 { return it.fitS })),
	}
	return res, nil
}

// servedProbes serves the workload's trained system as one district and
// measures the serving layers on bodies built from its own cold
// scenarios, behind the same served-vs-offline gate as observe-mix.
func servedProbes(d *deployment, bodies, probeN int, cfg runConfig, res *runResult) error {
	dist, err := startDistrict(d.sys, nil)
	if err != nil {
		return err
	}
	defer dist.close()
	rs, err := buildRequests(d.sys, bodies, cfg.seed+23, res.tr)
	if err != nil {
		return err
	}
	g, err := dist.gate(rs)
	if err != nil {
		return err
	}
	res.count(g.requests, g.failed)
	res.checkGate(g)
	k := len(rs.bodies)
	run := func(rate float64, dur time.Duration) (loadStep, error) {
		st, err := openLoop(rate, dur, 2, func(c, i int, _ time.Time) error {
			raw, err := dist.post(c, rs.bodies[i%k], -1, "")
			if err == nil {
				err = okReply(raw)
			}
			return err
		})
		res.count(st.sent, st.failed)
		res.check(st.failed == 0, "%d of %d probe requests failed", st.failed, st.sent)
		return st, err
	}
	open, err := run(500, 2*time.Second)
	if err != nil {
		return err
	}
	maxRPS, _, err := ladder(1000, 50000, 8, 3, func(r float64) (loadStep, error) { return run(r, 400*time.Millisecond) })
	if err != nil {
		return err
	}
	res.m.set("serve.max_rps", maxRPS)
	if _, err := servedLayers(dist, rs, g.results, open, probeN, res.tr, res.m); err != nil {
		return err
	}
	res.m.set("core.observe_us", median(rs.observe))
	return nil
}

// datasetDigest hashes every sample's features and labels, in order.
func datasetDigest(ds *dataset.Dataset) string {
	h := sha256.New()
	var b [8]byte
	for _, s := range ds.Samples {
		for _, v := range s.Features {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		for _, l := range s.Labels {
			h.Write([]byte{byte(l)})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
