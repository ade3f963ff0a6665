package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/aquascale/aquascale/internal/core"
	"github.com/aquascale/aquascale/internal/dataset"
	"github.com/aquascale/aquascale/internal/leak"
	"github.com/aquascale/aquascale/internal/network"
)

// corpusScale sizes the corpus-grid workload.
type corpusScale struct {
	grid, samples, shard, eval, setupReps, minIters, fitOutputs, bodies, probeN int
	iot                                                                         float64 // IoT deployment percentage
}

func corpusScaleFor(cfg runConfig) corpusScale {
	if cfg.tiny {
		return corpusScale{grid: 6, samples: 60, shard: 16, eval: 10, setupReps: 2, minIters: 2, fitOutputs: 4, bodies: 8, probeN: 8, iot: 30}
	}
	return corpusScale{grid: 32, samples: 2000, shard: 256, eval: 1000, setupReps: 30, minIters: 3, fitOutputs: 16, bodies: 64, probeN: 500, iot: 3}
}

// window is TrainProfileFromCorpus's default junction window.
const window = 64

// corpusIter is one pass of generate → open → streamed train.
type corpusIter struct {
	genS, openS, trainS float64
	bytes               int64
	prof                *core.Profile
	r                   *dataset.CorpusReader
	dir                 string
}

// runCorpusGrid generates a sharded corpus on a 32×32 grid network
// (1026 nodes, 3% IoT), opens it, and trains a linear profile from it
// with the streamed trainer, repeatedly.
func runCorpusGrid(cfg runConfig) (*runResult, error) {
	sc := corpusScaleFor(cfg)
	res := newRunResult(cfg)
	build := func() *network.Network { return network.BuildGrid(network.GridConfig{Rows: sc.grid, Cols: sc.grid}) }
	setupS, d, err := repeatSetup(sc.setupReps, func() (*deployment, error) {
		return buildDeployment(build, sc.iot)
	}, nil)
	if err != nil {
		return nil, err
	}
	nodes := len(d.net.Nodes)
	ctx := context.Background()
	profCfg := core.ProfileConfig{Technique: core.TechniqueLinear, Seed: cfg.seed + 77}

	iterate := func(tr *tracer, id string) (corpusIter, error) {
		it := corpusIter{dir: filepath.Join(cfg.work, "corpus-"+id)}
		root := tr.begin("corpus.op", id, -1)
		defer tr.end(root)
		t0 := time.Now()
		sp := tr.begin("dataset.generate_corpus", id, root)
		cr, err := d.factory.GenerateCorpus(ctx, sc.samples, cfg.seed+11, it.dir, dataset.CorpusOptions{ShardSamples: sc.shard})
		tr.end(sp)
		if err != nil {
			return it, err
		}
		t1 := time.Now()
		sp = tr.begin("dataset.open_corpus", id, root)
		it.r, err = dataset.OpenCorpus(it.dir)
		tr.end(sp)
		if err != nil {
			return it, err
		}
		t2 := time.Now()
		sp = tr.begin("core.train_from_corpus", id, root)
		it.prof, err = core.TrainProfileFromCorpus(ctx, it.r, nodes, profCfg, core.CorpusTrainOptions{})
		tr.end(sp)
		if err != nil {
			return it, err
		}
		t3 := time.Now()
		it.genS, it.openS, it.trainS, it.bytes = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds(), cr.Bytes
		res.count(sc.samples, cr.SkippedScenarios)
		res.check(it.r.SampleCount() == sc.samples && it.r.ScenarioCount() == sc.samples,
			"corpus holds %d samples over %d scenarios, want %d", it.r.SampleCount(), it.r.ScenarioCount(), sc.samples)
		res.check(it.r.Match(d.factory) == nil, "corpus does not match its factory: %v", it.r.Match(d.factory))
		return it, nil
	}
	loop := func(tr *tracer, budget time.Duration, tag string) ([]corpusIter, error) {
		var its []corpusIter
		start := time.Now()
		for len(its) < sc.minIters || time.Since(start) < budget {
			it, err := iterate(tr, fmt.Sprintf("%s%d", tag, len(its)))
			if err != nil {
				return nil, err
			}
			its = append(its, it)
			if len(its) > 1 { // keep the first corpus for the checks below
				if err := os.RemoveAll(it.dir); err != nil {
					return nil, err
				}
			}
		}
		return its, nil
	}
	field := func(its []corpusIter, f func(corpusIter) float64) []float64 {
		out := make([]float64, len(its))
		for i, it := range its {
			out[i] = f(it)
		}
		return out
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))

	var its []corpusIter
	if cfg.trace {
		if its, err = loop(nil, budget/3, "plain"); err != nil {
			return nil, err
		}
		os.RemoveAll(its[0].dir)
		plainTrain := median(field(its, func(it corpusIter) float64 { return it.trainS }))
		if its, err = loop(res.tr, budget/3, "it"); err != nil {
			return nil, err
		}
		res.m.set("trace.op_ms", median(field(its, func(it corpusIter) float64 { return it.trainS }))*1000)
		res.m.set("trace.overhead_share", median(field(its, func(it corpusIter) float64 { return it.trainS }))/plainTrain-1)
	} else if its, err = loop(nil, budget, "it"); err != nil {
		return nil, err
	}

	// Checks outside the timed region, on the first corpus: the streamed
	// profile must be byte-identical to core.TrainProfile over the same
	// samples, and the profile's held-out score must be a valid one.
	first := its[0]
	ds, err := corpusDataset(first.r, d.net, cfg.seed+11)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	mem, err := core.TrainProfile(ds, nodes, profCfg)
	if err != nil {
		return nil, err
	}
	memFitS := time.Since(t0).Seconds()
	var a, b bytes.Buffer
	if err := first.prof.Save(&a); err != nil {
		return nil, err
	}
	if err := mem.Save(&b); err != nil {
		return nil, err
	}
	res.check(bytes.Equal(a.Bytes(), b.Bytes()), "streamed profile bytes differ from core.TrainProfile over the same samples")
	if err := d.sys.SetProfile(first.prof); err != nil {
		return nil, err
	}
	er, err := d.sys.EvaluateParallel(sc.eval, multiLeak,
		core.ObserveOptions{Sources: core.Sources{Weather: true, Human: true}}, 0, rand.New(rand.NewSource(cfg.seed+31)))
	if err != nil {
		return nil, err
	}
	res.count(sc.eval, len(er.Skipped))
	res.check(er.Evaluated == sc.eval, "evaluated %d of %d held-out scenarios", er.Evaluated, sc.eval)
	res.check(er.MeanHamming >= 0 && er.MeanHamming <= 1, "hamming %v outside [0,1]", er.MeanHamming)
	if res.digest, err = dirDigest(first.dir); err != nil {
		return nil, err
	}

	trainMs := field(its, func(it corpusIter) float64 { return it.trainS * 1000 })
	genRate := field(its, func(it corpusIter) float64 { return float64(sc.samples) / it.genS })
	windows := (len(first.r.Junctions()) + window - 1) / window
	m := res.m
	if !cfg.trace {
		res.note("%d iterations: streamed train ms %v, generated samples/s %v", len(its), trainMs, genRate)
		m.set("setup_s", setupS)
		m.set("hamming", er.MeanHamming)
		m.set("op_p50_ms", median(trainMs))
		m.set("throughput_per_s", median(genRate))
		return res, nil
	}

	readS, _, err := readCorpus(first.dir, res.tr)
	if err != nil {
		return nil, err
	}
	trainS := median(trainMs) / 1000
	m.set("core.train_windows", float64(windows))
	m.set("dataset.generate_s", median(field(its, func(it corpusIter) float64 { return it.genS })))
	m.set("dataset.bytes_read", float64(int64(windows)*first.bytes))
	// Streamed training is one corpus pass per junction window plus the
	// linear fits, which the in-memory TrainProfile times alone.
	m.set("trace.unaccounted_share", 1-(float64(windows)*readS+memFitS)/trainS)
	res.breakdown["corpus"] = map[string]any{
		"train_s": trainS, "windows": windows, "read_pass_s": readS, "in_memory_fit_s": memFitS,
		"generate_s": median(field(its, func(it corpusIter) float64 { return it.genS })),
	}
	if err := servedProbes(d, sc.bodies, sc.probeN, cfg, res); err != nil {
		return nil, err
	}
	if _, err := offlineLayers(d, ds.X(), ds.Y(), ds.Samples, sc.fitOutputs, cfg, res.tr, res.m); err != nil {
		return nil, err
	}
	return res, nil
}

// corpusDataset materializes a corpus as an in-memory dataset, attaching
// each sample's scenario (re-drawn from the corpus seed exactly as
// generation drew it).
func corpusDataset(r *dataset.CorpusReader, net *network.Network, seed int64) (*dataset.Dataset, error) {
	gen, err := leak.NewGenerator(net, multiLeak, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	scenarios := gen.Batch(r.ScenarioCount())
	ds := &dataset.Dataset{Junctions: r.Junctions()}
	err = r.Each(context.Background(), func(s *dataset.CorpusSample) error {
		ds.Samples = append(ds.Samples, dataset.Sample{
			Features: append([]float64(nil), s.Features...),
			Labels:   s.Labels(nil),
			Scenario: scenarios[s.Index],
			Retries:  s.Retries,
		})
		return nil
	})
	return ds, err
}

// dirDigest hashes the shard files of dir in name order.
func dirDigest(dir string) (string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*.aqsc"))
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
