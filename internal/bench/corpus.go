package bench

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/aquascale/aquascale/internal/core"
	"github.com/aquascale/aquascale/internal/dataset"
	"github.com/aquascale/aquascale/internal/network"
)

// CorpusThroughput measures the out-of-core generate→train pipeline
// against the in-memory path it replaces: corpus write throughput
// (shards to disk) and streamed training wall-clock vs.
// Factory.Generate + TrainProfile on EPA-NET. The figure also asserts
// the correctness contract the streamed path ships under: at the same
// seed, the streamed profile is bitwise-identical to the in-memory one.
// Structural columns are deterministic; throughput columns are
// wall-clock.
func CorpusThroughput(scale Scale) (*Figure, error) {
	scale = scale.withDefaults()
	fig := &Figure{
		ID:    "corpus-throughput",
		Title: "Out-of-core corpus: shard write throughput and streamed training",
	}

	tb, err := newTestbed(network.BuildEPANet)
	if err != nil {
		return nil, err
	}
	sensors, err := tb.sensorsAtPercent(60, scale.Seed+5)
	if err != nil {
		return nil, err
	}
	factory, err := tb.factoryFor(sensors, epanetMultiLeak, scale)
	if err != nil {
		return nil, err
	}
	profCfg := core.ProfileConfig{Technique: scale.Technique, Seed: scale.Seed + 77}

	// In-memory reference path.
	memGenStart := time.Now()
	ds, err := factory.Generate(scale.TrainSamples, rand.New(rand.NewSource(scale.Seed+11)))
	if err != nil {
		return nil, fmt.Errorf("bench: corpus-throughput generate: %w", err)
	}
	memGen := time.Since(memGenStart)
	memTrainStart := time.Now()
	memProfile, err := core.TrainProfile(ds, len(tb.net.Nodes), profCfg)
	if err != nil {
		return nil, fmt.Errorf("bench: corpus-throughput train: %w", err)
	}
	memTrain := time.Since(memTrainStart)

	// Streamed path: shards on disk, bounded-memory training.
	dir, err := os.MkdirTemp("", "aquascale-corpus-bench-")
	if err != nil {
		return nil, fmt.Errorf("bench: corpus-throughput: %w", err)
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	corpusGenStart := time.Now()
	res, err := factory.GenerateCorpus(ctx, scale.TrainSamples, scale.Seed+11, dir,
		dataset.CorpusOptions{ShardSamples: 256})
	if err != nil {
		return nil, fmt.Errorf("bench: corpus-throughput generate-corpus: %w", err)
	}
	corpusGen := time.Since(corpusGenStart)
	r, err := dataset.OpenCorpus(dir)
	if err != nil {
		return nil, fmt.Errorf("bench: corpus-throughput open: %w", err)
	}
	corpusTrainStart := time.Now()
	corpusProfile, err := core.TrainProfileFromCorpus(ctx, r, len(tb.net.Nodes), profCfg,
		core.CorpusTrainOptions{})
	if err != nil {
		return nil, fmt.Errorf("bench: corpus-throughput train-from-corpus: %w", err)
	}
	corpusTrain := time.Since(corpusTrainStart)

	// Parity: the streamed profile must be bitwise-identical in-memory's.
	var memBytes, corpusBytes bytes.Buffer
	if err := memProfile.Save(&memBytes); err != nil {
		return nil, fmt.Errorf("bench: corpus-throughput save: %w", err)
	}
	if err := corpusProfile.Save(&corpusBytes); err != nil {
		return nil, fmt.Errorf("bench: corpus-throughput save: %w", err)
	}
	if !bytes.Equal(memBytes.Bytes(), corpusBytes.Bytes()) {
		return nil, fmt.Errorf("bench: corpus-throughput: streamed profile diverged from in-memory profile")
	}

	mib := float64(res.Bytes) / (1 << 20)
	table := Table{
		Title: fmt.Sprintf("generate→train pipeline, EPA-NET, %d sensors, %d scenarios (%d shards, %.1f MiB on disk)",
			len(sensors), scale.TrainSamples, res.Shards, mib),
		Columns: []string{"path", "generate s", "train s", "total s"},
		Rows: [][]string{
			{"in-memory", fmt.Sprintf("%.2f", memGen.Seconds()),
				fmt.Sprintf("%.2f", memTrain.Seconds()),
				fmt.Sprintf("%.2f", (memGen + memTrain).Seconds())},
			{"streamed corpus", fmt.Sprintf("%.2f", corpusGen.Seconds()),
				fmt.Sprintf("%.2f", corpusTrain.Seconds()),
				fmt.Sprintf("%.2f", (corpusGen + corpusTrain).Seconds())},
		},
	}
	fig.Tables = append(fig.Tables, table)
	fig.Tables = append(fig.Tables, Table{
		Title:   "corpus write throughput",
		Columns: []string{"shards", "samples", "MiB", "MiB/s", "samples/s"},
		Rows: [][]string{{
			fmt.Sprintf("%d", res.Shards),
			fmt.Sprintf("%d", res.Samples),
			fmt.Sprintf("%.1f", mib),
			fmt.Sprintf("%.1f", mib/corpusGen.Seconds()),
			fmt.Sprintf("%.0f", float64(res.Samples)/corpusGen.Seconds()),
		}},
	})
	fig.Notes = append(fig.Notes,
		"streamed profile bitwise-identical to the in-memory profile at the same seed (also pinned by TestTrainFromCorpusBitIdentical)",
		"streamed training reads the corpus once, holding X plus one label bit per junction and sample resident — corpus size no longer bounds trainable scale",
		"generation throughput is solver-bound; the shard writer adds CRC-32C and one fsync+rename per shard",
	)
	return fig, nil
}
