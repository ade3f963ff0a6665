package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/aquascale/aquascale/internal/dataset"
	"github.com/aquascale/aquascale/internal/mlearn"
	"github.com/aquascale/aquascale/internal/network"
	"github.com/aquascale/aquascale/internal/sensor"
	"github.com/aquascale/aquascale/internal/telemetry"
)

// profileBytes serializes a profile for bitwise comparison.
func profileBytes(t *testing.T, p *Profile) []byte {
	t.Helper()
	if p == nil {
		t.Fatal("nil profile")
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Profile.Save: %v", err)
	}
	return buf.Bytes()
}

// TestTrainFromCorpusBitIdentical pins the tentpole acceptance
// criterion: training from a streamed corpus produces a profile
// bitwise-identical to the in-memory Generate+TrainOn path at the same
// seed, on both evaluation networks.
func TestTrainFromCorpusBitIdentical(t *testing.T) {
	cases := []struct {
		name      string
		net       *network.Network
		technique Technique
		samples   int
	}{
		{"EPA-NET/hybrid", network.BuildEPANet(), TechniqueHybridRSL, 50},
		{"WSSC/rf", network.BuildWSSCSubnet(), TechniqueRF, 30},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			factory := testFactory(t, tc.net)
			const genSeed, profSeed = 21, 77
			cfg := ProfileConfig{Technique: tc.technique, Seed: profSeed}

			memSys := NewSystem(factory, tc.net, SystemConfig{})
			ds, err := factory.Generate(tc.samples, rand.New(rand.NewSource(genSeed)))
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			if err := memSys.TrainOn(ds, cfg); err != nil {
				t.Fatalf("TrainOn: %v", err)
			}

			dir := t.TempDir()
			if _, err := factory.GenerateCorpus(context.Background(), tc.samples, genSeed, dir,
				dataset.CorpusOptions{ShardSamples: 16}); err != nil {
				t.Fatalf("GenerateCorpus: %v", err)
			}
			r, err := dataset.OpenCorpus(dir)
			if err != nil {
				t.Fatalf("OpenCorpus: %v", err)
			}
			corpusSys := NewSystem(factory, tc.net, SystemConfig{})
			// A window smaller than the junction count forces multiple
			// label passes over the corpus.
			if err := corpusSys.TrainFromCorpus(context.Background(), r, cfg,
				CorpusTrainOptions{JunctionWindow: 10}); err != nil {
				t.Fatalf("TrainFromCorpus: %v", err)
			}

			want := profileBytes(t, memSys.Profile())
			got := profileBytes(t, corpusSys.Profile())
			if !bytes.Equal(got, want) {
				t.Fatalf("streamed profile diverges from in-memory profile (%d vs %d bytes)",
					len(got), len(want))
			}
		})
	}
}

// corpusFixture generates a small corpus on the test network and
// returns its reader plus the factory that made it.
func corpusFixture(t *testing.T, samples int, seed int64) (*dataset.Factory, *dataset.CorpusReader) {
	t.Helper()
	factory := testFactory(t, network.BuildTestNet())
	dir := t.TempDir()
	if _, err := factory.GenerateCorpus(context.Background(), samples, seed, dir,
		dataset.CorpusOptions{ShardSamples: 10}); err != nil {
		t.Fatalf("GenerateCorpus: %v", err)
	}
	r, err := dataset.OpenCorpus(dir)
	if err != nil {
		t.Fatalf("OpenCorpus: %v", err)
	}
	return factory, r
}

// TestTrainFromCorpusCheckpointResume pins the training-resume
// acceptance criterion: a checkpoint interrupted anywhere — at a window
// boundary, mid-frame, or corrupted in its tail — resumes to the
// bitwise-identical profile of an uninterrupted run.
func TestTrainFromCorpusCheckpointResume(t *testing.T) {
	_, r := corpusFixture(t, 30, 13)
	net := network.BuildTestNet()
	cfg := ProfileConfig{Technique: TechniqueLinear, Seed: 7}
	ckpt := filepath.Join(t.TempDir(), "train.ckpt")
	opt := CorpusTrainOptions{JunctionWindow: 2, CheckpointPath: ckpt}

	full, err := TrainProfileFromCorpus(context.Background(), r, len(net.Nodes), cfg, opt)
	if err != nil {
		t.Fatalf("TrainProfileFromCorpus: %v", err)
	}
	want := profileBytes(t, full)
	complete, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}

	// Crash-equivalent interruptions: the checkpoint cut at several
	// depths, including mid-frame and inside the header region's frames.
	cuts := []int{len(complete) - 7, len(complete) / 2, 70, len(complete)}
	for _, cut := range cuts {
		if cut > len(complete) {
			continue
		}
		if err := os.WriteFile(ckpt, complete[:cut], 0o644); err != nil {
			t.Fatalf("truncate checkpoint: %v", err)
		}
		p, err := TrainProfileFromCorpus(context.Background(), r, len(net.Nodes), cfg, opt)
		if err != nil {
			t.Fatalf("resume from cut %d: %v", cut, err)
		}
		if got := profileBytes(t, p); !bytes.Equal(got, want) {
			t.Fatalf("resume from cut %d diverges from uninterrupted profile", cut)
		}
	}

	// A corrupt tail byte invalidates its frame; resume refits from there.
	damaged := append([]byte(nil), complete...)
	damaged[len(damaged)-20] ^= 0x10
	if err := os.WriteFile(ckpt, damaged, 0o644); err != nil {
		t.Fatalf("corrupt checkpoint: %v", err)
	}
	p, err := TrainProfileFromCorpus(context.Background(), r, len(net.Nodes), cfg, opt)
	if err != nil {
		t.Fatalf("resume from corrupt tail: %v", err)
	}
	if got := profileBytes(t, p); !bytes.Equal(got, want) {
		t.Fatal("resume from corrupt tail diverges from uninterrupted profile")
	}

	// After a fully-resumed run the checkpoint is restored to its
	// complete form.
	final, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	if !bytes.Equal(final, complete) {
		t.Fatalf("checkpoint bytes diverge after resume (%d vs %d bytes)", len(final), len(complete))
	}
}

// TestCheckpointMismatch pins the checkpoint guard: a checkpoint from a
// different run fails fast, naming both sides.
func TestCheckpointMismatch(t *testing.T) {
	_, r := corpusFixture(t, 30, 13)
	net := network.BuildTestNet()
	ckpt := filepath.Join(t.TempDir(), "train.ckpt")
	opt := CorpusTrainOptions{JunctionWindow: 2, CheckpointPath: ckpt}

	if _, err := TrainProfileFromCorpus(context.Background(), r, len(net.Nodes),
		ProfileConfig{Technique: TechniqueLinear, Seed: 7}, opt); err != nil {
		t.Fatalf("TrainProfileFromCorpus: %v", err)
	}

	// Different profile seed.
	_, err := TrainProfileFromCorpus(context.Background(), r, len(net.Nodes),
		ProfileConfig{Technique: TechniqueLinear, Seed: 8}, opt)
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("seed mismatch error = %v, want ErrCheckpointMismatch", err)
	}
	if !strings.Contains(err.Error(), "seed 7") || !strings.Contains(err.Error(), "uses 8") {
		t.Fatalf("mismatch message %q does not name both seeds", err)
	}

	// Different technique.
	_, err = TrainProfileFromCorpus(context.Background(), r, len(net.Nodes),
		ProfileConfig{Technique: TechniqueLogistic, Seed: 7}, opt)
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("technique mismatch error = %v, want ErrCheckpointMismatch", err)
	}

	// A file that was never a checkpoint is refused, not clobbered.
	foreign := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(foreign, []byte("do not overwrite me"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	_, err = TrainProfileFromCorpus(context.Background(), r, len(net.Nodes),
		ProfileConfig{Technique: TechniqueLinear, Seed: 7},
		CorpusTrainOptions{JunctionWindow: 2, CheckpointPath: foreign})
	if err == nil || !strings.Contains(err.Error(), "not a training checkpoint") {
		t.Fatalf("foreign file error = %v, want refusal", err)
	}
	if b, _ := os.ReadFile(foreign); string(b) != "do not overwrite me" {
		t.Fatal("foreign file was clobbered")
	}
}

// TestTrainFromCorpusMatchGuard pins the System-level deployment guard:
// a corpus from a different deployment must not train this system.
func TestTrainFromCorpusMatchGuard(t *testing.T) {
	_, r := corpusFixture(t, 20, 13)
	net := network.BuildTestNet()
	other, err := dataset.NewFactory(net, []sensor.Sensor{
		{Kind: sensor.Pressure, Index: net.JunctionIndices()[0]},
		{Kind: sensor.Pressure, Index: net.JunctionIndices()[1]},
	}, dataset.Config{})
	if err != nil {
		t.Fatalf("NewFactory: %v", err)
	}
	sys := NewSystem(other, net, SystemConfig{})
	err = sys.TrainFromCorpus(context.Background(), r, ProfileConfig{Technique: TechniqueLinear, Seed: 1},
		CorpusTrainOptions{})
	if !errors.Is(err, dataset.ErrCorpusMismatch) {
		t.Fatalf("err = %v, want dataset.ErrCorpusMismatch", err)
	}
	if sys.Profile() != nil {
		t.Fatal("mismatched corpus installed a profile")
	}
}

// TestTrainFromCorpusCancellation pins context semantics on the
// training side: a pre-cancelled context trains nothing.
func TestTrainFromCorpusCancellation(t *testing.T) {
	factory, r := corpusFixture(t, 20, 13)
	net := network.BuildTestNet()
	sys := NewSystem(factory, net, SystemConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := sys.TrainFromCorpus(ctx, r, ProfileConfig{Technique: TechniqueLinear, Seed: 1},
		CorpusTrainOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sys.Profile() != nil {
		t.Fatal("cancelled training installed a profile")
	}
}

// testCkptMeta describes the small run the checkpoint decoder tests
// load into: three linear junction columns.
var testCkptMeta = ckptMeta{
	CorpusSeed:   3,
	Deployment:   0x5eed,
	ConfigDigest: 0xc0f1,
	ProfileSeed:  7,
	Samples:      12,
	Junctions:    3,
	Technique:    string(TechniqueLinear),
}

// validCheckpoint writes a complete checkpoint for meta, one fitted
// linear model per junction column, through the writer training uses.
func validCheckpoint(tb testing.TB, meta ckptMeta) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "valid.ckpt")
	ck, n, err := openCheckpoint(path, meta, make([]mlearn.Classifier, meta.Junctions))
	if err != nil || n != 0 {
		tb.Fatalf("openCheckpoint on a new file: n=%d err=%v", n, err)
	}
	rng := rand.New(rand.NewSource(1))
	x := make([][]float64, meta.Samples)
	for i := range x {
		x[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	for col := 0; col < meta.Junctions; col++ {
		y := make([]int, meta.Samples)
		for i := range y {
			y[i] = (i + col) % 2
		}
		m := mlearn.NewLinearRegression(mlearn.LinearConfig{})
		if err := m.Fit(x, y); err != nil {
			tb.Fatalf("Fit: %v", err)
		}
		if err := ck.save(col, m); err != nil {
			tb.Fatalf("save: %v", err)
		}
	}
	if err := ck.close(); err != nil {
		tb.Fatalf("close: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatalf("ReadFile: %v", err)
	}
	return b
}

// craftedCheckpoint is meta's header followed by a frame header that
// declares a 1 GiB payload and three bytes of it: 73 bytes for the
// linear technique.
func craftedCheckpoint(meta ckptMeta) []byte {
	b := meta.encode()
	b = binary.LittleEndian.AppendUint32(b, 0)
	b = binary.LittleEndian.AppendUint32(b, 1<<30)
	return append(b, 1, 2, 3)
}

// openCheckpointAlloc opens the checkpoint bytes data for meta and
// reports the bytes allocated while doing so.
func openCheckpointAlloc(tb testing.TB, data []byte, meta ckptMeta) (path string, models []mlearn.Classifier, n int, alloc uint64, err error) {
	tb.Helper()
	path = filepath.Join(tb.TempDir(), "train.ckpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		tb.Fatalf("WriteFile: %v", err)
	}
	models = make([]mlearn.Classifier, meta.Junctions)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ck, n, err := openCheckpoint(path, meta, models)
	runtime.ReadMemStats(&after)
	if err == nil {
		if cerr := ck.close(); cerr != nil {
			tb.Fatalf("close: %v", cerr)
		}
	}
	return path, models, n, after.TotalAlloc - before.TotalAlloc, err
}

// TestCheckpointOverlongFrameAllocation pins the frame-length bound: a
// frame header declaring more bytes than the file holds is a torn tail,
// truncated without allocating the declared length (it used to allocate
// 1 GiB for this 73-byte file).
func TestCheckpointOverlongFrameAllocation(t *testing.T) {
	data := craftedCheckpoint(testCkptMeta)
	if len(data) != 73 {
		t.Fatalf("crafted checkpoint is %d bytes, want 73", len(data))
	}
	path, _, n, alloc, err := openCheckpointAlloc(t, data, testCkptMeta)
	if err != nil {
		t.Fatalf("openCheckpoint: %v", err)
	}
	if alloc >= 1<<20 {
		t.Errorf("opening a %d-byte checkpoint allocated %d bytes, want < 1 MiB", len(data), alloc)
	}
	if n != 0 {
		t.Errorf("loaded %d columns from a checkpoint with no valid frame", n)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if hdr := testCkptMeta.encode(); !bytes.Equal(got, hdr) {
		t.Errorf("torn tail not truncated: file is %d bytes, want the %d-byte header", len(got), len(hdr))
	}
}

// TestTrainFromCorpusWindowMetrics pins the streamed-training
// instruments: one read observation per run (the single corpus pass)
// and one fit observation per junction window.
func TestTrainFromCorpusWindowMetrics(t *testing.T) {
	_, r := corpusFixture(t, 20, 13)
	net := network.BuildTestNet()
	reg := telemetry.Enable()
	defer telemetry.Disable()
	const window = 2
	if _, err := TrainProfileFromCorpus(context.Background(), r, len(net.Nodes),
		ProfileConfig{Technique: TechniqueLinear, Seed: 1}, CorpusTrainOptions{JunctionWindow: window}); err != nil {
		t.Fatalf("TrainProfileFromCorpus: %v", err)
	}
	windows := int64((len(r.Junctions()) + window - 1) / window)
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"core_corpus_window_read_seconds": 1,
		"core_corpus_window_fit_seconds":  windows,
	} {
		h, ok := snap.Histograms[name]
		if !ok {
			t.Fatalf("%s not bound", name)
		}
		if h.Count != want {
			t.Errorf("%s counted %d observations, want %d", name, h.Count, want)
		}
	}
}

// TestTrainFromCorpusReadsOnce pins streamed training to one corpus
// pass: a run raises corpus_samples_read_total by exactly the corpus's
// sample count, whatever the junction window, and so does a run resumed
// from a checkpoint that holds some of the columns.
func TestTrainFromCorpusReadsOnce(t *testing.T) {
	reg := telemetry.Enable()
	defer telemetry.Disable()
	// EPA-NET's 91 junctions make windows 2 and 10 split the columns
	// and 64 leave a short last window.
	net := network.BuildEPANet()
	dir := t.TempDir()
	if _, err := testFactory(t, net).GenerateCorpus(context.Background(), 20, 13, dir,
		dataset.CorpusOptions{ShardSamples: 8}); err != nil {
		t.Fatalf("GenerateCorpus: %v", err)
	}
	r, err := dataset.OpenCorpus(dir)
	if err != nil {
		t.Fatalf("OpenCorpus: %v", err)
	}
	cfg := ProfileConfig{Technique: TechniqueLinear, Seed: 1}
	read := reg.Counter("corpus_samples_read_total")
	want := int64(r.SampleCount())
	train := func(name string, opt CorpusTrainOptions) {
		t.Helper()
		before := read.Value()
		if _, err := TrainProfileFromCorpus(context.Background(), r, len(net.Nodes), cfg, opt); err != nil {
			t.Fatalf("%s: TrainProfileFromCorpus: %v", name, err)
		}
		if got := read.Value() - before; got != want {
			t.Errorf("%s: read %d samples, want one pass of %d", name, got, want)
		}
	}
	for _, window := range []int{2, 10, 64} {
		train(fmt.Sprintf("window %d", window), CorpusTrainOptions{JunctionWindow: window})
	}

	ckpt := filepath.Join(t.TempDir(), "train.ckpt")
	opt := CorpusTrainOptions{JunctionWindow: 2, CheckpointPath: ckpt}
	train("checkpointed", opt)
	complete, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	if err := os.WriteFile(ckpt, complete[:len(complete)/2], 0o644); err != nil {
		t.Fatalf("truncate checkpoint: %v", err)
	}
	loads := reg.Counter("core_checkpoint_loads_total")
	loaded := loads.Value()
	train("resumed", opt)
	if loads.Value() == loaded {
		t.Fatal("the resumed run loaded no checkpointed column")
	}
}
