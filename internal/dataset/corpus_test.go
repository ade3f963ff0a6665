package dataset

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/aquascale/aquascale/internal/leak"
	"github.com/aquascale/aquascale/internal/network"
	"github.com/aquascale/aquascale/internal/sensor"
)

// dirBytes reads every shard file in dir into a name → content map.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, shardFileGlob))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		out[filepath.Base(p)] = b
	}
	return out
}

// sameShardSet asserts two corpus directories hold byte-identical shard
// sets.
func sameShardSet(t *testing.T, gotDir, wantDir string) {
	t.Helper()
	got, want := dirBytes(t, gotDir), dirBytes(t, wantDir)
	if len(got) != len(want) {
		t.Fatalf("shard count %d, want %d", len(got), len(want))
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g, ok := got[name]
		if !ok {
			t.Fatalf("shard %s missing", name)
		}
		if string(g) != string(want[name]) {
			t.Fatalf("shard %s bytes diverge (%d vs %d bytes)", name, len(g), len(want[name]))
		}
	}
}

// TestGenerateCorpusRoundTrip pins the tentpole equivalence: the
// streamed corpus at seed s holds exactly the samples Generate produces
// with rng seed s — features bitwise, labels, retries, order.
func TestGenerateCorpusRoundTrip(t *testing.T) {
	f := testNetFactory(t)
	const count, seed = 40, 9

	ds, err := f.Generate(count, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	dir := t.TempDir()
	res, err := f.GenerateCorpus(context.Background(), count, seed, dir, CorpusOptions{ShardSamples: 16})
	if err != nil {
		t.Fatalf("GenerateCorpus: %v", err)
	}
	if res.Shards != 3 || res.ShardsWritten != 3 || res.ShardsResumed != 0 {
		t.Fatalf("result shards = %d written %d resumed %d, want 3/3/0",
			res.Shards, res.ShardsWritten, res.ShardsResumed)
	}
	if res.Scenarios != count || res.Samples != len(ds.Samples) || res.Bytes <= 0 {
		t.Fatalf("result = %+v, want %d scenarios, %d samples", res, count, len(ds.Samples))
	}

	r, err := OpenCorpus(dir)
	if err != nil {
		t.Fatalf("OpenCorpus: %v", err)
	}
	if r.Seed() != seed || r.Deployment() != f.DeploymentFingerprint() || r.ConfigDigest() != f.ConfigDigest() {
		t.Fatalf("corpus meta drifted: seed %d dep %x cfg %x", r.Seed(), r.Deployment(), r.ConfigDigest())
	}
	if r.FeatureDim() != f.SensorCount() || r.Shards() != 3 ||
		r.SampleCount() != len(ds.Samples) || r.ScenarioCount() != count {
		t.Fatalf("corpus geometry drifted: %d features, %d shards, %d samples, %d scenarios",
			r.FeatureDim(), r.Shards(), r.SampleCount(), r.ScenarioCount())
	}
	junctions := r.Junctions()
	wantJ := f.Junctions()
	if len(junctions) != len(wantJ) {
		t.Fatalf("junction table length %d, want %d", len(junctions), len(wantJ))
	}
	for i := range junctions {
		if junctions[i] != wantJ[i] {
			t.Fatalf("junction column %d = node %d, want %d", i, junctions[i], wantJ[i])
		}
	}
	if err := r.Match(f); err != nil {
		t.Fatalf("Match against own factory: %v", err)
	}

	// The test network converges without retries, so kept == generated
	// and sample i is scenario i.
	if len(ds.Skipped) != 0 {
		t.Fatalf("unexpected skips on the test network: %d", len(ds.Skipped))
	}
	i := 0
	err = r.Each(context.Background(), func(s *CorpusSample) error {
		want := ds.Samples[i]
		if s.Index != i || s.Retries != want.Retries {
			t.Fatalf("sample %d: index %d retries %d, want %d/%d",
				i, s.Index, s.Retries, i, want.Retries)
		}
		for j := range want.Features {
			if math.Float64bits(s.Features[j]) != math.Float64bits(want.Features[j]) {
				t.Fatalf("sample %d feature %d: corpus %v != in-memory %v",
					i, j, s.Features[j], want.Features[j])
			}
		}
		for col, v := range want.Labels {
			if s.Label(col) != v {
				t.Fatalf("sample %d label %d: corpus %d != in-memory %d", i, col, s.Label(col), v)
			}
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatalf("Each: %v", err)
	}
	if i != len(ds.Samples) {
		t.Fatalf("iterated %d samples, want %d", i, len(ds.Samples))
	}
}

// TestGenerateCorpusResumeByteIdentical pins the resume contract:
// delete one shard, truncate another, bit-flip a third, drop crash
// debris — and the resumed run regenerates exactly the damaged shards,
// converging to the byte-identical shard set of an uninterrupted run.
func TestGenerateCorpusResumeByteIdentical(t *testing.T) {
	f := testNetFactory(t)
	const count, seed = 40, 11
	opt := CorpusOptions{ShardSamples: 10}

	ref := t.TempDir()
	if _, err := f.GenerateCorpus(context.Background(), count, seed, ref, opt); err != nil {
		t.Fatalf("reference GenerateCorpus: %v", err)
	}
	dir := t.TempDir()
	if _, err := f.GenerateCorpus(context.Background(), count, seed, dir, opt); err != nil {
		t.Fatalf("GenerateCorpus: %v", err)
	}

	// Damage three of the four shards plus leave crash debris behind.
	if err := os.Remove(shardPath(dir, 3)); err != nil {
		t.Fatalf("remove: %v", err)
	}
	b, err := os.ReadFile(shardPath(dir, 1))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := os.WriteFile(shardPath(dir, 1), b[:len(b)/2], 0o644); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	b, err = os.ReadFile(shardPath(dir, 2))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	b[len(b)-10] ^= 0x40
	if err := os.WriteFile(shardPath(dir, 2), b, 0o644); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	if err := os.WriteFile(shardPath(dir, 0)+".tmp", []byte("debris"), 0o644); err != nil {
		t.Fatalf("debris: %v", err)
	}

	opt.Resume = true
	res, err := f.GenerateCorpus(context.Background(), count, seed, dir, opt)
	if err != nil {
		t.Fatalf("resumed GenerateCorpus: %v", err)
	}
	if res.ShardsResumed != 1 || res.ShardsWritten != 3 {
		t.Fatalf("resumed %d written %d, want 1 resumed / 3 written", res.ShardsResumed, res.ShardsWritten)
	}
	sameShardSet(t, dir, ref)
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("staging debris survived resume: %v", tmps)
	}
}

// TestGenerateShardRangeSplitMatchesCorpus pins the split-generation
// path: two disjoint GenerateShardRange calls into separate directories
// (as two hosts would run them), copied into one directory, form a
// corpus OpenCorpus accepts and that is byte-identical to GenerateCorpus
// at the same seed. A range outside the plan is refused.
func TestGenerateShardRangeSplitMatchesCorpus(t *testing.T) {
	f := testNetFactory(t)
	const count, seed = 40, 13
	opt := CorpusOptions{ShardSamples: 10}
	ctx := context.Background()

	ref := t.TempDir()
	if _, err := f.GenerateCorpus(ctx, count, seed, ref, opt); err != nil {
		t.Fatalf("reference GenerateCorpus: %v", err)
	}
	plan, err := f.PlanCorpus(count, seed, opt)
	if err != nil {
		t.Fatalf("PlanCorpus: %v", err)
	}
	if plan.ShardCount != 4 {
		t.Fatalf("plan has %d shards, want 4", plan.ShardCount)
	}

	merged := t.TempDir()
	for _, r := range [][2]int{{0, 1}, {1, 4}} {
		part := t.TempDir()
		res, err := f.GenerateShardRange(ctx, plan, r[0], r[1], part, 0)
		if err != nil {
			t.Fatalf("GenerateShardRange [%d,%d): %v", r[0], r[1], err)
		}
		if res.ShardsWritten != r[1]-r[0] || res.ShardsResumed != 0 {
			t.Fatalf("range [%d,%d): written %d resumed %d", r[0], r[1], res.ShardsWritten, res.ShardsResumed)
		}
		for name, b := range dirBytes(t, part) {
			if err := os.WriteFile(filepath.Join(merged, name), b, 0o644); err != nil {
				t.Fatalf("copy %s: %v", name, err)
			}
		}
	}
	r, err := OpenCorpus(merged)
	if err != nil {
		t.Fatalf("OpenCorpus on merged ranges: %v", err)
	}
	if err := r.Match(f); err != nil {
		t.Fatalf("Match: %v", err)
	}
	sameShardSet(t, merged, ref)

	for _, r := range [][2]int{{-1, 2}, {2, 5}, {2, 2}, {3, 1}} {
		dir := t.TempDir()
		_, err := f.GenerateShardRange(ctx, plan, r[0], r[1], dir, 0)
		if err == nil || !strings.Contains(err.Error(), "outside plan of 4 shards") {
			t.Fatalf("range [%d,%d) error = %v, want refusal outside the plan", r[0], r[1], err)
		}
		if got := dirBytes(t, dir); len(got) != 0 {
			t.Fatalf("refused range [%d,%d) wrote %d shards", r[0], r[1], len(got))
		}
	}
}

// TestGenerateCorpusRefusesDirtyDir pins the non-resume guard: writing
// into a directory that already holds shards requires explicit Resume.
func TestGenerateCorpusRefusesDirtyDir(t *testing.T) {
	f := testNetFactory(t)
	dir := t.TempDir()
	if _, err := f.GenerateCorpus(context.Background(), 10, 3, dir, CorpusOptions{ShardSamples: 10}); err != nil {
		t.Fatalf("GenerateCorpus: %v", err)
	}
	_, err := f.GenerateCorpus(context.Background(), 10, 3, dir, CorpusOptions{ShardSamples: 10})
	if err == nil || !strings.Contains(err.Error(), "already holds") {
		t.Fatalf("dirty dir error = %v, want refusal naming the directory state", err)
	}
}

// TestGenerateCorpusResumeMismatch pins the fail-fast guard: resuming
// into a valid corpus generated with different parameters must not
// absorb or clobber it, and the error names both sides.
func TestGenerateCorpusResumeMismatch(t *testing.T) {
	f := testNetFactory(t)
	dir := t.TempDir()
	if _, err := f.GenerateCorpus(context.Background(), 10, 3, dir, CorpusOptions{ShardSamples: 10}); err != nil {
		t.Fatalf("GenerateCorpus: %v", err)
	}

	_, err := f.GenerateCorpus(context.Background(), 10, 4, dir, CorpusOptions{ShardSamples: 10, Resume: true})
	if !errors.Is(err, ErrCorpusMismatch) {
		t.Fatalf("seed mismatch error = %v, want ErrCorpusMismatch", err)
	}
	for _, frag := range []string{"seed 3", "seed 4"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("mismatch error %q does not name %q", err, frag)
		}
	}

	// Different partitioning of the same scenarios is also a different
	// corpus.
	_, err = f.GenerateCorpus(context.Background(), 10, 3, dir, CorpusOptions{ShardSamples: 5, Resume: true})
	if !errors.Is(err, ErrCorpusMismatch) || !strings.Contains(err.Error(), "-shard-samples") {
		t.Fatalf("partition mismatch error = %v, want ErrCorpusMismatch naming -shard-samples", err)
	}
}

// TestCorpusReaderMatchGuards pins the deployment/config guards with
// real error text: both fingerprints must appear in the message.
func TestCorpusReaderMatchGuards(t *testing.T) {
	f := testNetFactory(t)
	dir := t.TempDir()
	if _, err := f.GenerateCorpus(context.Background(), 10, 3, dir, CorpusOptions{ShardSamples: 10}); err != nil {
		t.Fatalf("GenerateCorpus: %v", err)
	}
	r, err := OpenCorpus(dir)
	if err != nil {
		t.Fatalf("OpenCorpus: %v", err)
	}

	net := network.BuildTestNet()
	j, ok := net.NodeIndex("J2")
	if !ok {
		t.Fatal("test network lost node J2")
	}
	k, ok := net.NodeIndex("J3")
	if !ok {
		t.Fatal("test network lost node J3")
	}

	// Different sensor set → deployment fingerprint mismatch.
	other, err := NewFactory(net, []sensor.Sensor{
		{Kind: sensor.Pressure, Index: j},
		{Kind: sensor.Pressure, Index: k},
	}, Config{
		Noise: sensor.DefaultNoise,
		Leaks: leak.GeneratorConfig{MinEvents: 1, MaxEvents: 2},
	})
	if err != nil {
		t.Fatalf("NewFactory: %v", err)
	}
	err = r.Match(other)
	if !errors.Is(err, ErrCorpusMismatch) {
		t.Fatalf("deployment mismatch error = %v, want ErrCorpusMismatch", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "deployment fingerprint") ||
		!strings.Contains(msg, fmtHex(r.Deployment())) ||
		!strings.Contains(msg, fmtHex(other.DeploymentFingerprint())) {
		t.Fatalf("deployment mismatch message %q does not name both fingerprints", msg)
	}

	// Same deployment, different generation Config → digest mismatch.
	other2, err := NewFactory(net, []sensor.Sensor{{Kind: sensor.Pressure, Index: j}}, Config{
		Noise: sensor.Noise{PressureStd: 0.5},
		Leaks: leak.GeneratorConfig{MinEvents: 1, MaxEvents: 2},
	})
	if err != nil {
		t.Fatalf("NewFactory: %v", err)
	}
	err = r.Match(other2)
	if !errors.Is(err, ErrCorpusMismatch) {
		t.Fatalf("config mismatch error = %v, want ErrCorpusMismatch", err)
	}
	msg = err.Error()
	if !strings.Contains(msg, "config digest") ||
		!strings.Contains(msg, fmtHex(r.ConfigDigest())) ||
		!strings.Contains(msg, fmtHex(other2.ConfigDigest())) {
		t.Fatalf("config mismatch message %q does not name both digests", msg)
	}
}

// fmtHex matches the %016x rendering the mismatch errors use.
func fmtHex(v uint64) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 16)
	for i := 15; i >= 0; i-- {
		out[i] = digits[v&0xf]
		v >>= 4
	}
	return string(out)
}

// TestOpenCorpusDetectsGaps pins corpus-level validation: a missing
// middle shard is an incomplete corpus, not a shorter one.
func TestOpenCorpusDetectsGaps(t *testing.T) {
	f := testNetFactory(t)
	dir := t.TempDir()
	if _, err := f.GenerateCorpus(context.Background(), 30, 3, dir, CorpusOptions{ShardSamples: 10}); err != nil {
		t.Fatalf("GenerateCorpus: %v", err)
	}
	if err := os.Remove(shardPath(dir, 1)); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := OpenCorpus(dir); !errors.Is(err, ErrCorpusMismatch) {
		t.Fatalf("gapped corpus error = %v, want ErrCorpusMismatch", err)
	}
}

// TestGenerateCorpusCancelMidRun pins cancellation semantics: a
// cancelled run leaves only fully verified shards (a partial shard is
// absent, never valid-looking), and resuming converges to the
// byte-identical full corpus.
func TestGenerateCorpusCancelMidRun(t *testing.T) {
	f := testNetFactory(t)
	const count, seed = 1200, 5
	opt := CorpusOptions{ShardSamples: 25}

	ref := t.TempDir()
	if _, err := f.GenerateCorpus(context.Background(), count, seed, ref, opt); err != nil {
		t.Fatalf("reference GenerateCorpus: %v", err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	timer := time.AfterFunc(10*time.Millisecond, cancel)
	defer timer.Stop()
	slow := opt
	slow.Workers = 1 // one scenario at a time, so the cancel lands mid-run
	res, err := f.GenerateCorpus(ctx, count, seed, dir, slow)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.ShardsWritten >= res.Shards {
		t.Fatalf("cancelled run wrote %+v, want a strict subset of shards", res)
	}

	// Every shard on disk is complete and verified; nothing half-written
	// is visible under a shard name.
	paths, err := filepath.Glob(filepath.Join(dir, shardFileGlob))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	if len(paths) != res.ShardsWritten {
		t.Fatalf("%d shard files after cancel, result says %d", len(paths), res.ShardsWritten)
	}
	for _, p := range paths {
		if _, err := VerifyShard(p); err != nil {
			t.Fatalf("cancelled run left unverifiable shard %s: %v", p, err)
		}
	}

	opt.Resume = true
	if _, err := f.GenerateCorpus(context.Background(), count, seed, dir, opt); err != nil {
		t.Fatalf("resume after cancel: %v", err)
	}
	sameShardSet(t, dir, ref)
}

// TestGenerateCorpusPreCancelled mirrors the GenerateContext contract.
func TestGenerateCorpusPreCancelled(t *testing.T) {
	f := testNetFactory(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := f.GenerateCorpus(ctx, 10, 1, t.TempDir(), CorpusOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
