package dataset

import (
	"context"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// syntheticShardHeader describes a corpus geometry used by the
// format-level tests, with no hydraulics behind it.
func syntheticShardHeader(shard, shardCount, firstScenario, scenarios, featDim, juncs int) ShardHeader {
	junctions := make([]int, juncs)
	for i := range junctions {
		junctions[i] = i + 3 // arbitrary node indices
	}
	return ShardHeader{
		Seed:          424242,
		Deployment:    0xfeedc0de,
		ConfigDigest:  0xabad1dea,
		Shard:         shard,
		ShardCount:    shardCount,
		FirstScenario: firstScenario,
		Scenarios:     scenarios,
		FeatureDim:    featDim,
		Junctions:     junctions,
	}
}

// writeSyntheticShard writes one shard with deterministic content:
// scenario first+i, retries i%3, feature j of sample i is i·1000+j, and
// label column v of sample i is set iff (i+v)%7 == 0.
func writeSyntheticShard(t testing.TB, path string, hdr ShardHeader) {
	t.Helper()
	w, err := NewShardWriter(path, hdr)
	if err != nil {
		t.Fatalf("NewShardWriter: %v", err)
	}
	features := make([]float64, hdr.FeatureDim)
	labels := make([]int, len(hdr.Junctions))
	for i := 0; i < hdr.Scenarios; i++ {
		for j := range features {
			features[j] = float64(i*1000 + j)
		}
		for v := range labels {
			labels[v] = 0
			if (i+v)%7 == 0 {
				labels[v] = 1
			}
		}
		if err := w.Append(hdr.FirstScenario+i, i%3, features, labels); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestShardRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-00000.aqsc")
	hdr := syntheticShardHeader(0, 1, 0, 9, 4, 11)
	writeSyntheticShard(t, path, hdr)

	got, err := VerifyShard(path)
	if err != nil {
		t.Fatalf("VerifyShard: %v", err)
	}
	if got.Version != ShardFormatVersion || got.Seed != hdr.Seed ||
		got.Deployment != hdr.Deployment || got.ConfigDigest != hdr.ConfigDigest ||
		got.Samples != 9 || got.Scenarios != 9 || got.FeatureDim != 4 ||
		len(got.Junctions) != 11 {
		t.Fatalf("header round trip drifted: %+v", got)
	}
	for i, node := range got.Junctions {
		if node != i+3 {
			t.Fatalf("junction table[%d] = %d, want %d", i, node, i+3)
		}
	}

	i := 0
	labels := make([]int, 0, 11)
	_, err = ReadShard(path, func(s *CorpusSample) error {
		if s.Index != i || s.Retries != i%3 {
			t.Fatalf("sample %d: index %d retries %d", i, s.Index, s.Retries)
		}
		for j, v := range s.Features {
			if v != float64(i*1000+j) {
				t.Fatalf("sample %d feature %d = %v", i, j, v)
			}
		}
		if s.LabelCount() != 11 {
			t.Fatalf("LabelCount = %d", s.LabelCount())
		}
		labels = s.Labels(labels[:0])
		for v := 0; v < 11; v++ {
			want := 0
			if (i+v)%7 == 0 {
				want = 1
			}
			if s.Label(v) != want || labels[v] != want {
				t.Fatalf("sample %d label %d = %d/%d, want %d", i, v, s.Label(v), labels[v], want)
			}
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatalf("ReadShard: %v", err)
	}
	if i != 9 {
		t.Fatalf("yielded %d samples, want 9", i)
	}
}

// TestShardTypedErrors pins the corruption contract: every way a shard
// file can be unusable maps to exactly one typed sentinel, and version
// is checked before any checksum so future-format shards report as such.
func TestShardTypedErrors(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.aqsc")
	writeSyntheticShard(t, ref, syntheticShardHeader(0, 1, 0, 6, 3, 9))
	valid, err := os.ReadFile(ref)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, ErrShardFormat},
		{"future version", func(b []byte) []byte { b[4] = 99; return b }, ErrShardVersion},
		{"header bit flip", func(b []byte) []byte { b[10] ^= 0x01; return b }, ErrShardChecksum},
		{"payload bit flip", func(b []byte) []byte { b[len(b)-9] ^= 0x01; return b }, ErrShardChecksum},
		{"truncated header", func(b []byte) []byte { return b[:30] }, ErrShardTruncated},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-5] }, ErrShardTruncated},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xaa) }, ErrShardFormat},
		{"empty file", func(b []byte) []byte { return nil }, ErrShardTruncated},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(dir, "mut-"+tc.name+".aqsc")
			if err := os.WriteFile(p, tc.mutate(append([]byte(nil), valid...)), 0o644); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			if _, err := VerifyShard(p); !errors.Is(err, tc.want) {
				t.Fatalf("VerifyShard error = %v, want %v", err, tc.want)
			}
			// Corrupt shards must never leak samples to the callback.
			if _, err := ReadShard(p, func(*CorpusSample) error {
				t.Fatal("corrupt shard yielded a sample")
				return nil
			}); !errors.Is(err, tc.want) {
				t.Fatalf("ReadShard error = %v, want %v", err, tc.want)
			}
		})
	}

	if _, err := VerifyShard(filepath.Join(dir, "nope.aqsc")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing shard error = %v, want fs.ErrNotExist", err)
	}
}

// buildSyntheticCorpus writes a consistent multi-shard corpus and
// returns its directory and per-shard byte size.
func buildSyntheticCorpus(t testing.TB, shards, perShard, featDim, juncs int) (string, int) {
	t.Helper()
	dir := t.TempDir()
	for si := 0; si < shards; si++ {
		hdr := syntheticShardHeader(si, shards, si*perShard, perShard, featDim, juncs)
		writeSyntheticShard(t, shardPath(dir, si), hdr)
	}
	rec := 8 + 8*featDim + (juncs+7)/8
	return dir, rec * perShard
}

// TestCorpusReaderBoundedMemory is the out-of-core guard: a full
// iteration's allocations must be O(shard), not O(corpus). The corpus
// here is ~12 shards; each pass sizes its own decode buffers to the
// largest shard and reuses them across shards, so a full pass (after a
// warm-up pass for first-use allocations outside the reader) may
// allocate on the order of one shard (buffers plus open/stat/header per
// shard), never the corpus.
func TestCorpusReaderBoundedMemory(t *testing.T) {
	const shards, perShard, featDim, juncs = 12, 96, 256, 512
	dir, shardBytes := buildSyntheticCorpus(t, shards, perShard, featDim, juncs)
	corpusBytes := shardBytes * shards

	r, err := OpenCorpus(dir)
	if err != nil {
		t.Fatalf("OpenCorpus: %v", err)
	}
	var sink float64
	pass := func() {
		if err := r.Each(context.Background(), func(s *CorpusSample) error {
			sink += s.Features[0]
			return nil
		}); err != nil {
			t.Fatalf("Each: %v", err)
		}
	}
	pass() // warm up

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	delta := after.TotalAlloc - before.TotalAlloc
	ceiling := uint64(2*shardBytes) + 1<<16
	if delta > ceiling {
		t.Errorf("steady-state pass allocated %d bytes; ceiling %d (shard %d bytes, corpus %d bytes)",
			delta, ceiling, shardBytes, corpusBytes)
	}
	if math.IsNaN(sink) {
		t.Fatal("sink NaN")
	}
}

// TestOpenCorpusSharesJunctionTable pins that an opened corpus keeps one
// junction table: every shard header after the first, once proven equal
// to the first, shares its backing array, while Junctions still hands
// out a copy the caller may modify.
func TestOpenCorpusSharesJunctionTable(t *testing.T) {
	dir, _ := buildSyntheticCorpus(t, 5, 4, 3, 40)
	r, err := OpenCorpus(dir)
	if err != nil {
		t.Fatalf("OpenCorpus: %v", err)
	}
	first := &r.hdrs[0].Junctions[0]
	for i, h := range r.hdrs {
		if len(h.Junctions) != 40 || &h.Junctions[0] != first {
			t.Fatalf("shard %d holds its own junction table (len %d)", i, len(h.Junctions))
		}
	}
	got := r.Junctions()
	if &got[0] == first {
		t.Fatal("Junctions returned the shared table, not a copy")
	}
	got[0] = -1
	if r.hdrs[0].Junctions[0] != 3 || r.Junctions()[0] != 3 {
		t.Fatal("modifying the Junctions result changed the reader")
	}
}

// FuzzShardRead feeds arbitrary bytes to the shard decoder: it must
// return nil or one of the typed sentinels and never panic — a shard
// that fails verification must yield zero samples.
func FuzzShardRead(f *testing.F) {
	ref := filepath.Join(f.TempDir(), "seed.aqsc")
	writeSyntheticShard(f, ref, syntheticShardHeader(0, 1, 0, 5, 3, 10))
	valid, err := os.ReadFile(ref)
	if err != nil {
		f.Fatalf("ReadFile: %v", err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("AQSC"))
	flipped := append([]byte(nil), valid...)
	flipped[4] = 2 // future version
	f.Add(flipped)
	huge := append([]byte(nil), valid...)
	huge[56], huge[57], huge[58], huge[59] = 0xff, 0xff, 0xff, 0xff // junction-count bomb
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.aqsc")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		yielded := 0
		_, err := ReadShard(path, func(s *CorpusSample) error {
			yielded++
			if len(s.Features) == 0 || s.LabelCount() <= 0 {
				t.Fatalf("yielded sample with empty geometry: %d features, %d labels",
					len(s.Features), s.LabelCount())
			}
			return nil
		})
		if err == nil {
			return
		}
		if yielded != 0 {
			t.Fatalf("decoder yielded %d samples from a shard it then rejected: %v", yielded, err)
		}
		switch {
		case errors.Is(err, ErrShardFormat),
			errors.Is(err, ErrShardVersion),
			errors.Is(err, ErrShardTruncated),
			errors.Is(err, ErrShardChecksum):
		default:
			t.Fatalf("untyped decode error: %v", err)
		}
	})
}
