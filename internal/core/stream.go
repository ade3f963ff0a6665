// Streaming Phase-I training: fit the per-junction profile from an
// on-disk corpus instead of a materialized *dataset.Dataset, with an
// incremental checkpoint so a killed training run resumes past completed
// junctions.
//
// One pass over the corpus fills the feature matrix X (every batch
// classifier needs all rows) and a packed label bitset, J bits per
// sample for J junction columns. The label matrix as []int rows is
// never resident: each column is unpacked from the bits when a fitting
// worker takes it. Columns are fitted with mlearn.FitColumns, the column
// loop MultiOutput.Fit runs, over one prepared matrix, a junction
// window at a time; each window's models are appended to the checkpoint
// and fsynced. The assembled profile is therefore bit-identical to
// TrainProfile over the equivalent in-memory dataset — the project's
// standing invariant, pinned by test on EPA-NET and WSSC.
package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"github.com/aquascale/aquascale/internal/dataset"
	"github.com/aquascale/aquascale/internal/mlearn"
	"github.com/aquascale/aquascale/internal/telemetry"
)

// ErrCheckpointMismatch means a training checkpoint on disk belongs to
// a different run — another corpus, profile seed, or technique — and
// must not be resumed into this one.
var ErrCheckpointMismatch = errors.New("core: training checkpoint does not match this run")

// CorpusTrainOptions tunes TrainProfileFromCorpus.
type CorpusTrainOptions struct {
	// JunctionWindow is the number of junction columns fitted per
	// FitColumns batch, and so the number of models appended to the
	// checkpoint between fsyncs. Zero means 64. It does not bound memory
	// (the corpus is read once, every label as one bit), and fitted
	// models are identical for any window size.
	JunctionWindow int

	// CheckpointPath, when set, appends each fitted per-junction model
	// to this file as training progresses and resumes past the valid
	// prefix on restart. A checkpoint from a different run fails with
	// ErrCheckpointMismatch; a torn tail (crash mid-append) is
	// truncated and refit.
	CheckpointPath string
}

// TrainProfileFromCorpus fits the profile from a streamed corpus
// (Algorithm 1 over shards). It is the out-of-core twin of
// TrainProfile: same validation, same per-column classifier seeds, and
// a bitwise-identical profile for the corpus produced by
// GenerateCorpus at the same seed.
func TrainProfileFromCorpus(ctx context.Context, r *dataset.CorpusReader, nodeCount int, cfg ProfileConfig, opt CorpusTrainOptions) (*Profile, error) {
	if cfg.Technique == "" {
		cfg.Technique = TechniqueHybridRSL
	}
	if _, err := ParseTechnique(string(cfg.Technique)); err != nil {
		return nil, err
	}
	junctions := r.Junctions()
	if len(junctions) == 0 {
		return nil, fmt.Errorf("core: dataset has no junction columns")
	}
	for _, nodeIdx := range junctions {
		if nodeIdx < 0 || nodeIdx >= nodeCount {
			return nil, fmt.Errorf("core: junction node %d outside node count %d", nodeIdx, nodeCount)
		}
	}
	samples := r.SampleCount()
	if samples == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	window := opt.JunctionWindow
	if window <= 0 {
		window = 64
	}

	models := make([]mlearn.Classifier, len(junctions))
	fitted := 0
	if opt.CheckpointPath != "" {
		meta := ckptMeta{
			CorpusSeed:   r.Seed(),
			Deployment:   r.Deployment(),
			ConfigDigest: r.ConfigDigest(),
			ProfileSeed:  cfg.Seed,
			Samples:      samples,
			Junctions:    len(junctions),
			Technique:    string(cfg.Technique),
		}
		ck, n, err := openCheckpoint(opt.CheckpointPath, meta, models)
		if err != nil {
			return nil, err
		}
		defer ck.close()
		fitted = n
		if err := trainCorpusWindows(ctx, r, cfg, models, fitted, window, ck); err != nil {
			return nil, err
		}
	} else if err := trainCorpusWindows(ctx, r, cfg, models, 0, window, nil); err != nil {
		return nil, err
	}

	mo, err := mlearn.AssembleMultiOutput(cfg.Seed, models)
	if err != nil {
		return nil, fmt.Errorf("core: profile training: %w", err)
	}
	return &Profile{
		technique: cfg.Technique,
		model:     mo,
		junctions: junctions,
		nodeCount: nodeCount,
	}, nil
}

// trainCorpusWindows fits label columns [fitted, len(models)) in
// junction windows after one corpus pass. models[0:fitted] must already
// hold checkpointed classifiers.
func trainCorpusWindows(ctx context.Context, r *dataset.CorpusReader, cfg ProfileConfig, models []mlearn.Classifier, fitted, window int, ck *checkpoint) error {
	outputs := len(models)
	if fitted >= outputs {
		return nil
	}
	samples := r.SampleCount()
	featDim := r.FeatureDim()
	reg := telemetry.Default()
	readSeconds := reg.Histogram("core_corpus_window_read_seconds", telemetry.ExpBuckets(1e-3, 2, 18))
	fitSeconds := reg.Histogram("core_corpus_window_fit_seconds", telemetry.ExpBuckets(1e-3, 2, 18))

	// The one corpus pass: X's rows share one backing array to keep the
	// allocation count flat, and each sample's label bits are copied
	// out of the reader's borrowed buffer, stride ⌈J/8⌉ bytes per row.
	stride := (outputs + 7) / 8
	x := make([][]float64, samples)
	flat := make([]float64, samples*featDim)
	bits := make([]byte, 0, samples*stride)
	row := 0
	start := time.Now()
	err := r.Each(ctx, func(s *dataset.CorpusSample) error {
		if row >= samples {
			return fmt.Errorf("core: corpus yielded more than its declared %d samples", samples)
		}
		if s.LabelCount() != outputs {
			return fmt.Errorf("core: corpus sample %d has %d label columns, want %d", s.Index, s.LabelCount(), outputs)
		}
		x[row] = flat[row*featDim : (row+1)*featDim]
		copy(x[row], s.Features)
		bits = s.AppendLabelBits(bits)
		row++
		return nil
	})
	if err != nil {
		return err
	}
	if row != samples {
		return fmt.Errorf("core: corpus yielded %d samples, declared %d", row, samples)
	}
	readSeconds.ObserveDuration(time.Since(start))

	factory := techniqueFactory(cfg.Technique)
	// One prepared matrix serves every window, so binning and scaling
	// happen once per training run; the first window's fit time
	// includes them.
	px := mlearn.Prepare(x)
	// FitColumns derives each column's seed from its index alone, so
	// the streamed profile is bit-identical to the in-memory one.
	column := func(v int, dst []int) {
		b, shift := v>>3, uint(v&7)
		for i := range dst {
			dst[i] = int(bits[i*stride+b]>>shift) & 1
		}
	}
	for lo := fitted; lo < outputs; {
		hi := min(lo+window, outputs)
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		if err := mlearn.FitColumns(ctx, px, factory, cfg.Seed, lo, hi, column, models); err != nil {
			return fmt.Errorf("core: profile training: %w", err)
		}
		fitSeconds.ObserveDuration(time.Since(start))

		if ck != nil {
			for v := lo; v < hi; v++ {
				if err := ck.save(v, models[v]); err != nil {
					return err
				}
			}
			if err := ck.sync(); err != nil {
				return err
			}
		}
		lo = hi
	}
	return nil
}

// TrainFromCorpus runs streamed Phase-I training against the system's
// live factory: the corpus must match the deployment (fingerprint +
// config digest, failing fast with ErrCorpusMismatch otherwise), and on
// success the profile is installed compiled, as TrainOn does. For a
// corpus generated by GenerateCorpus at seed s this is bit-identical to
// Train with rng seed s.
func (s *System) TrainFromCorpus(ctx context.Context, r *dataset.CorpusReader, cfg ProfileConfig, opt CorpusTrainOptions) error {
	if err := r.Match(s.factory); err != nil {
		return err
	}
	p, err := TrainProfileFromCorpus(ctx, r, len(s.net.Nodes), cfg, opt)
	if err != nil {
		return err
	}
	return s.install(p)
}

// Training checkpoint file: a header binding the checkpoint to one
// (corpus, profile config) pair, then one length-prefixed CRC-framed
// classifier blob per fitted junction column, in column order. Frames
// are appended and fsynced per window; resume loads the valid frame
// prefix and truncates a torn tail. The framing deliberately avoids
// concatenated bare gob streams — two gob decoders over one file must
// share a reader (see LoadProfile) — by giving every frame an explicit
// length.
//
//	offset  size  field
//	0       4     magic "AQCK"
//	4       2     checkpoint format version (currently 1)
//	6       2     reserved (zero)
//	8       8     corpus generation seed (int64)
//	16      8     corpus deployment fingerprint
//	24      8     corpus Config digest
//	32      8     profile training seed (int64)
//	40      4     sample count
//	44      4     junction column count
//	48      4     technique name length T
//	52      T     technique name
//	..      4     header CRC-32C over every preceding byte
//
// Each frame: column index u32 | payload length u32 | payload
// (mlearn.SaveClassifier bytes) | payload CRC-32C.
const (
	ckptMagic      = "AQCK"
	ckptVersion    = 1
	ckptFixedBytes = 52
)

var ckptCRCTable = crc32.MakeTable(crc32.Castagnoli)

// ckptMeta is everything a checkpoint must agree on to be resumable
// into a run.
type ckptMeta struct {
	CorpusSeed   int64
	Deployment   uint64
	ConfigDigest uint64
	ProfileSeed  int64
	Samples      int
	Junctions    int
	Technique    string
}

func (m ckptMeta) encode() []byte {
	buf := make([]byte, ckptFixedBytes+len(m.Technique)+4)
	copy(buf[0:4], ckptMagic)
	binary.LittleEndian.PutUint16(buf[4:6], ckptVersion)
	binary.LittleEndian.PutUint16(buf[6:8], 0)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(m.CorpusSeed))
	binary.LittleEndian.PutUint64(buf[16:24], m.Deployment)
	binary.LittleEndian.PutUint64(buf[24:32], m.ConfigDigest)
	binary.LittleEndian.PutUint64(buf[32:40], uint64(m.ProfileSeed))
	binary.LittleEndian.PutUint32(buf[40:44], uint32(m.Samples))
	binary.LittleEndian.PutUint32(buf[44:48], uint32(m.Junctions))
	binary.LittleEndian.PutUint32(buf[48:52], uint32(len(m.Technique)))
	copy(buf[ckptFixedBytes:], m.Technique)
	off := ckptFixedBytes + len(m.Technique)
	binary.LittleEndian.PutUint32(buf[off:off+4], crc32.Checksum(buf[:off], ckptCRCTable))
	return buf
}

// checkpoint is an open training checkpoint positioned for appends.
type checkpoint struct {
	f     *os.File
	saves *telemetry.Counter
	loads *telemetry.Counter
}

// openCheckpoint opens (or creates) the checkpoint at path for the run
// described by meta, loading the valid classifier prefix into models
// and returning its length. A structurally valid checkpoint whose
// metadata differs fails with ErrCheckpointMismatch; a torn header or
// torn trailing frame (both crash artifacts of this writer) is
// truncated and regenerated; a file that is not a checkpoint at all is
// refused.
func openCheckpoint(path string, meta ckptMeta, models []mlearn.Classifier) (*checkpoint, int, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("core: checkpoint: %w", err)
	}
	reg := telemetry.Default()
	ck := &checkpoint{
		f:     f,
		saves: reg.Counter("core_checkpoint_saves_total"),
		loads: reg.Counter("core_checkpoint_loads_total"),
	}
	n, err := ck.loadPrefix(meta, models)
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return ck, n, nil
}

// loadPrefix validates the header (writing a fresh one when the file is
// new or holds only a torn header), loads the contiguous valid frame
// prefix into models, and truncates everything after it so the file
// ends exactly where appends resume.
func (ck *checkpoint) loadPrefix(meta ckptMeta, models []mlearn.Classifier) (int, error) {
	st, err := ck.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("core: checkpoint: %w", err)
	}
	hdr := meta.encode()
	if st.Size() >= 4 {
		var magic [4]byte
		if _, err := ck.f.ReadAt(magic[:], 0); err != nil {
			return 0, fmt.Errorf("core: checkpoint: %w", err)
		}
		// Refuse to clobber a file that was never a checkpoint.
		if string(magic[:]) != ckptMagic {
			return 0, fmt.Errorf("core: %s is not a training checkpoint (magic %q)", ck.f.Name(), magic[:])
		}
	}
	if st.Size() < int64(ckptFixedBytes+4) {
		// New file, or a crash before the header finished: start over.
		return 0, ck.restart(hdr)
	}
	// The on-disk header is sized by its own technique-name length, which
	// may differ from this run's — read it by its declared size so a
	// technique change reports a mismatch rather than a torn header.
	fixed := make([]byte, ckptFixedBytes)
	if _, err := ck.f.ReadAt(fixed, 0); err != nil {
		return 0, fmt.Errorf("core: checkpoint: %w", err)
	}
	techLen := int(binary.LittleEndian.Uint32(fixed[48:52]))
	if techLen < 0 || techLen > 1<<10 || st.Size() < int64(ckptFixedBytes+techLen+4) {
		// Magic matched but the header is torn — our own crash debris.
		return 0, ck.restart(hdr)
	}
	got := make([]byte, ckptFixedBytes+techLen+4)
	if _, err := ck.f.ReadAt(got, 0); err != nil {
		return 0, fmt.Errorf("core: checkpoint: %w", err)
	}
	onDisk, ok := decodeCkptMeta(got)
	if !ok {
		return 0, ck.restart(hdr)
	}
	if err := matchCkptMeta(ck.f.Name(), onDisk, meta); err != nil {
		return 0, err
	}

	// Scan frames from just past the header; the first torn, corrupt or
	// out-of-order frame ends the valid prefix.
	off := int64(len(got))
	if _, err := ck.f.Seek(off, io.SeekStart); err != nil {
		return 0, fmt.Errorf("core: checkpoint: %w", err)
	}
	next := 0
	for next < len(models) {
		var fh [8]byte
		if _, err := io.ReadFull(ck.f, fh[:]); err != nil {
			break
		}
		idx := int(binary.LittleEndian.Uint32(fh[0:4]))
		n := int64(binary.LittleEndian.Uint32(fh[4:8]))
		// A frame longer than the bytes left in the file is a torn tail;
		// checking before the allocation keeps a crafted length from
		// sizing it.
		if idx != next || n <= 0 || n+4 > st.Size()-off-8 {
			break
		}
		payload := make([]byte, n+4)
		if _, err := io.ReadFull(ck.f, payload); err != nil {
			break
		}
		body := payload[:n]
		if crc32.Checksum(body, ckptCRCTable) != binary.LittleEndian.Uint32(payload[n:]) {
			break
		}
		c, err := mlearn.LoadClassifier(bytes.NewReader(body))
		if err != nil {
			break
		}
		models[next] = c
		next++
		off += 8 + n + 4
		ck.loads.Inc()
	}
	if err := ck.f.Truncate(off); err != nil {
		return 0, fmt.Errorf("core: checkpoint: %w", err)
	}
	if _, err := ck.f.Seek(off, io.SeekStart); err != nil {
		return 0, fmt.Errorf("core: checkpoint: %w", err)
	}
	return next, nil
}

// restart rewrites the file as an empty checkpoint with the given
// header, leaving the write position at its end.
func (ck *checkpoint) restart(hdr []byte) error {
	if err := ck.f.Truncate(0); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if _, err := ck.f.WriteAt(hdr, 0); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if _, err := ck.f.Seek(int64(len(hdr)), io.SeekStart); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return nil
}

// save appends one fitted column's classifier frame.
func (ck *checkpoint) save(col int, c mlearn.Classifier) error {
	var buf bytes.Buffer
	if err := mlearn.SaveClassifier(&buf, c); err != nil {
		return fmt.Errorf("core: checkpoint column %d: %w", col, err)
	}
	body := buf.Bytes()
	frame := make([]byte, 8+len(body)+4)
	binary.LittleEndian.PutUint32(frame[0:4], uint32(col))
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(body)))
	copy(frame[8:], body)
	binary.LittleEndian.PutUint32(frame[8+len(body):], crc32.Checksum(body, ckptCRCTable))
	if _, err := ck.f.Write(frame); err != nil {
		return fmt.Errorf("core: checkpoint column %d: %w", col, err)
	}
	ck.saves.Inc()
	return nil
}

// sync flushes appended frames to stable storage (called per window).
func (ck *checkpoint) sync() error {
	if err := ck.f.Sync(); err != nil {
		return fmt.Errorf("core: checkpoint sync: %w", err)
	}
	return nil
}

func (ck *checkpoint) close() error { return ck.f.Close() }

// decodeCkptMeta parses an encoded header, reporting ok=false when it
// is structurally invalid (torn write).
func decodeCkptMeta(buf []byte) (ckptMeta, bool) {
	if len(buf) < ckptFixedBytes+4 || string(buf[0:4]) != ckptMagic {
		return ckptMeta{}, false
	}
	if binary.LittleEndian.Uint16(buf[4:6]) != ckptVersion {
		return ckptMeta{}, false
	}
	techLen := int(binary.LittleEndian.Uint32(buf[48:52]))
	if techLen < 0 || ckptFixedBytes+techLen+4 != len(buf) {
		return ckptMeta{}, false
	}
	off := ckptFixedBytes + techLen
	if crc32.Checksum(buf[:off], ckptCRCTable) != binary.LittleEndian.Uint32(buf[off:off+4]) {
		return ckptMeta{}, false
	}
	return ckptMeta{
		CorpusSeed:   int64(binary.LittleEndian.Uint64(buf[8:16])),
		Deployment:   binary.LittleEndian.Uint64(buf[16:24]),
		ConfigDigest: binary.LittleEndian.Uint64(buf[24:32]),
		ProfileSeed:  int64(binary.LittleEndian.Uint64(buf[32:40])),
		Samples:      int(binary.LittleEndian.Uint32(buf[40:44])),
		Junctions:    int(binary.LittleEndian.Uint32(buf[44:48])),
		Technique:    string(buf[ckptFixedBytes : ckptFixedBytes+techLen]),
	}, true
}

// matchCkptMeta fails fast when a valid checkpoint belongs to a
// different run, naming both sides of the first disagreement.
func matchCkptMeta(path string, got, want ckptMeta) error {
	switch {
	case got.CorpusSeed != want.CorpusSeed:
		return fmt.Errorf("%w: %s: corpus seed %d, this run uses %d",
			ErrCheckpointMismatch, path, got.CorpusSeed, want.CorpusSeed)
	case got.Deployment != want.Deployment:
		return fmt.Errorf("%w: %s: deployment fingerprint %016x, this run's corpus is %016x",
			ErrCheckpointMismatch, path, got.Deployment, want.Deployment)
	case got.ConfigDigest != want.ConfigDigest:
		return fmt.Errorf("%w: %s: config digest %016x, this run's corpus is %016x",
			ErrCheckpointMismatch, path, got.ConfigDigest, want.ConfigDigest)
	case got.ProfileSeed != want.ProfileSeed:
		return fmt.Errorf("%w: %s: profile seed %d, this run uses %d",
			ErrCheckpointMismatch, path, got.ProfileSeed, want.ProfileSeed)
	case got.Samples != want.Samples:
		return fmt.Errorf("%w: %s: %d samples, this run's corpus has %d",
			ErrCheckpointMismatch, path, got.Samples, want.Samples)
	case got.Junctions != want.Junctions:
		return fmt.Errorf("%w: %s: %d junction columns, this run has %d",
			ErrCheckpointMismatch, path, got.Junctions, want.Junctions)
	case got.Technique != want.Technique:
		return fmt.Errorf("%w: %s: technique %q, this run uses %q",
			ErrCheckpointMismatch, path, got.Technique, want.Technique)
	}
	return nil
}
