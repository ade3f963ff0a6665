// Shard wire format for the out-of-core scenario corpus.
//
// A corpus is a directory of shard files, each holding a contiguous run
// of generation-order scenarios as fixed-size little-endian sample
// records behind a self-describing header. The format is designed so
// that (a) any shard can be regenerated in isolation from the corpus
// seed (per-scenario rngs are pre-drawn, so shard i never depends on
// shard i−1 having been built in the same process), (b) a half-written
// shard is never mistakable for a complete one (writers stage to a .tmp
// file and rename on success; readers verify length and CRC before
// yielding a single sample), and (c) a corpus generated against one
// deployment fails fast against another (the header carries the network
// + sensor fingerprint and the generation Config digest).
//
// Layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "AQSC"
//	4       2     format version (currently 1)
//	6       2     reserved (must be zero)
//	8       8     generation seed (int64)
//	16      8     deployment fingerprint (network ⊕ sensor set)
//	24      8     Config digest
//	32      4     shard index
//	36      4     shard count (total shards in the corpus)
//	40      4     first scenario (global index of this shard's first)
//	44      4     scenarios assigned to this shard (including skipped)
//	48      4     sample records present (scenarios − skipped)
//	52      4     feature dimension (sensor count)
//	56      4     junction column count J
//	60      4·J   junction table (label column → node index)
//	..      4     header CRC-32C over every preceding byte
//	..      r·N   N sample records (fixed size r, below)
//	..      4     payload CRC-32C over all record bytes
//
// One record is:
//
//	4             global scenario index (uint32)
//	4             solver retries consumed (uint32)
//	8·featureDim  features (float64 bits)
//	⌈J/8⌉         label bitset (LSB-first within each byte)
package dataset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"time"
)

// Shard decode errors. Every way a shard file can be unusable maps to
// exactly one of these sentinels (wrapped with file context), so callers
// can distinguish "not a shard" from "a shard from the future" from
// "damaged in storage" — and the fuzz harness can assert the decoder
// never panics or silently yields garbage.
var (
	// ErrShardFormat means the bytes are not a corpus shard at all, or
	// violate the format's structural invariants (bad magic, nonzero
	// reserved field, impossible counts, trailing garbage).
	ErrShardFormat = errors.New("dataset: not a corpus shard")

	// ErrShardVersion means the shard declares a format version this
	// build does not speak. Version is checked before any checksum so a
	// future writer's shard reports "too new", not "corrupt".
	ErrShardVersion = errors.New("dataset: unsupported corpus shard version")

	// ErrShardTruncated means the file ends before the declared content
	// does — the classic killed-mid-write artifact.
	ErrShardTruncated = errors.New("dataset: corpus shard truncated")

	// ErrShardChecksum means the declared bytes are all present but a
	// CRC-32C does not match — bit rot, a torn write, or tampering.
	ErrShardChecksum = errors.New("dataset: corpus shard checksum mismatch")
)

// ErrCorpusMismatch means a structurally valid corpus does not belong to
// the deployment (network + sensors) or generation Config it is being
// used with.
var ErrCorpusMismatch = errors.New("dataset: corpus does not match deployment")

// ShardFormatVersion is the wire format version this build reads and
// writes. The policy is strict equality: the format has no optional
// regions, so any layout change bumps the version and old builds refuse
// new shards (and vice versa) instead of misparsing them.
const ShardFormatVersion = 1

const (
	shardMagic      = "AQSC"
	shardFixedBytes = 60 // through the junction-count field

	// Decode-time caps: a header whose counts exceed these is treated as
	// structurally invalid before any allocation, so a corrupt or
	// adversarial length field cannot balloon memory.
	maxShardJunctions  = 1 << 20
	maxShardFeatureDim = 1 << 20
	maxShardSamples    = 1 << 28
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ShardHeader is the decoded self-description of one corpus shard.
type ShardHeader struct {
	// Version is the wire format version (ShardFormatVersion).
	Version int

	// Seed is the corpus generation seed: the root of every scenario and
	// noise stream, recorded so a resumed run can re-derive the exact
	// per-scenario draws.
	Seed int64

	// Deployment fingerprints the network and sensor set the samples
	// were generated against (see Factory.DeploymentFingerprint).
	Deployment uint64

	// ConfigDigest fingerprints the generation Config (see
	// Config.Digest).
	ConfigDigest uint64

	// Shard and ShardCount place this file in the corpus.
	Shard      int
	ShardCount int

	// FirstScenario and Scenarios give the contiguous generation-order
	// range [FirstScenario, FirstScenario+Scenarios) this shard covers,
	// counting scenarios that were skipped after retry exhaustion.
	FirstScenario int
	Scenarios     int

	// Samples is the number of records present (Scenarios minus skips).
	Samples int

	// FeatureDim is the per-record feature count (the sensor count).
	FeatureDim int

	// Junctions maps label columns to node indices, exactly as
	// Factory.Junctions orders them.
	Junctions []int
}

// labelBytes is the size of one record's label bitset.
func labelBytes(junctions int) int { return (junctions + 7) / 8 }

// recordSize is the fixed size of one sample record.
func (h *ShardHeader) recordSize() int {
	return 8 + 8*h.FeatureDim + labelBytes(len(h.Junctions))
}

// headerSize is the on-disk header length including the junction table
// and the header CRC.
func (h *ShardHeader) headerSize() int {
	return shardFixedBytes + 4*len(h.Junctions) + 4
}

// encode serializes the header, including its CRC.
func (h *ShardHeader) encode() []byte {
	buf := make([]byte, h.headerSize())
	copy(buf[0:4], shardMagic)
	binary.LittleEndian.PutUint16(buf[4:6], uint16(h.Version))
	binary.LittleEndian.PutUint16(buf[6:8], 0)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(h.Seed))
	binary.LittleEndian.PutUint64(buf[16:24], h.Deployment)
	binary.LittleEndian.PutUint64(buf[24:32], h.ConfigDigest)
	binary.LittleEndian.PutUint32(buf[32:36], uint32(h.Shard))
	binary.LittleEndian.PutUint32(buf[36:40], uint32(h.ShardCount))
	binary.LittleEndian.PutUint32(buf[40:44], uint32(h.FirstScenario))
	binary.LittleEndian.PutUint32(buf[44:48], uint32(h.Scenarios))
	binary.LittleEndian.PutUint32(buf[48:52], uint32(h.Samples))
	binary.LittleEndian.PutUint32(buf[52:56], uint32(h.FeatureDim))
	binary.LittleEndian.PutUint32(buf[56:60], uint32(len(h.Junctions)))
	off := shardFixedBytes
	for _, node := range h.Junctions {
		binary.LittleEndian.PutUint32(buf[off:off+4], uint32(node))
		off += 4
	}
	crc := crc32.Checksum(buf[:off], castagnoli)
	binary.LittleEndian.PutUint32(buf[off:off+4], crc)
	return buf
}

// decodeShardHeader reads and validates a header from r. The version
// check precedes the CRC check so wrong-version shards are reported as
// such rather than as corrupt.
func decodeShardHeader(r io.Reader) (ShardHeader, error) {
	fixed := make([]byte, shardFixedBytes)
	if _, err := io.ReadFull(r, fixed); err != nil {
		return ShardHeader{}, fmt.Errorf("%w: header: %v", ErrShardTruncated, err)
	}
	if string(fixed[0:4]) != shardMagic {
		return ShardHeader{}, fmt.Errorf("%w: bad magic %q", ErrShardFormat, fixed[0:4])
	}
	version := int(binary.LittleEndian.Uint16(fixed[4:6]))
	if version != ShardFormatVersion {
		return ShardHeader{}, fmt.Errorf("%w: shard is v%d, this build reads v%d",
			ErrShardVersion, version, ShardFormatVersion)
	}
	if reserved := binary.LittleEndian.Uint16(fixed[6:8]); reserved != 0 {
		return ShardHeader{}, fmt.Errorf("%w: nonzero reserved field %d", ErrShardFormat, reserved)
	}
	h := ShardHeader{
		Version:       version,
		Seed:          int64(binary.LittleEndian.Uint64(fixed[8:16])),
		Deployment:    binary.LittleEndian.Uint64(fixed[16:24]),
		ConfigDigest:  binary.LittleEndian.Uint64(fixed[24:32]),
		Shard:         int(binary.LittleEndian.Uint32(fixed[32:36])),
		ShardCount:    int(binary.LittleEndian.Uint32(fixed[36:40])),
		FirstScenario: int(binary.LittleEndian.Uint32(fixed[40:44])),
		Scenarios:     int(binary.LittleEndian.Uint32(fixed[44:48])),
		Samples:       int(binary.LittleEndian.Uint32(fixed[48:52])),
		FeatureDim:    int(binary.LittleEndian.Uint32(fixed[52:56])),
	}
	junctionCount := int(binary.LittleEndian.Uint32(fixed[56:60]))
	switch {
	case junctionCount == 0 || junctionCount > maxShardJunctions:
		return ShardHeader{}, fmt.Errorf("%w: junction count %d", ErrShardFormat, junctionCount)
	case h.FeatureDim <= 0 || h.FeatureDim > maxShardFeatureDim:
		return ShardHeader{}, fmt.Errorf("%w: feature dimension %d", ErrShardFormat, h.FeatureDim)
	case h.Samples < 0 || h.Samples > maxShardSamples || h.Samples > h.Scenarios:
		return ShardHeader{}, fmt.Errorf("%w: %d samples over %d scenarios", ErrShardFormat, h.Samples, h.Scenarios)
	case h.Scenarios <= 0 || h.Scenarios > maxShardSamples:
		return ShardHeader{}, fmt.Errorf("%w: scenario count %d", ErrShardFormat, h.Scenarios)
	case h.ShardCount <= 0 || h.Shard < 0 || h.Shard >= h.ShardCount:
		return ShardHeader{}, fmt.Errorf("%w: shard %d of %d", ErrShardFormat, h.Shard, h.ShardCount)
	case h.FirstScenario < 0:
		return ShardHeader{}, fmt.Errorf("%w: first scenario %d", ErrShardFormat, h.FirstScenario)
	}
	table := make([]byte, 4*junctionCount+4)
	if _, err := io.ReadFull(r, table); err != nil {
		return ShardHeader{}, fmt.Errorf("%w: junction table: %v", ErrShardTruncated, err)
	}
	crc := crc32.Checksum(fixed, castagnoli)
	crc = crc32.Update(crc, castagnoli, table[:4*junctionCount])
	if want := binary.LittleEndian.Uint32(table[4*junctionCount:]); crc != want {
		return ShardHeader{}, fmt.Errorf("%w: header CRC %08x, computed %08x", ErrShardChecksum, want, crc)
	}
	h.Junctions = make([]int, junctionCount)
	for i := range h.Junctions {
		h.Junctions[i] = int(binary.LittleEndian.Uint32(table[4*i : 4*i+4]))
	}
	return h, nil
}

// ShardWriter streams fixed-size sample records into one corpus shard.
// Records land in a staging file (path + ".tmp") and the finished shard
// appears under its final name only on a successful Close, so a crash or
// kill at any instant leaves either no shard or an ignorable .tmp —
// never a complete-looking short shard.
//
// A ShardWriter is single-goroutine; the concurrency in corpus
// generation lives in the sample-building worker pool that feeds it.
type ShardWriter struct {
	hdr     ShardHeader
	path    string
	tmp     string
	f       *os.File
	rec     []byte // one-record scratch
	crc     uint32 // running CRC-32C over record bytes
	samples int
	bytes   int64
}

// NewShardWriter creates the staging file and writes a provisional
// header (sample count zero; patched on Close). hdr.Samples is ignored.
func NewShardWriter(path string, hdr ShardHeader) (*ShardWriter, error) {
	if hdr.FeatureDim <= 0 || len(hdr.Junctions) == 0 {
		return nil, fmt.Errorf("dataset: shard writer: empty geometry (%d features, %d junctions)",
			hdr.FeatureDim, len(hdr.Junctions))
	}
	hdr.Version = ShardFormatVersion
	hdr.Samples = 0
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("dataset: shard writer: %w", err)
	}
	w := &ShardWriter{
		hdr:  hdr,
		path: path,
		tmp:  tmp,
		f:    f,
		rec:  make([]byte, hdr.recordSize()),
	}
	if _, err := f.Write(hdr.encode()); err != nil {
		w.Abort()
		return nil, fmt.Errorf("dataset: shard writer: header: %w", err)
	}
	return w, nil
}

// Append writes one sample record. labels is the per-junction-column
// ground truth (aligned with the header's junction table); any nonzero
// entry sets the column's bit.
func (w *ShardWriter) Append(scenario, retries int, features []float64, labels []int) error {
	if len(features) != w.hdr.FeatureDim {
		return fmt.Errorf("dataset: shard writer: %d features, want %d", len(features), w.hdr.FeatureDim)
	}
	if len(labels) != len(w.hdr.Junctions) {
		return fmt.Errorf("dataset: shard writer: %d label columns, want %d", len(labels), len(w.hdr.Junctions))
	}
	rec := w.rec
	binary.LittleEndian.PutUint32(rec[0:4], uint32(scenario))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(retries))
	off := 8
	for _, v := range features {
		binary.LittleEndian.PutUint64(rec[off:off+8], math.Float64bits(v))
		off += 8
	}
	bits := rec[off:]
	for i := range bits {
		bits[i] = 0
	}
	for col, v := range labels {
		if v != 0 {
			bits[col>>3] |= 1 << (col & 7)
		}
	}
	if _, err := w.f.Write(rec); err != nil {
		return fmt.Errorf("dataset: shard writer: record: %w", err)
	}
	w.crc = crc32.Update(w.crc, castagnoli, rec)
	w.samples++
	return nil
}

// Samples returns the record count appended so far.
func (w *ShardWriter) Samples() int { return w.samples }

// Close finalizes the shard: it writes the payload CRC, patches the
// header with the final sample count, syncs, and atomically renames the
// staging file into place. Only after Close returns nil does a complete
// shard exist under the final name.
func (w *ShardWriter) Close() error {
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], w.crc)
	if _, err := w.f.Write(tail[:]); err != nil {
		w.Abort()
		return fmt.Errorf("dataset: shard writer: payload CRC: %w", err)
	}
	w.hdr.Samples = w.samples
	if _, err := w.f.WriteAt(w.hdr.encode(), 0); err != nil {
		w.Abort()
		return fmt.Errorf("dataset: shard writer: header patch: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.Abort()
		return fmt.Errorf("dataset: shard writer: sync: %w", err)
	}
	size, err := w.f.Seek(0, io.SeekEnd)
	if err == nil {
		w.bytes = size
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.tmp)
		return fmt.Errorf("dataset: shard writer: close: %w", err)
	}
	if err := os.Rename(w.tmp, w.path); err != nil {
		os.Remove(w.tmp)
		return fmt.Errorf("dataset: shard writer: publish: %w", err)
	}
	return nil
}

// Bytes returns the finished shard's size (valid after Close).
func (w *ShardWriter) Bytes() int64 { return w.bytes }

// Abort discards the staging file. Safe to call after a failed Close.
func (w *ShardWriter) Abort() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	os.Remove(w.tmp)
}

// CorpusSample is one decoded sample yielded during corpus iteration.
// Features and the label bits are views into the reader's reused buffers
// — valid only until the callback returns; callers that retain data must
// copy it.
type CorpusSample struct {
	// Index is the sample's global generation-order scenario index.
	Index int

	// Retries is the solver retry count the sample's leak solve consumed.
	Retries int

	// Features is the per-sensor reading-delta vector (borrowed).
	Features []float64

	labels []byte
	cols   int
}

// LabelCount returns the number of junction label columns.
func (s *CorpusSample) LabelCount() int { return s.cols }

// Label returns the ground-truth bit for one junction column (0 or 1).
func (s *CorpusSample) Label(col int) int {
	if col < 0 || col >= s.cols {
		return 0
	}
	return int(s.labels[col>>3]>>(col&7)) & 1
}

// AppendLabelBits appends the sample's packed label bitset to dst and
// returns the extended slice: ⌈LabelCount/8⌉ bytes, column c at bit c&7
// of byte c>>3, as the shard record stores it. The appended copy stays
// valid after the callback returns.
func (s *CorpusSample) AppendLabelBits(dst []byte) []byte { return append(dst, s.labels...) }

// Labels expands the bitset into dst (allocated when nil or short) and
// returns it — the same []int shape dataset.Sample.Labels carries.
func (s *CorpusSample) Labels(dst []int) []int {
	if cap(dst) < s.cols {
		dst = make([]int, s.cols)
	}
	dst = dst[:s.cols]
	for col := range dst {
		dst[col] = s.Label(col)
	}
	return dst
}

// shardBuffers hold one shard's decode state, reused across shards so a
// full-corpus iteration allocates O(largest shard), not O(corpus).
type shardBuffers struct {
	payload  []byte
	features []float64
}

// readShardFile opens, fully verifies (structure, length, both CRCs) and
// then iterates one shard. No sample reaches fn before the whole shard
// checks out, so a damaged shard can never leak garbage samples into a
// training pass. Iteration stops early with fn's error.
func readShardFile(path string, buf *shardBuffers, fn func(*CorpusSample) error) (ShardHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return ShardHeader{}, err
	}
	defer f.Close()
	hdr, err := decodeShardHeader(f)
	if err != nil {
		return ShardHeader{}, fmt.Errorf("%s: %w", path, err)
	}
	rec := hdr.recordSize()
	want := int64(hdr.headerSize()) + int64(rec)*int64(hdr.Samples) + 4
	st, err := f.Stat()
	if err != nil {
		return ShardHeader{}, fmt.Errorf("dataset: %s: %w", path, err)
	}
	switch {
	case st.Size() < want:
		return ShardHeader{}, fmt.Errorf("%s: %w: %d bytes, need %d", path, ErrShardTruncated, st.Size(), want)
	case st.Size() > want:
		return ShardHeader{}, fmt.Errorf("%s: %w: %d trailing bytes", path, ErrShardFormat, st.Size()-want)
	}
	n := rec*hdr.Samples + 4
	if cap(buf.payload) < n {
		buf.payload = make([]byte, n)
	}
	payload := buf.payload[:n]
	if _, err := io.ReadFull(f, payload); err != nil {
		return ShardHeader{}, fmt.Errorf("%s: %w: records: %v", path, ErrShardTruncated, err)
	}
	records := payload[:n-4]
	crc := crc32.Checksum(records, castagnoli)
	if got := binary.LittleEndian.Uint32(payload[n-4:]); crc != got {
		return ShardHeader{}, fmt.Errorf("%s: %w: payload CRC %08x, computed %08x", path, ErrShardChecksum, got, crc)
	}
	// The CRC vouches for transport integrity, not writer sanity:
	// scenario indices must stay inside the declared range and strictly
	// increase, or the shard is structurally invalid. Validated over the
	// whole shard BEFORE any sample is yielded, so a rejected shard
	// never leaks samples to the callback.
	prev := -1
	for i := 0; i < hdr.Samples; i++ {
		idx := int(binary.LittleEndian.Uint32(records[i*rec : i*rec+4]))
		if idx <= prev || idx < hdr.FirstScenario || idx >= hdr.FirstScenario+hdr.Scenarios {
			return ShardHeader{}, fmt.Errorf("%s: %w: record %d has scenario index %d outside [%d,%d)",
				path, ErrShardFormat, i, idx, hdr.FirstScenario, hdr.FirstScenario+hdr.Scenarios)
		}
		prev = idx
	}
	if fn == nil {
		return hdr, nil
	}
	if cap(buf.features) < hdr.FeatureDim {
		buf.features = make([]float64, hdr.FeatureDim)
	}
	s := CorpusSample{Features: buf.features[:hdr.FeatureDim], cols: len(hdr.Junctions)}
	lb := labelBytes(len(hdr.Junctions))
	for i := 0; i < hdr.Samples; i++ {
		r := records[i*rec : (i+1)*rec]
		s.Index = int(binary.LittleEndian.Uint32(r[0:4]))
		s.Retries = int(binary.LittleEndian.Uint32(r[4:8]))
		off := 8
		for j := 0; j < hdr.FeatureDim; j++ {
			s.Features[j] = math.Float64frombits(binary.LittleEndian.Uint64(r[off : off+8]))
			off += 8
		}
		s.labels = r[off : off+lb]
		if err := fn(&s); err != nil {
			return hdr, err
		}
	}
	return hdr, nil
}

// ReadShard fully verifies one shard file (structure, length, header and
// payload CRCs) and, when fn is non-nil, yields every sample in record
// order. It is the single-shard entry point VerifyShard, corpus
// iteration and the fuzz harness all share.
func ReadShard(path string, fn func(*CorpusSample) error) (ShardHeader, error) {
	var buf shardBuffers
	return readShardFile(path, &buf, fn)
}

// VerifyShard checks one shard end to end — header, length, junction
// table and both CRCs — without decoding samples. It is what resume uses
// to decide a shard needs no regeneration.
func VerifyShard(path string) (ShardHeader, error) {
	return ReadShard(path, nil)
}

// Digest returns a stable FNV-1a digest over every Config field that
// influences generated sample values. Two factories whose configs digest
// equal produce bit-identical corpora from the same seed and deployment;
// anything else must refuse to mix (the digest rides in every shard
// header for exactly that check). Defaults are applied before hashing,
// so an explicit Step of 15m digests the same as the zero value.
func (c Config) Digest() uint64 {
	c = c.withDefaults()
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	i64 := func(v int64) { u64(uint64(v)) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	b := func(v bool) {
		if v {
			u64(1)
		} else {
			u64(0)
		}
	}

	i64(int64(c.ElapsedSlots))
	i64(int64(c.Step / time.Nanosecond))
	i64(int64(c.BaseTime / time.Nanosecond))
	f64(c.Noise.PressureStd)
	f64(c.Noise.FlowStd)
	i64(int64(c.Leaks.MinEvents))
	i64(int64(c.Leaks.MaxEvents))
	f64(c.Leaks.MinSize)
	f64(c.Leaks.MaxSize)
	i64(int64(c.Leaks.Start / time.Nanosecond))
	i64(0) // was the solver backend (0 = auto, all any caller set); kept so existing digests still match
	f64(c.Solver.Accuracy)
	i64(int64(c.Solver.MaxIterations))
	f64(c.Solver.EmitterExponent)
	b(c.Solver.PressureDriven)
	f64(c.Solver.MinPressure)
	f64(c.Solver.RefPressure)
	i64(int64(c.Retry.MaxRetries))
	f64(c.Retry.Relaxation)
	f64(c.Faults.Dropout)
	f64(c.Faults.Stuck)
	f64(c.Faults.NaN)
	f64(c.Faults.SolverFail)
	i64(int64(c.Faults.SolverFailAttempts))
	f64(c.Faults.RequestSlow)
	i64(int64(c.Faults.RequestDelay / time.Nanosecond))
	f64(c.Faults.RequestFail)
	b(false) // was the abort-on-first-failure option (false unless set); kept so existing digests still match
	return h.Sum64()
}

// ConfigDigest returns the digest of the factory's effective (defaulted)
// generation config — the value stamped into every shard this factory
// writes.
func (f *Factory) ConfigDigest() uint64 { return f.cfg.Digest() }

// DeploymentFingerprint fingerprints everything a corpus sample's
// meaning depends on besides the Config: the network's hydraulic
// identity and the exact ordered sensor set. It mirrors the aquad
// -net/-iot/-seed startup match — a corpus only fits the deployment it
// was generated against.
func (f *Factory) DeploymentFingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u64(f.net.Fingerprint())
	u64(uint64(len(f.sensors)))
	for _, s := range f.sensors {
		u64(uint64(s.Kind))
		u64(uint64(s.Index))
	}
	return h.Sum64()
}
