package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"testing"

	"github.com/aquascale/aquascale/internal/fusion"
	"github.com/aquascale/aquascale/internal/mlearn"
	"github.com/aquascale/aquascale/internal/network"
)

// Gob matches struct fields by name, so these mirrors of the profile
// wire format build crafted uploads the way an outside client could.
type (
	fuzzNode struct {
		Feature     int
		Threshold   float64
		Left, Right int
		Value       float64
		Leaf        bool
	}
	fuzzEnvelope struct {
		Kind    string
		Payload []byte
	}
	fuzzBank struct {
		Seed   int64
		Models [][]byte
	}
	fuzzScaler struct{ Mean, Inv []float64 }
	fuzzLinear struct {
		Scale  *fuzzScaler
		W      []float64
		Fitted bool
	}
)

// fuzzUpload encodes a profile whose every junction column is the one
// classifier (kind, state).
func fuzzUpload(tb testing.TB, header profileHeader, kind string, state any) []byte {
	tb.Helper()
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	model := encode(fuzzEnvelope{Kind: kind, Payload: encode(state)})
	bank := fuzzBank{Models: make([][]byte, len(header.Junctions))}
	for i := range bank.Models {
		bank.Models[i] = model
	}
	return append(encode(header), encode(bank)...)
}

// FuzzLoadProfile feeds arbitrary bytes to the profile upload path,
// LoadProfile then SetProfile. Either step may refuse the bytes, and
// then the live profile must keep serving bit-identical results; or the
// profile installs, and then localizing a sensor-wide observation must
// return without panicking. Seeds are the saved profile of every
// technique and the crafted uploads that used to crash or corrupt the
// daemon.
func FuzzLoadProfile(f *testing.F) {
	net := network.BuildTestNet()
	sys := NewSystem(junctionFactory(f, net), net, SystemConfig{})
	ds := syntheticDataset(net.JunctionIndices(), 40, rand.New(rand.NewSource(3)))
	for _, technique := range []Technique{TechniqueLinear, TechniqueLogistic, TechniqueSVM,
		TechniqueRF, TechniqueGB, TechniqueHybridRSL} {
		p, err := TrainProfile(ds, len(net.Nodes), ProfileConfig{Technique: technique, Seed: 1})
		if err != nil {
			f.Fatalf("%s: TrainProfile: %v", technique, err)
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			f.Fatalf("%s: Save: %v", technique, err)
		}
		f.Add(buf.Bytes())
	}
	if err := sys.TrainOn(ds, ProfileConfig{Technique: TechniqueRF, Seed: 1}); err != nil {
		f.Fatalf("TrainOn: %v", err)
	}
	live := sys.Profile()

	sensors := sys.Factory().SensorCount()
	header := profileHeader{Technique: "tree", Junctions: net.JunctionIndices(), NodeCount: len(net.Nodes)}
	pastNodes := header
	pastNodes.Junctions = append([]int(nil), header.Junctions...)
	pastNodes.Junctions[len(pastNodes.Junctions)-1] = header.NodeCount + 7
	leaf := fuzzNode{Leaf: true, Left: -1, Right: -1, Value: 0.5}
	tree := func(nodes ...fuzzNode) any { return struct{ Nodes []fuzzNode }{nodes} }
	forest := struct{ Trees [][]fuzzNode }{[][]fuzzNode{{leaf}, {}}}
	linear := func(w, scaler int) any {
		return fuzzLinear{Scale: &fuzzScaler{make([]float64, scaler), make([]float64, scaler)}, W: make([]float64, w), Fitted: true}
	}
	for _, crafted := range [][]byte{
		fuzzUpload(f, header, "tree", tree(fuzzNode{Feature: 0, Left: 0, Right: 0})),
		fuzzUpload(f, pastNodes, "tree", tree(leaf)),
		fuzzUpload(f, header, "tree", tree(fuzzNode{Feature: sensors + 2, Left: 1, Right: 2}, leaf, leaf)),
		fuzzUpload(f, header, "linear", linear(sensors+3, sensors+3)),
		fuzzUpload(f, header, "linear", linear(sensors, 1)),
		fuzzUpload(f, header, "rf", forest),
		fuzzUpload(f, header, "gb", forest),
	} {
		f.Add(crafted)
	}

	obs := Observation{Features: make([]float64, sensors)}
	for i := range obs.Features {
		obs.Features[i] = float64(i%3) - 1.5
	}
	pred := &fusion.Prediction{Proba: make([]float64, len(net.Nodes))}
	localize := func(t *testing.T) []float64 {
		t.Helper()
		if _, err := sys.LocalizeInto(pred, obs); err != nil {
			t.Fatalf("LocalizeInto: %v", err)
		}
		return append([]float64(nil), pred.Proba...)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if sys.Profile() != live {
			if err := sys.SetProfile(live); err != nil {
				t.Fatalf("reinstall live profile: %v", err)
			}
		}
		before := localize(t)
		p, err := LoadProfile(bytes.NewReader(data))
		if err == nil {
			err = sys.SetProfile(p)
		}
		if err == nil {
			localize(t)
			return
		}
		if sys.Profile() != live {
			t.Fatalf("refused profile (%v) replaced the live one", err)
		}
		after := localize(t)
		for v, want := range before {
			if got := after[v]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("refused profile (%v) moved proba[%d]: %v → %v", err, v, want, got)
			}
		}
	})
}

// ckptLoadSlack is what opening a checkpoint may allocate beyond the
// file's own size: the header, frame buffers and the gob decoding of
// the valid frames, which for testCkptMeta's three small linear models
// is a few tens of KiB.
const ckptLoadSlack = 1 << 20

// FuzzOpenCheckpoint feeds arbitrary bytes to the training checkpoint
// decoder as an existing checkpoint of testCkptMeta's run. It must not
// panic and must allocate at most the file size plus ckptLoadSlack.
// A refused file (not a checkpoint, or another run's) is left as it
// was. An accepted one is left holding a valid header and exactly the
// frames it loaded, each in column order with a matching CRC-32C and a
// payload that decodes; the rest was truncated. Seeds are a complete
// checkpoint, torn copies of it and the crafted frame length that used
// to allocate 1 GiB.
func FuzzOpenCheckpoint(f *testing.F) {
	meta := testCkptMeta
	valid := validCheckpoint(f, meta)
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(valid[:len(meta.encode())+6])
	f.Add(craftedCheckpoint(meta))
	f.Add([]byte("AQCK"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path, models, n, alloc, err := openCheckpointAlloc(t, data, meta)
		if limit := uint64(len(data)) + ckptLoadSlack; alloc > limit {
			t.Fatalf("opening a %d-byte checkpoint allocated %d bytes, limit %d", len(data), alloc, limit)
		}
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatalf("ReadFile: %v", rerr)
		}
		if err != nil {
			if !bytes.Equal(got, data) {
				t.Fatalf("refused checkpoint (%v) was modified", err)
			}
			return
		}
		hdr := meta.encode()
		if !bytes.HasPrefix(got, hdr) || !(bytes.HasPrefix(data, got) || bytes.Equal(got, hdr)) {
			t.Fatalf("accepted checkpoint left %d bytes that are neither a prefix of the input nor a fresh header", len(got))
		}
		rest := got[len(hdr):]
		for col := 0; col < n; col++ {
			if len(rest) < 8 {
				t.Fatalf("column %d: frame header torn after load", col)
			}
			idx := binary.LittleEndian.Uint32(rest[0:4])
			size := int(binary.LittleEndian.Uint32(rest[4:8]))
			if int(idx) != col || len(rest) < 8+size+4 {
				t.Fatalf("column %d: frame index %d with %d payload bytes, %d bytes left", col, idx, size, len(rest))
			}
			body := rest[8 : 8+size]
			if crc32.Checksum(body, ckptCRCTable) != binary.LittleEndian.Uint32(rest[8+size:]) {
				t.Fatalf("column %d: loaded frame fails its CRC", col)
			}
			if _, err := mlearn.LoadClassifier(bytes.NewReader(body)); err != nil || models[col] == nil {
				t.Fatalf("column %d: loaded frame does not decode (%v) or no model was set", col, err)
			}
			rest = rest[8+size+4:]
		}
		if len(rest) != 0 {
			t.Fatalf("%d bytes left after the %d loaded frames were not truncated", len(rest), n)
		}
		for col := n; col < len(models); col++ {
			if models[col] != nil {
				t.Fatalf("column %d set past the loaded prefix of %d", col, n)
			}
		}
	})
}
