package core

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"github.com/aquascale/aquascale/internal/mlearn"
)

// profileHeader carries the profile metadata alongside the serialized
// classifier bank.
type profileHeader struct {
	Technique string
	Junctions []int
	NodeCount int
}

// Save serializes a trained profile so online deployments can skip
// Phase-I retraining.
func (p *Profile) Save(w io.Writer) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(profileHeader{
		Technique: string(p.technique),
		Junctions: p.junctions,
		NodeCount: p.nodeCount,
	}); err != nil {
		return fmt.Errorf("core: encode profile header: %w", err)
	}
	return p.model.Save(w)
}

// LoadProfile reads a profile previously written by Save. It accepts any
// reader, including network streams (e.g. an HTTP request body).
func LoadProfile(r io.Reader) (*Profile, error) {
	// The header and the model bank are two consecutive gob streams read
	// by two decoders. Both must pull from one shared io.ByteReader:
	// given a plain reader, each gob.Decoder would add its own buffering
	// and read ahead past its stream, swallowing the next section's bytes
	// (bytes.Reader hid this; HTTP bodies and pipes hit it).
	br := bufio.NewReader(r)
	dec := gob.NewDecoder(br)
	var h profileHeader
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("core: decode profile header: %w", err)
	}
	if h.NodeCount <= 0 || len(h.Junctions) == 0 {
		return nil, fmt.Errorf("core: corrupt profile header: %d nodes, %d junctions",
			h.NodeCount, len(h.Junctions))
	}
	model, err := mlearn.LoadMultiOutput(br)
	if err != nil {
		return nil, err
	}
	if model.Outputs() != len(h.Junctions) {
		return nil, fmt.Errorf("core: profile has %d outputs but %d junction columns",
			model.Outputs(), len(h.Junctions))
	}
	return &Profile{
		technique: Technique(h.Technique),
		model:     model,
		junctions: h.Junctions,
		nodeCount: h.NodeCount,
	}, nil
}

// ErrFeatureOutOfRange is returned by SetProfile for a profile whose
// trees split on a feature index the deployment's sensor vector lacks.
var ErrFeatureOutOfRange = errors.New("core: profile splits on a feature the deployment does not have")

// SetProfile installs a pre-trained (e.g. loaded) profile into the system.
// The swap is atomic: concurrent Localize calls see either the old or the
// new profile in full, never a mix, so online services can hot-reload a
// profile under load. A profile that does not fit the deployment (node
// count, split features) is refused and the installed one stays. Any
// compiled snapshot (and its baseline memo) is dropped — it was built
// from the previous profile — so callers on the fast path must Compile
// again after swapping.
func (s *System) SetProfile(p *Profile) error {
	if p == nil {
		return fmt.Errorf("core: nil profile")
	}
	if p.nodeCount != len(s.net.Nodes) {
		return fmt.Errorf("core: profile covers %d nodes, network has %d",
			p.nodeCount, len(s.net.Nodes))
	}
	if f, n := p.model.MaxSplitFeature(), s.factory.SensorCount(); f >= n {
		return fmt.Errorf("%w: feature %d, %d sensors", ErrFeatureOutOfRange, f, n)
	}
	s.profile.Store(p)
	s.compiled.Store(nil)
	return nil
}
