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
		return nil, fmt.Errorf("%w: header has %d nodes, %d junctions",
			ErrCorruptProfile, h.NodeCount, len(h.Junctions))
	}
	if err := checkJunctions(h.Junctions, h.NodeCount); err != nil {
		return nil, err
	}
	model, err := mlearn.LoadMultiOutput(br)
	if err != nil {
		return nil, err
	}
	if model.Outputs() != len(h.Junctions) {
		return nil, fmt.Errorf("%w: %d outputs but %d junction columns",
			ErrCorruptProfile, model.Outputs(), len(h.Junctions))
	}
	return &Profile{
		technique: Technique(h.Technique),
		model:     model,
		junctions: h.Junctions,
		nodeCount: h.NodeCount,
	}, nil
}

// ErrCorruptProfile is returned by LoadProfile for a profile whose
// header cannot describe a trained bank: no nodes or junctions, a
// junction column map that is not strictly increasing within
// [0, NodeCount), or a bank whose output count differs from it.
var ErrCorruptProfile = errors.New("core: corrupt profile")

// checkJunctions validates a label column → node index map for a
// nodeCount-node network: node indices strictly increasing within
// [0, nodeCount), as TrainProfile builds it from JunctionIndices.
func checkJunctions(junctions []int, nodeCount int) error {
	for col, v := range junctions {
		if v < 0 || v >= nodeCount || (col > 0 && v <= junctions[col-1]) {
			return fmt.Errorf("%w: junction column %d maps to node %d (%d nodes; columns must map to strictly increasing node indices)",
				ErrCorruptProfile, col, v, nodeCount)
		}
	}
	return nil
}

// ErrFeatureOutOfRange is returned by SetProfile for a profile whose
// models read a feature index the deployment's sensor vector lacks: a
// tree split past it, or a linear, logistic or SVM leg whose weights and
// scaler are not exactly one per sensor.
var ErrFeatureOutOfRange = errors.New("core: profile reads features the deployment does not have")

// SetProfile installs a pre-trained (e.g. loaded) profile into the system,
// compiled. The swap is atomic: concurrent Localize calls see either the
// old or the new profile in full, never a mix, so online services can
// hot-reload a profile under load. A profile that does not fit the
// deployment (node count, feature width) or does not compile is refused
// and the installed one stays. The baseline memo starts over with the
// new profile.
func (s *System) SetProfile(p *Profile) error { return s.install(p) }
