package mlearn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"reflect"
)

// Serialization of trained classifiers, so a profile trained offline
// (Phase I can take hours at paper scale) can be saved and reloaded for
// online inference. Each classifier flattens to an exported-field state
// struct; a kind tag selects the decoder. Training-only bookkeeping (the
// forest's out-of-bag estimates) is not persisted.

// ErrUnknownModelKind is returned when decoding an unrecognized tag.
var ErrUnknownModelKind = errors.New("mlearn: unknown model kind")

// ErrCorruptTree is returned when a decoded tree is not a well-formed
// binary tree in preorder.
var ErrCorruptTree = errors.New("mlearn: corrupt tree")

// envelope wraps any model state with its kind tag.
type envelope struct {
	Kind    string
	Payload []byte
}

// flatNode is the saved form of one tree node: a tree is saved as its
// nodes in preorder, linked by index (see flatArena.wire).
type flatNode struct {
	Feature   int
	Threshold float64
	Left      int // index into the flat slice; -1 for leaves
	Right     int
	Value     float64
	Leaf      bool
}

// scalerState is the exported form of a feature scaler.
type scalerState struct {
	Mean []float64
	Inv  []float64
}

func scalerToState(s *scaler) *scalerState {
	if s == nil {
		return nil
	}
	return &scalerState{Mean: s.mean, Inv: s.inv}
}

func stateToScaler(s *scalerState) *scaler {
	if s == nil {
		return nil
	}
	return &scaler{mean: s.Mean, inv: s.Inv}
}

// Per-classifier state structs.

type linearState struct {
	Cfg    LinearConfig
	Scale  *scalerState
	W      []float64
	Bias   float64
	Fitted bool
}

type logisticState struct {
	Cfg    LogisticConfig
	Scale  *scalerState
	W      []float64
	Bias   float64
	Fitted bool
}

type treeState struct {
	Cfg   TreeConfig
	Nodes []flatNode
}

type forestState struct {
	Cfg   RFConfig
	Trees [][]flatNode
}

type gbState struct {
	Cfg   GBConfig
	Bias  float64
	Trees [][]flatNode
}

type svmState struct {
	Cfg    SVMConfig
	Scale  *scalerState
	W      []float64
	Bias   float64
	PlattA float64
	PlattB float64
	Fitted bool
}

type hybridState struct {
	Seed   int64
	RF     []byte // nested envelopes
	SVM    []byte
	Meta   []byte
	Fitted bool
}

// SaveClassifier serializes a trained classifier (any of this package's
// implementations) to w.
func SaveClassifier(w io.Writer, c Classifier) error {
	env, err := encodeClassifier(c)
	if err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(env)
}

// LoadClassifier reads a classifier previously written by SaveClassifier.
func LoadClassifier(r io.Reader) (Classifier, error) {
	var env envelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("mlearn: decode envelope: %w", err)
	}
	return decodeClassifier(env)
}

func encodeClassifier(c Classifier) (envelope, error) {
	return new(gobEncoders).classifier(c)
}

// gobEncoders writes what a fresh gob.NewEncoder(w).Encode(v) writes —
// the definitions of v's types, then v — for many values of one type
// through one encoder per type: the definitions that encoder wrote for
// the first value are replayed before each later one, since a value
// message does not depend on what the encoder sent before it. Save
// encodes every output column's state and envelope this way, so a bank
// of a thousand columns costs two gob buffers per type instead of two
// per column, with the bytes of separate encoders (pinned by
// TestMultiOutputSaveGolden).
type gobEncoders map[reflect.Type]*gobEncoder

type gobEncoder struct {
	out  bytes.Buffer
	enc  *gob.Encoder
	defs []byte // the type definitions a fresh encoder writes first
}

// encode returns v's fresh-encoder bytes, valid until the next encode of
// a value of v's type.
func (g *gobEncoders) encode(v any) ([]byte, error) {
	if *g == nil {
		*g = make(gobEncoders)
	}
	t := reflect.TypeOf(v)
	e := (*g)[t]
	if e == nil {
		e = &gobEncoder{}
		e.enc = gob.NewEncoder(&e.out)
		if err := e.enc.Encode(v); err != nil {
			return nil, err
		}
		first := bytes.Clone(e.out.Bytes())
		e.out.Reset()
		if err := e.enc.Encode(v); err != nil {
			return nil, err
		}
		if !bytes.HasSuffix(first, e.out.Bytes()) {
			return nil, fmt.Errorf("mlearn: gob encoding of %v depends on encoder state", t)
		}
		e.defs = first[:len(first)-e.out.Len()]
		(*g)[t] = e
	}
	e.out.Reset()
	e.out.Write(e.defs)
	if err := e.enc.Encode(v); err != nil {
		return nil, err
	}
	return e.out.Bytes(), nil
}

func (g *gobEncoders) classifier(c Classifier) (envelope, error) {
	var (
		kind  string
		state interface{}
	)
	switch m := c.(type) {
	case *LinearRegression:
		kind = "linear"
		state = linearState{Cfg: m.cfg, Scale: scalerToState(m.scale), W: m.w, Bias: m.bias, Fitted: m.fitted}
	case *LogisticRegression:
		kind = "logistic"
		state = logisticState{Cfg: m.cfg, Scale: scalerToState(m.scale), W: m.w, Bias: m.bias, Fitted: m.fitted}
	case *DecisionTree:
		var nodes []flatNode
		if len(m.arena.roots) > 0 {
			nodes = m.arena.wire(0)
		}
		kind = "tree"
		state = treeState{Cfg: m.cfg, Nodes: nodes}
	case *RandomForest:
		kind = "rf"
		state = forestState{Cfg: m.cfg, Trees: m.arena.wireAll()}
	case *GradientBoosting:
		kind = "gb"
		state = gbState{Cfg: m.cfg, Bias: m.bias, Trees: m.arena.wireAll()}
	case *SVM:
		kind = "svm"
		state = svmState{
			Cfg: m.cfg, Scale: scalerToState(m.scale),
			W: m.w, Bias: m.bias, PlattA: m.plattA, PlattB: m.plattB, Fitted: m.fitted,
		}
	case *HybridRSL:
		if !m.fitted {
			return envelope{}, errors.New("mlearn: cannot save unfitted hybrid")
		}
		rfB, err := g.marshal(m.rf)
		if err != nil {
			return envelope{}, err
		}
		svmB, err := g.marshal(m.svm)
		if err != nil {
			return envelope{}, err
		}
		metaB, err := g.marshal(m.meta)
		if err != nil {
			return envelope{}, err
		}
		kind = "hybrid-rsl"
		state = hybridState{Seed: m.cfg.Seed, RF: rfB, SVM: svmB, Meta: metaB, Fitted: true}
	default:
		return envelope{}, fmt.Errorf("mlearn: cannot serialize %T", c)
	}
	payload, err := g.encode(state)
	if err != nil {
		return envelope{}, fmt.Errorf("mlearn: encode %s state: %w", kind, err)
	}
	return envelope{Kind: kind, Payload: payload}, nil
}

func marshalEnvelope(c Classifier) ([]byte, error) {
	return new(gobEncoders).marshal(c)
}

// marshal returns a copy of c's envelope bytes. A hybrid's legs are
// marshaled, and copied, before its own state is encoded.
func (g *gobEncoders) marshal(c Classifier) ([]byte, error) {
	env, err := g.classifier(c)
	if err != nil {
		return nil, err
	}
	b, err := g.encode(env)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(b), nil
}

func unmarshalEnvelope(data []byte) (Classifier, error) {
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
		return nil, err
	}
	return decodeClassifier(env)
}

func decodeClassifier(env envelope) (Classifier, error) {
	dec := gob.NewDecoder(bytes.NewReader(env.Payload))
	switch env.Kind {
	case "linear":
		var s linearState
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		return &LinearRegression{cfg: s.Cfg, scale: stateToScaler(s.Scale), w: s.W, bias: s.Bias, fitted: s.Fitted}, nil
	case "logistic":
		var s logisticState
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		return &LogisticRegression{cfg: s.Cfg, scale: stateToScaler(s.Scale), w: s.W, bias: s.Bias, fitted: s.Fitted}, nil
	case "tree":
		var s treeState
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		m := &DecisionTree{cfg: s.Cfg}
		if len(s.Nodes) > 0 { // an unfitted tree saves no nodes
			if err := m.arena.appendWire(s.Nodes); err != nil {
				return nil, err
			}
		}
		return m, nil
	case "rf":
		var s forestState
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		m := &RandomForest{cfg: s.Cfg}
		if err := appendWireTrees(&m.arena, s.Trees); err != nil {
			return nil, err
		}
		return m, nil
	case "gb":
		var s gbState
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		m := &GradientBoosting{cfg: s.Cfg, bias: s.Bias}
		if err := appendWireTrees(&m.arena, s.Trees); err != nil {
			return nil, err
		}
		return m, nil
	case "svm":
		var s svmState
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		return &SVM{
			cfg: s.Cfg, scale: stateToScaler(s.Scale),
			w: s.W, bias: s.Bias, plattA: s.PlattA, plattB: s.PlattB, fitted: s.Fitted,
		}, nil
	case "hybrid-rsl":
		var s hybridState
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		rfC, err := unmarshalEnvelope(s.RF)
		if err != nil {
			return nil, err
		}
		svmC, err := unmarshalEnvelope(s.SVM)
		if err != nil {
			return nil, err
		}
		metaC, err := unmarshalEnvelope(s.Meta)
		if err != nil {
			return nil, err
		}
		rf, ok1 := rfC.(*RandomForest)
		svm, ok2 := svmC.(*SVM)
		meta, ok3 := metaC.(*LogisticRegression)
		if !ok1 || !ok2 || !ok3 {
			return nil, errors.New("mlearn: corrupt hybrid state")
		}
		return &HybridRSL{
			cfg:    HybridConfig{Seed: s.Seed},
			rf:     rf,
			svm:    svm,
			meta:   meta,
			fitted: s.Fitted,
		}, nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownModelKind, env.Kind)
	}
}

// appendWireTrees checks and appends an ensemble's saved trees.
func appendWireTrees(a *flatArena, trees [][]flatNode) error {
	for k, nodes := range trees {
		if err := a.appendWire(nodes); err != nil {
			return fmt.Errorf("tree %d: %w", k, err)
		}
	}
	return nil
}

// multiOutputState is the persisted form of a MultiOutput bank.
type multiOutputState struct {
	Seed   int64
	Models [][]byte
}

// Save serializes the fitted multi-output bank. The factory is not
// persisted; a loaded bank can predict but not be refit. The bytes are
// what gob.NewEncoder(w).Encode(multiOutputState{...}) writes, in one
// Write (see gobEncoders.multiOutputState).
func (m *MultiOutput) Save(w io.Writer) error {
	if m.models == nil {
		return ErrNotFitted
	}
	models := make([][]byte, len(m.models))
	var g gobEncoders
	for i, c := range m.models {
		b, err := g.marshal(c)
		if err != nil {
			return fmt.Errorf("mlearn: output %d: %w", i, err)
		}
		models[i] = b
	}
	b, err := g.multiOutputState(m.seed, models)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// multiOutputState returns what a fresh
// gob.NewEncoder(w).Encode(multiOutputState{Seed: seed, Models: models})
// writes: the type definitions and the type id, taken from g's encoding
// of the empty value, then the value message, written by hand into one
// buffer of exact size. gob builds that message in a buffer grown by
// append: a Save of the 1,024-column corpus-grid bank (~2 MB) allocated
// ~12.3 MiB that way against ~4.2 MiB here. This is a stopgap until the
// framed profile format (ROADMAP item 3) replaces gob profiles.
// TestSaveWriterMatchesGob pins it against gob.Encoder.
func (g *gobEncoders) multiOutputState(seed int64, models [][]byte) ([]byte, error) {
	// The empty value encodes as the definitions, then its message:
	// [length][type id][end of struct].
	empty, err := g.encode(multiOutputState{})
	if err != nil {
		return nil, err
	}
	defs := (*g)[reflect.TypeOf(multiOutputState{})].defs
	msg := empty[len(defs):]
	typeID := msg[gobUintLen(msg[0]) : len(msg)-1]

	// The value message: Seed (field 0) and Models (field 1), each only
	// when non-zero, as field-number deltas; every element of Models is
	// sent, as its length and bytes; then the end-of-struct 0.
	size := len(typeID) + 1
	if seed != 0 {
		size += 1 + gobUintSize(gobInt(seed))
	}
	if len(models) > 0 {
		size += 1 + gobUintSize(uint64(len(models)))
		for _, b := range models {
			size += gobUintSize(uint64(len(b))) + len(b)
		}
	}
	if uint64(size) >= gobTooBig {
		return nil, errors.New("gob: encoder: message too big")
	}
	out := make([]byte, 0, len(defs)+gobUintSize(uint64(size))+size)
	out = append(out, defs...)
	out = appendGobUint(out, uint64(size))
	out = append(out, typeID...)
	delta := byte(1)
	if seed != 0 {
		out = append(out, delta)
		out = appendGobUint(out, gobInt(seed))
	} else {
		delta++
	}
	if len(models) > 0 {
		out = append(out, delta)
		out = appendGobUint(out, uint64(len(models)))
		for _, b := range models {
			out = appendGobUint(out, uint64(len(b)))
			out = append(out, b...)
		}
	}
	return append(out, 0), nil
}

// gobTooBig is gob's limit on a message length, as on a 64-bit platform.
const gobTooBig = 1 << 33

// appendGobUint appends gob's unsigned integer encoding of x: one byte
// up to 0x7F, otherwise the negated byte count and the big-endian bytes.
func appendGobUint(b []byte, x uint64) []byte {
	if x <= 0x7F {
		return append(b, byte(x))
	}
	n := gobUintSize(x) - 1
	b = append(b, byte(-n))
	for i := n - 1; i >= 0; i-- {
		b = append(b, byte(x>>(8*i)))
	}
	return b
}

// gobUintSize returns the length of appendGobUint's encoding of x.
func gobUintSize(x uint64) int {
	if x <= 0x7F {
		return 1
	}
	return 9 - bits.LeadingZeros64(x)/8
}

// gobInt maps a signed integer to the unsigned one gob encodes for it:
// i<<1, complemented with the low bit set when i is negative.
func gobInt(i int64) uint64 {
	if i < 0 {
		return uint64(^i<<1) | 1
	}
	return uint64(i << 1)
}

// gobUintLen returns the length of the gob unsigned integer whose first
// byte is first.
func gobUintLen(first byte) int {
	if first <= 0x7F {
		return 1
	}
	return 1 + int(-int8(first))
}

// LoadMultiOutput reads a bank previously written by Save.
func LoadMultiOutput(r io.Reader) (*MultiOutput, error) {
	var st multiOutputState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("mlearn: decode multi-output: %w", err)
	}
	m := &MultiOutput{seed: st.Seed, models: make([]Classifier, len(st.Models))}
	for i, b := range st.Models {
		c, err := unmarshalEnvelope(b)
		if err != nil {
			return nil, fmt.Errorf("mlearn: output %d: %w", i, err)
		}
		m.models[i] = c
	}
	return m, nil
}

// encodeGob is a test seam for writing raw envelopes.
func encodeGob(w io.Writer, v interface{}) error {
	return gob.NewEncoder(w).Encode(v)
}
