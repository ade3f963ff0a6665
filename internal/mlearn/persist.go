package mlearn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
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

// flatNode is a tree node in flattened (index-linked) form.
type flatNode struct {
	Feature   int
	Threshold float64
	Left      int // index into the flat slice; -1 for leaves
	Right     int
	Value     float64
	Leaf      bool
}

func flattenTree(root *treeNode) []flatNode {
	var out []flatNode
	var walk func(n *treeNode) int
	walk = func(n *treeNode) int {
		idx := len(out)
		out = append(out, flatNode{
			Feature:   n.feature,
			Threshold: n.threshold,
			Value:     n.value,
			Leaf:      n.leaf,
			Left:      -1,
			Right:     -1,
		})
		if !n.leaf {
			out[idx].Left = walk(n.left)
			out[idx].Right = walk(n.right)
		}
		return idx
	}
	if root != nil {
		walk(root)
	}
	return out
}

// unflattenTree rebuilds a pointer tree from its preorder form. The
// input may come from outside the process (a profile upload), so the
// structure is checked before any traversal could run on it: every
// split links strictly forward (Left, Right > i, as flattenTree writes
// them), every node but the root has exactly one parent, and split
// features are non-negative. Forward links rule out cycles, such as a
// node linked to itself, and single parents rule out shared subtrees,
// so the result is a tree whose every walk terminates.
func unflattenTree(nodes []flatNode) (*treeNode, error) {
	if len(nodes) == 0 {
		return nil, nil
	}
	built := make([]*treeNode, len(nodes))
	for i := range nodes {
		built[i] = &treeNode{
			feature:   nodes[i].Feature,
			threshold: nodes[i].Threshold,
			value:     nodes[i].Value,
			leaf:      nodes[i].Leaf,
		}
	}
	hasParent := make([]bool, len(nodes))
	for i, fn := range nodes {
		if fn.Leaf {
			continue
		}
		if fn.Feature < 0 {
			return nil, fmt.Errorf("%w: node %d splits on feature %d", ErrCorruptTree, i, fn.Feature)
		}
		for _, kid := range [2]int{fn.Left, fn.Right} {
			if kid <= i || kid >= len(nodes) {
				return nil, fmt.Errorf("%w: node %d links (%d,%d), want forward links below %d",
					ErrCorruptTree, i, fn.Left, fn.Right, len(nodes))
			}
			if hasParent[kid] {
				return nil, fmt.Errorf("%w: node %d has two parents", ErrCorruptTree, kid)
			}
			hasParent[kid] = true
		}
		built[i].left = built[fn.Left]
		built[i].right = built[fn.Right]
	}
	for i := 1; i < len(nodes); i++ {
		if !hasParent[i] {
			return nil, fmt.Errorf("%w: node %d is unreachable", ErrCorruptTree, i)
		}
	}
	return built[0], nil
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
		kind = "tree"
		state = treeState{Cfg: m.cfg, Nodes: flattenTree(m.root)}
	case *RandomForest:
		trees := make([][]flatNode, len(m.trees))
		for i, t := range m.trees {
			trees[i] = flattenTree(t)
		}
		kind = "rf"
		state = forestState{Cfg: m.cfg, Trees: trees}
	case *GradientBoosting:
		trees := make([][]flatNode, len(m.trees))
		for i, t := range m.trees {
			trees[i] = flattenTree(t)
		}
		kind = "gb"
		state = gbState{Cfg: m.cfg, Bias: m.bias, Trees: trees}
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
		rfB, err := marshalEnvelope(m.rf)
		if err != nil {
			return envelope{}, err
		}
		svmB, err := marshalEnvelope(m.svm)
		if err != nil {
			return envelope{}, err
		}
		metaB, err := marshalEnvelope(m.meta)
		if err != nil {
			return envelope{}, err
		}
		kind = "hybrid-rsl"
		state = hybridState{Seed: m.cfg.Seed, RF: rfB, SVM: svmB, Meta: metaB, Fitted: true}
	default:
		return envelope{}, fmt.Errorf("mlearn: cannot serialize %T", c)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(state); err != nil {
		return envelope{}, fmt.Errorf("mlearn: encode %s state: %w", kind, err)
	}
	return envelope{Kind: kind, Payload: buf.Bytes()}, nil
}

func marshalEnvelope(c Classifier) ([]byte, error) {
	env, err := encodeClassifier(c)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
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
		root, err := unflattenTree(s.Nodes)
		if err != nil {
			return nil, err
		}
		return &DecisionTree{cfg: s.Cfg, root: root}, nil
	case "rf":
		var s forestState
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		m := &RandomForest{cfg: s.Cfg}
		for _, flat := range s.Trees {
			root, err := unflattenTree(flat)
			if err != nil {
				return nil, err
			}
			m.trees = append(m.trees, root)
		}
		return m, nil
	case "gb":
		var s gbState
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		m := &GradientBoosting{cfg: s.Cfg, bias: s.Bias}
		for _, flat := range s.Trees {
			root, err := unflattenTree(flat)
			if err != nil {
				return nil, err
			}
			m.trees = append(m.trees, root)
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

// multiOutputState is the persisted form of a MultiOutput bank.
type multiOutputState struct {
	Seed   int64
	Models [][]byte
}

// Save serializes the fitted multi-output bank. The factory is not
// persisted; a loaded bank can predict but not be refit.
func (m *MultiOutput) Save(w io.Writer) error {
	if m.models == nil {
		return ErrNotFitted
	}
	st := multiOutputState{Seed: m.seed, Models: make([][]byte, len(m.models))}
	for i, c := range m.models {
		b, err := marshalEnvelope(c)
		if err != nil {
			return fmt.Errorf("mlearn: output %d: %w", i, err)
		}
		st.Models[i] = b
	}
	return gob.NewEncoder(w).Encode(st)
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
