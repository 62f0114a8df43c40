package ml

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
)

// This file is the model (de)serialization module from paper §IV-D1:
// "AdaEdge incorporates a specialized module for serialization and
// deserialization to manage instances of machine learning models." Models
// are exchanged as self-describing binary blobs so a pre-trained model can
// be shipped to the edge device and loaded for accuracy evaluation.

// modelEnvelope wraps a model with its kind tag for gob round-tripping.
type modelEnvelope struct {
	Kind string
	Tree *DecisionTree
	For  *RandomForest
	Knn  *KNN
	Km   *KMeans
}

// Save serializes a model to w. Supported types: *DecisionTree,
// *RandomForest, *KNN, *KMeans.
func Save(w io.Writer, m Classifier) error {
	env := modelEnvelope{}
	switch v := m.(type) {
	case *DecisionTree:
		env.Kind, env.Tree = "dtree", v
	case *RandomForest:
		env.Kind, env.For = "rforest", v
	case *KNN:
		env.Kind, env.Knn = "knn", v
	case *KMeans:
		env.Kind, env.Km = "kmeans", v
	default:
		return fmt.Errorf("ml: unsupported model type %T", m)
	}
	return gob.NewEncoder(w).Encode(env)
}

// Load deserializes a model previously written by Save. It accepts only
// what a fit can produce: a model whose Predict returns, without a panic.
func Load(r io.Reader) (Classifier, error) {
	var env modelEnvelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("ml: decode model: %w", err)
	}
	var m interface {
		Classifier
		valid() bool
	}
	switch {
	case env.Kind == "dtree" && env.Tree != nil:
		m = env.Tree
	case env.Kind == "rforest" && env.For != nil:
		m = env.For
	case env.Kind == "knn" && env.Knn != nil:
		m = env.Knn
	case env.Kind == "kmeans" && env.Km != nil:
		m = env.Km
	default:
		return nil, fmt.Errorf("ml: unknown model kind %q or missing payload", env.Kind)
	}
	if !m.valid() {
		return nil, fmt.Errorf("ml: invalid %s model", env.Kind)
	}
	return m, nil
}

// maxClasses bounds a loaded model's label count, which sizes Predict's
// vote tally.
const maxClasses = 1 << 16

// valid requires every internal node's children to lie after it and inside
// Nodes, as grow lays them out, so that Predict's walk ends at a leaf.
func (t *DecisionTree) valid() bool {
	for i, n := range t.Nodes {
		if n.Feature >= 0 && (min(n.Left, n.Right) <= i || max(n.Left, n.Right) >= len(t.Nodes)) {
			return false
		}
	}
	return len(t.Nodes) > 0 && t.Classes >= 1 && t.Classes <= maxClasses
}

func (f *RandomForest) valid() bool {
	for _, t := range f.Trees {
		if t == nil || !t.valid() {
			return false
		}
	}
	return len(f.Trees) > 0 && f.Classes >= 1 && f.Classes <= maxClasses
}

func (m *KNN) valid() bool {
	return len(m.X) == len(m.Y) && m.K >= 1 && m.K <= len(m.X) && m.Classes >= 1 && m.Classes <= maxClasses
}

func (m *KMeans) valid() bool {
	for _, c := range m.Centroids {
		if len(c) != len(m.Centroids[0]) {
			return false
		}
	}
	return len(m.Centroids) > 0
}

// Marshal serializes a model to a byte slice.
func Marshal(m Classifier) ([]byte, error) {
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Unmarshal deserializes a model from a byte slice.
func Unmarshal(data []byte) (Classifier, error) {
	return Load(bytes.NewReader(data))
}
