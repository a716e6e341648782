package model

import (
	"fmt"
	"sync"

	"ejoin/internal/vec"
)

// LookupTable maintains the object↔embedding mapping by unique ID,
// implementing the paper's E⁻¹ fallback (Section III-C): "If the model does
// not have a decoder to recover the original data R, a lookup table
// mechanism can maintain the object-embedding mapping via unique IDs."
// It also serves as the decode path for late-materialized join results:
// operators return (offset, offset) pairs and callers decode only matches.
type LookupTable struct {
	mu      sync.RWMutex
	texts   []string
	vectors [][]float32
	dim     int
}

// NewLookupTable creates an empty table for d-dimensional embeddings.
func NewLookupTable(dim int) *LookupTable {
	return &LookupTable{dim: dim}
}

// BuildLookupTable embeds every input with m and records the mapping,
// returning the table. IDs are the input offsets.
func BuildLookupTable(m Model, inputs []string) (*LookupTable, error) {
	t := NewLookupTable(m.Dim())
	for i, s := range inputs {
		e, err := m.Embed(s)
		if err != nil {
			return nil, fmt.Errorf("model: building lookup table at %d: %w", i, err)
		}
		t.Add(s, e)
	}
	return t, nil
}

// Add records a text/embedding pair and returns its ID.
func (t *LookupTable) Add(text string, embedding []float32) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.texts = append(t.texts, text)
	t.vectors = append(t.vectors, embedding)
	return len(t.texts) - 1
}

// Len returns the number of entries.
func (t *LookupTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.texts)
}

// Decode returns the original text for an ID (E⁻¹ by unique ID).
func (t *LookupTable) Decode(id int) (string, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if id < 0 || id >= len(t.texts) {
		return "", fmt.Errorf("model: lookup id %d out of range [0,%d)", id, len(t.texts))
	}
	return t.texts[id], nil
}

// TopK returns the IDs of the k stored embeddings most similar to q,
// in descending similarity — the exhaustive-scan reference used to measure
// HNSW recall and to produce Table II's top-15 match lists.
func (t *LookupTable) TopK(q []float32, k int) []ScoredID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if k <= 0 {
		return nil
	}
	res := make([]ScoredID, 0, k+1)
	for i, v := range t.vectors {
		s := vec.Cosine(vec.KernelSIMD, q, v)
		if len(res) < k || s > res[len(res)-1].Sim {
			res = insertScored(res, ScoredID{ID: i, Sim: s}, k)
		}
	}
	return res
}

// ScoredID pairs an entry ID with its similarity to a query.
type ScoredID struct {
	ID  int
	Sim float32
}

// insertScored inserts x keeping res sorted descending by Sim, capped at k.
func insertScored(res []ScoredID, x ScoredID, k int) []ScoredID {
	pos := len(res)
	for pos > 0 && res[pos-1].Sim < x.Sim {
		pos--
	}
	res = append(res, ScoredID{})
	copy(res[pos+1:], res[pos:])
	res[pos] = x
	if len(res) > k {
		res = res[:k]
	}
	return res
}
