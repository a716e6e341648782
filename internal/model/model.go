// Package model implements the embedding-model substrate (the µ of the
// paper): the Model interface an embedding operator E_µ is parametrized
// with, a FastText-like subword hashing embedder, the lookup-table decoder
// standing in for E⁻¹, and wrappers used to study model-operator
// interaction (call counting, injected latency, failure injection).
//
// The paper trains a 100-D FastText model on Wikipedia. FastText's
// properties that the evaluation relies on — misspellings/plural forms land
// near the source word because they share subword n-grams, out-of-vocabulary
// words still embed, and a learned notion of synonymy — are reproduced here
// without training data: shared n-grams fall out of deterministic n-gram
// hashing, and synonymy is injected through an explicit cluster table (see
// HashEmbedder). From the operator's perspective nothing changes: a model
// maps strings to unit-norm vectors, exactly the separation of concerns the
// paper formalizes.
//
// # The embedder's contract
//
// HashEmbedder.Embed is the cost model's M, paid once per uncached tuple.
// An embedding is the float32 sum, in component order (word, n-grams,
// cluster), of one SplitMix64 stream per component keyed by an FNV-1a
// hash, each product rounded to float32 before it is added. Every output
// is bit-identical to walking those streams one serial chain at a time;
// the embedding records a durable WAL holds are keyed by Fingerprint and
// hold these bits.
// TestEmbedBitIdentical and FuzzEmbedBitIdentical hold the kernel to that
// sequential reference, TestEmbedGoldenBits the reference to recorded bits.
//
// A serial chain is bound by multiply latency, so the kernel hashes keys in
// place and advances four chains per loop iteration (generator.go): on the
// benchmark host at d=100, 10.3 -> 3.7 ns per (component x coordinate) and
// 64 -> 23 us per three-token string (BenchmarkHashEmbed). The multiplier
// alone would allow 4 cycles (four scalar IMULs; AVX2 has no 64-bit
// multiply), but the loop's ~37 scalar instructions bind first. There is
// deliberately no n-gram vector table (FastText's input matrix): ~2x faster
// again, but 4d bytes live per distinct n-gram (~2.9 MB on the benchmark's
// cold_embed workload, more than its peak-RSS allowance) and a size knob;
// memoizing token vectors re-associates the float32 sums.
package model

import "errors"

// Model is the embedding model µ: it maps a context-rich input (here a
// string) into the d-dimensional vector space. Implementations must be safe
// for concurrent use; operators embed in parallel.
type Model interface {
	// Embed maps input to its embedding. The returned slice is owned by the
	// caller. Embeddings are unit-norm unless documented otherwise.
	Embed(input string) ([]float32, error)
	// Dim is the embedding dimensionality d.
	Dim() int
	// Name identifies the model in plans and experiment output.
	Name() string
}

// ErrEmptyInput is returned when a model is asked to embed an empty string.
var ErrEmptyInput = errors.New("model: empty input")
