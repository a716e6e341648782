package model

import (
	"fmt"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"ejoin/internal/vec"
)

// HashEmbedder is the deterministic FastText stand-in. It embeds a word as
// the normalized average of pseudo-random unit vectors derived from:
//
//   - the word token itself,
//   - its character n-grams with boundary markers (as FastText does), so
//     misspellings, plural forms, and shared stems produce nearby vectors,
//   - optionally, a synonym-cluster vector shared by all members of a
//     cluster (standing in for learned semantics: "bbq" and "barbecue"
//     share no n-grams but the paper's trained model maps them together).
//
// Embeddings are deterministic functions of (seed, word, clusters): the same
// inputs always produce the same vectors, mirroring the paper's fixed RNG
// seed reproducibility requirement.
type HashEmbedder struct {
	dim        int
	seed       uint64
	minN, maxN int
	// clusterOf maps a lower-cased word to its synonym-cluster label.
	clusterOf map[string]string
	// clusterWeight balances surface-form vs semantic components.
	clusterWeight float32
	// wordKey, ngramKey and clusterKey are the FNV-1a states after the seed
	// and the "word:", "ng:" and "cluster:" key prefixes.
	wordKey, ngramKey, clusterKey uint64
	fingerprint                   string

	mu    sync.RWMutex
	cache map[string][]float32
}

// HashEmbedderOption configures a HashEmbedder.
type HashEmbedderOption func(*HashEmbedder)

// WithSeed sets the hash seed (default 42).
func WithSeed(seed uint64) HashEmbedderOption {
	return func(h *HashEmbedder) { h.seed = seed }
}

// WithNGramRange sets the subword n-gram sizes (defaults 3..5, FastText's
// defaults for its subword model).
func WithNGramRange(minN, maxN int) HashEmbedderOption {
	return func(h *HashEmbedder) { h.minN, h.maxN = minN, maxN }
}

// WithSynonyms declares synonym clusters: every word in one cluster receives
// a shared semantic component. The map is cluster label -> member words.
func WithSynonyms(clusters map[string][]string) HashEmbedderOption {
	return func(h *HashEmbedder) {
		for label, words := range clusters {
			for _, w := range words {
				h.clusterOf[normalizeWord(w)] = label
			}
		}
	}
}

// WithClusterWeight sets the relative weight of the synonym-cluster
// component (default 2.0; higher means cluster members are more similar).
func WithClusterWeight(w float32) HashEmbedderOption {
	return func(h *HashEmbedder) { h.clusterWeight = w }
}

// WithCache enables memoization of embeddings, modeling the paper's
// "Option 1: precomputed/cached vector embeddings" (Figure 5).
func WithCache() HashEmbedderOption {
	return func(h *HashEmbedder) { h.cache = make(map[string][]float32) }
}

// NewHashEmbedder creates a dim-dimensional embedder.
func NewHashEmbedder(dim int, opts ...HashEmbedderOption) (*HashEmbedder, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("model: dimension must be positive, got %d", dim)
	}
	h := &HashEmbedder{
		dim:           dim,
		seed:          42,
		minN:          3,
		maxN:          5,
		clusterOf:     make(map[string]string),
		clusterWeight: 2.0,
	}
	for _, o := range opts {
		o(h)
	}
	if h.minN < 1 || h.maxN < h.minN {
		return nil, fmt.Errorf("model: invalid n-gram range [%d,%d]", h.minN, h.maxN)
	}
	h.wordKey = fnv1a(fnvOffset^h.seed, "word:")
	h.ngramKey = fnv1a(fnvOffset^h.seed, "ng:")
	h.clusterKey = fnv1a(fnvOffset^h.seed, "cluster:")
	// Order-independent digest of the synonym-cluster table.
	var clusters uint64 = fnvOffset
	for w, label := range h.clusterOf {
		pair := fnv1a(fnv1a(fnv1a(fnvOffset, w), "\x00"), label)
		clusters ^= pair // XOR is commutative: map order does not matter
	}
	h.fingerprint = fmt.Sprintf("hash-ngram/%d/seed=%d/n=%d-%d/cw=%g/clusters=%x",
		h.dim, h.seed, h.minN, h.maxN, h.clusterWeight, clusters)
	return h, nil
}

// Dim implements Model.
func (h *HashEmbedder) Dim() int { return h.dim }

// Name implements Model.
func (h *HashEmbedder) Name() string {
	return fmt.Sprintf("hash-ngram-%dd", h.dim)
}

// Fingerprint identifies the embedding function for cross-query caches:
// unlike Name, it covers every parameter that changes output vectors
// (seed, n-gram range, synonym clusters, cluster weight), so two
// differently-configured embedders never share cache entries.
func (h *HashEmbedder) Fingerprint() string { return h.fingerprint }

// Embed implements Model. Multi-token inputs embed as the normalized mean of
// per-token embeddings (bag of words), matching how word-embedding models
// are applied to short phrases.
func (h *HashEmbedder) Embed(input string) ([]float32, error) {
	if strings.TrimSpace(input) == "" {
		return nil, ErrEmptyInput
	}
	if h.cache != nil {
		h.mu.RLock()
		if e, ok := h.cache[input]; ok {
			h.mu.RUnlock()
			return vec.Clone(e), nil
		}
		h.mu.RUnlock()
	}

	out := make([]float32, h.dim)
	var b batch
	for field := range strings.FieldsSeq(input) {
		h.addToken(&b, out, field)
	}
	b.flush(out)
	vec.Normalize(out)

	if h.cache != nil {
		h.mu.Lock()
		h.cache[input] = vec.Clone(out)
		h.mu.Unlock()
	}
	return out, nil
}

// addToken queues the components of one whitespace-separated field: its
// normalized word, the word's n-grams with boundary markers, and its
// synonym cluster. Keys are FNV-1a over "word:", "ng:" or "cluster:" and
// the UTF-8 of the part, hashed in place: no []rune, no concatenation.
func (h *HashEmbedder) addToken(b *batch, acc []float32, field string) {
	// m is "<" + normalizeWord(field) + ">". Trimming first is the same
	// string (lower-casing neither makes nor removes punctuation), and
	// ranging decodes invalid bytes to U+FFFD exactly as strings.ToLower does.
	var buf [64]byte
	m := append(buf[:0], '<')
	for _, r := range strings.Trim(field, trimmed) {
		m = utf8.AppendRune(m, unicode.ToLower(r))
	}
	m = append(m, '>')
	tok := m[1 : len(m)-1]

	b.add(acc, streamKey(fnv1a(h.wordKey, tok)), 1)
	count := 1
	runes := utf8.RuneCount(m)
	for n := h.minN; n <= h.maxN && n <= runes; n++ {
		// m[i:j] slides over every run of n runes.
		i, j := 0, 0
		for k := 0; k < n; k++ {
			j += runeLen(m, j)
		}
		for {
			b.add(acc, streamKey(fnv1a(h.ngramKey, m[i:j])), 1)
			if j == len(m) {
				break
			}
			i, j = i+runeLen(m, i), j+runeLen(m, j)
		}
		count += runes - n + 1
	}
	// Synonym-cluster component, weighted against the surface components so
	// cluster members end up close regardless of spelling.
	if label, ok := h.clusterOf[string(tok)]; ok {
		b.add(acc, streamKey(fnv1a(h.clusterKey, label)), h.clusterWeight*float32(count))
	}
}

// runeLen is the encoded length of the rune at m[i:].
func runeLen(m []byte, i int) int {
	_, n := utf8.DecodeRune(m[i:])
	return n
}

// trimmed is the punctuation normalizeWord strips from both ends of a token.
const trimmed = ".,;:!?\"'()[]{}"

// normalizeWord lower-cases and trims punctuation commonly attached to
// tokens; the model, not the engine, owns this context handling.
func normalizeWord(w string) string {
	return strings.Trim(strings.ToLower(w), trimmed)
}

// RandomEmbedder embeds any input as a deterministic pseudo-random unit
// vector with no subword structure: two distinct inputs are near-orthogonal
// in expectation. It models embedding modalities where we only care about
// the vectors, not string semantics (e.g. the synthetic-vector experiments,
// Figures 8-17), while keeping the Model interface uniform.
type RandomEmbedder struct {
	dim         int
	seed        uint64
	fingerprint string
}

// NewRandomEmbedder creates a RandomEmbedder of the given dimensionality.
func NewRandomEmbedder(dim int, seed uint64) (*RandomEmbedder, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("model: dimension must be positive, got %d", dim)
	}
	return &RandomEmbedder{dim: dim, seed: seed, fingerprint: fmt.Sprintf("random/%d/seed=%d", dim, seed)}, nil
}

// Dim implements Model.
func (r *RandomEmbedder) Dim() int { return r.dim }

// Name implements Model.
func (r *RandomEmbedder) Name() string { return fmt.Sprintf("random-%dd", r.dim) }

// Fingerprint identifies the embedding function for cross-query caches;
// it includes the seed Name omits, so embedders over different synthetic
// workloads never share cache entries.
func (r *RandomEmbedder) Fingerprint() string { return r.fingerprint }

// Embed implements Model.
func (r *RandomEmbedder) Embed(input string) ([]float32, error) {
	if input == "" {
		return nil, ErrEmptyInput
	}
	out := make([]float32, r.dim)
	var b batch
	b.add(out, hash64(r.seed, input), 1)
	b.flush(out)
	vec.Normalize(out)
	return out, nil
}
