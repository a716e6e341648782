package model

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ejoin/internal/vec"
)

// refEmbed is the sequential reference the kernel is held to: the embedder
// as it was written before the multi-stream kernel — strings.Fields, one
// []rune and one string concatenation per n-gram, and one serial SplitMix64
// chain per component (refAddHashed), added to acc in component order.
func refEmbed(h *HashEmbedder, input string) []float32 {
	acc := make([]float32, h.dim)
	for _, field := range strings.Fields(input) {
		tok := normalizeWord(field)
		refAddHashed(acc, hash64(h.seed, "word:"+tok), 1)
		runes := []rune("<" + tok + ">")
		count := 1
		for n := h.minN; n <= h.maxN; n++ {
			if n > len(runes) {
				break
			}
			for i := 0; i+n <= len(runes); i++ {
				refAddHashed(acc, hash64(h.seed, "ng:"+string(runes[i:i+n])), 1)
				count++
			}
		}
		if label, ok := h.clusterOf[tok]; ok {
			refAddHashed(acc, hash64(h.seed, "cluster:"+label), h.clusterWeight*float32(count))
		}
	}
	vec.Normalize(acc)
	return acc
}

// refAddHashed is the original generator loop. Its product is rounded to
// float32 before the add (never fused), which is what amd64 always computed.
func refAddHashed(acc []float32, key uint64, w float32) {
	state := key
	for j := range acc {
		state = splitmix64(state)
		u1 := float64(state>>11) / (1 << 53)
		state = splitmix64(state)
		u2 := float64(state>>11) / (1 << 53)
		acc[j] += float32(w * float32(u1+u2-1))
	}
}

func refRandomEmbed(r *RandomEmbedder, input string) []float32 {
	out := make([]float32, r.dim)
	refAddHashed(out, hash64(r.seed, input), 1)
	vec.Normalize(out)
	return out
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

var testClusters = map[string][]string{
	"grill": {"barbecue", "bbq", "grilling"},
	"punct": {"...", "naïve"},
}

// kernelInputs cover 1/3/8-token strings, tokens shorter than minN,
// multi-byte and case-folding runes, punctuation-only tokens, Unicode
// spaces, cluster members and invalid UTF-8.
var kernelInputs = []string{
	"barbecue",
	"a",
	"ab c",
	"bbq grilling database",
	"the quick brown fox jumps over lazy dogs",
	"Barbecue, (BBQ)!",
	"... !!! ?",
	"naïve café Ünïcödé",
	"日本語 テキスト",
	"İstanbul ǅ K",
	"tab\tsep\u00a0nbsp\u2003em\u0085nel",
	"bad\xffbyte \xc3 \xe2\x82",
	"\xff",
	"supercalifragilisticexpialidocious-pneumonoultramicroscopicsilicovolcanoconiosis",
}

func TestEmbedBitIdentical(t *testing.T) {
	optSets := map[string][]HashEmbedderOption{
		"default":  nil,
		"clusters": {WithSynonyms(testClusters), WithClusterWeight(0.7), WithSeed(7)},
		"n=1-1":    {WithNGramRange(1, 1), WithSynonyms(testClusters)},
		"n=2-6":    {WithNGramRange(2, 6)},
	}
	inputs := append([]string(nil), kernelInputs...)
	// One-rune tokens under n=1-1 contribute 4 components each (word + 3
	// unigrams of "<x>"), "…" tokens under the defaults 1: together these
	// walk the component count through every remainder of the stream width.
	for n := 1; n <= 9; n++ {
		inputs = append(inputs, strings.TrimSpace(strings.Repeat("! ", n)), strings.Repeat("x ", n)+"!")
	}
	for name, opts := range optSets {
		for _, dim := range []int{1, 7, 100} {
			h := mustEmbedder(t, dim, opts...)
			for _, in := range inputs {
				got, err := h.Embed(in)
				if err != nil {
					t.Fatalf("%s/d=%d: Embed(%q): %v", name, dim, in, err)
				}
				if want := refEmbed(h, in); !bitsEqual(got, want) {
					t.Errorf("%s/d=%d: Embed(%q) differs from the sequential reference", name, dim, in)
				}
			}
		}
	}
	r, err := NewRandomEmbedder(100, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range kernelInputs {
		got, err := r.Embed(in)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(got, refRandomEmbed(r, in)) {
			t.Errorf("RandomEmbedder.Embed(%q) differs from the sequential reference", in)
		}
	}
}

// TestEmbedStreamRemainders drives the kernel directly with every
// component count around the stream width, non-unit weights included.
func TestEmbedStreamRemainders(t *testing.T) {
	for n := 0; n <= 2*streams+1; n++ {
		got := make([]float32, 13)
		want := make([]float32, 13)
		var b batch
		for c := 0; c < n; c++ {
			key, w := hash64(3, fmt.Sprint("k", c)), float32(c%3)+0.5
			b.add(got, key, w)
			refAddHashed(want, key, w)
		}
		b.flush(got)
		if !bitsEqual(got, want) {
			t.Errorf("%d components: kernel differs from the sequential reference", n)
		}
	}
}

func FuzzEmbedBitIdentical(f *testing.F) {
	for _, in := range kernelInputs {
		f.Add(in, uint8(0))
	}
	f.Add("bbq barbecue", uint8(1))
	f.Add("ab ... x", uint8(2))
	embedders := make([]*HashEmbedder, 0, 4)
	for _, opts := range [][]HashEmbedderOption{
		nil,
		{WithSynonyms(testClusters), WithClusterWeight(0.7)},
		{WithNGramRange(1, 1), WithSynonyms(testClusters)},
		{WithNGramRange(2, 6), WithSeed(1)},
	} {
		h, err := NewHashEmbedder(9, opts...)
		if err != nil {
			f.Fatal(err)
		}
		embedders = append(embedders, h)
	}
	f.Fuzz(func(t *testing.T, in string, which uint8) {
		h := embedders[int(which)%len(embedders)]
		got, err := h.Embed(in)
		if err != nil {
			if strings.TrimSpace(in) != "" {
				t.Fatalf("Embed(%q): %v", in, err)
			}
			return
		}
		if want := refEmbed(h, in); !bitsEqual(got, want) {
			t.Fatalf("Embed(%q) differs from the sequential reference:\n got %v\nwant %v", in, got, want)
		}
	})
}

// TestEmbedGoldenBits pins the embedding function itself — reference
// included — to the bits and fingerprints recorded at the commit before
// the multi-stream kernel, so persisted segment logs written by any earlier
// build keep hitting.
func TestEmbedGoldenBits(t *testing.T) {
	plain := mustEmbedder(t, 100)
	clustered := mustEmbedder(t, 100, WithSynonyms(testClusters))
	random, err := NewRandomEmbedder(100, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		m           Model
		fingerprint string
		digest      uint64
	}{
		{plain, "hash-ngram/100/seed=42/n=3-5/cw=2/clusters=cbf29ce484222325", 0xf9f0f4df2a59a9f2},
		{clustered, "hash-ngram/100/seed=42/n=3-5/cw=2/clusters=ace83c41ebb7e124", 0x3ffa7b33a9d85250},
		{random, "random/100/seed=42", 0x223252bc0ae81a78},
	} {
		fp := c.m.(interface{ Fingerprint() string }).Fingerprint()
		if fp != c.fingerprint {
			t.Errorf("Fingerprint() = %q, want %q", fp, c.fingerprint)
		}
		digest := uint64(14695981039346656037)
		for _, in := range kernelInputs {
			e, err := c.m.Embed(in)
			if err != nil {
				t.Fatalf("%s: Embed(%q): %v", fp, in, err)
			}
			for _, x := range e {
				for b, bits := 0, math.Float32bits(x); b < 4; b++ {
					digest = (digest ^ uint64(byte(bits>>(8*b)))) * 1099511628211
				}
			}
		}
		if digest != c.digest {
			t.Errorf("%s: digest of embedding bits = %#x, want %#x", fp, digest, c.digest)
		}
	}
}

var benchSink []float32

// BenchmarkHashEmbed reports the kernel's cost per string and per
// (component x dim) generator step at the benchmark's d=100.
func BenchmarkHashEmbed(b *testing.B) {
	h, err := NewHashEmbedder(100)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		inputs []string
	}{
		{"tokens=1", []string{"kelirosa", "database", "barbecues", "tumavilo"}},
		{"tokens=3", []string{"kelirosa tumavilo dabefigo", "relational join operators", "mapizeto sadoku nerivasa"}},
	} {
		components := 0
		for _, in := range c.inputs {
			for _, tok := range strings.Fields(in) {
				for n, r := h.minN, len(tok)+2; n <= h.maxN && n <= r; n++ {
					components += r - n + 1
				}
				components++
			}
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, in := range c.inputs {
					benchSink, _ = h.Embed(in)
				}
			}
			perString := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(c.inputs))
			b.ReportMetric(perString, "ns/string")
			b.ReportMetric(perString*float64(len(c.inputs))/float64(components*h.dim), "ns/(component*dim)")
		})
	}
}
