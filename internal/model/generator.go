package model

// The generator under both embedders: a component is a key and a weight,
// standing for w times the vector whose j-th coordinate is the j-th sample
// of the SplitMix64 stream the key seeds.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a continues the FNV-1a state v over the bytes of s.
func fnv1a[S string | []byte](v uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		v = (v ^ uint64(s[i])) * fnvPrime
	}
	return v
}

// streamKey turns a finished FNV-1a state into a generator key.
func streamKey(v uint64) uint64 {
	if v == 0 {
		return fnvOffset
	}
	return v
}

// hash64 is FNV-1a over seed and s.
func hash64(seed uint64, s string) uint64 {
	return streamKey(fnv1a(fnvOffset^seed, s))
}

// splitmix64 is the SplitMix64 mixer, a high-quality deterministic stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sample maps two consecutive stream states to an approximately N(0,1)
// draw: the sum of two uniforms on [0,1) minus 1. With a, b the states' top
// 53 bits it equals float32(float64(a)/2^53 + float64(b)/2^53 - 1) bit for
// bit: scaling by 2^-53 commutes with rounding, and converting the integer
// a+b rounds exactly as adding the two exact floats does.
func sample(s1, s2 uint64) float32 {
	return float32(float64(int64(s1>>11+s2>>11))*0x1p-53 - 1)
}

// streams is how many independent SplitMix64 chains the kernel advances per
// loop iteration. One chain is ~26 cycles of dependent latency per
// coordinate; four hide it, and 5, 6 or 8 measured no faster.
const streams = 4

// batch adds components to an accumulator, streams of them per pass. Each
// acc[j] receives its terms in the order added, each product rounded to
// float32 first (never fused): bit-identical to one serial chain at a time.
type batch struct {
	key [streams]uint64
	w   [streams]float32
	n   int
}

// add queues one component, running the kernel once streams are pending.
func (b *batch) add(acc []float32, key uint64, w float32) {
	b.key[b.n], b.w[b.n] = key, w
	if b.n++; b.n < streams {
		return
	}
	b.n = 0
	s0, s1, s2, s3 := b.key[0], b.key[1], b.key[2], b.key[3]
	w0, w1, w2, w3 := b.w[0], b.w[1], b.w[2], b.w[3]
	for j, a := range acc {
		t0, t1, t2, t3 := splitmix64(s0), splitmix64(s1), splitmix64(s2), splitmix64(s3)
		s0, s1, s2, s3 = splitmix64(t0), splitmix64(t1), splitmix64(t2), splitmix64(t3)
		a += float32(w0 * sample(t0, s0))
		a += float32(w1 * sample(t1, s1))
		a += float32(w2 * sample(t2, s2))
		a += float32(w3 * sample(t3, s3))
		acc[j] = a
	}
}

// flush adds the fewer-than-streams components still pending. Their states
// sit in memory, not registers, but the chains still overlap.
func (b *batch) flush(acc []float32) {
	key, w := b.key[:b.n], b.w[:b.n]
	for j, a := range acc {
		for i, s := range key {
			t := splitmix64(s)
			key[i] = splitmix64(t)
			a += float32(w[i] * sample(t, key[i]))
		}
		acc[j] = a
	}
	b.n = 0
}
