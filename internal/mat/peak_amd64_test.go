//go:build amd64 && !purego

package mat

import "testing"

func init() {
	if haveSIMD {
		hardwareFMA32 = fmaSS
	}
}

// BenchmarkPeakMulAdd is the measured ceiling for mat.gemm_gflops and
// the scan tiles: VFMADD231PS into eight accumulators on registers only,
// per width. The 4-row tiles run on ZMM where the host has AVX-512F and
// on YMM elsewhere; the 1-row tail kernels are always YMM.
func BenchmarkPeakMulAdd(b *testing.B) {
	if !haveSIMD {
		b.Skip("no AVX2 and FMA")
	}
	const rounds = 1 << 16
	run := func(name string, kernel func(int), flops float64, ok bool) {
		b.Run(name, func(b *testing.B) {
			if !ok {
				b.Skip("no AVX-512F")
			}
			for b.Loop() {
				kernel(rounds)
			}
			b.ReportMetric(flops*rounds*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
	run("YMM", peakFMAYMM, 128, true)
	run("ZMM", peakFMAZMM, 256, haveAVX512)
}
