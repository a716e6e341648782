//go:build amd64 && !purego

package mat

import "testing"

// BenchmarkPeakMulAdd is the measured ceiling for mat.gemm_gflops and
// the scan tiles: VMULPS + VADDPS on registers only. The tiles are YMM;
// the ZMM row says what a wider tile could reach on this host at most.
func BenchmarkPeakMulAdd(b *testing.B) {
	if !haveSIMD {
		b.Skip("no AVX2")
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
	run("YMM", peakMulAddYMM, 128, true)
	run("ZMM", peakMulAddZMM, 256, haveAVX512)
}
