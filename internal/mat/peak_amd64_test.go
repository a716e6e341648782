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

// BenchmarkPeakDotInt8 is the measured ceiling for the int8 filter's
// tile: VPDPBUSD into sixteen ZMM accumulators on registers only, in
// GOP/s counting each int8 multiply-add as two operations, as
// BenchmarkPeakMulAdd counts a fused multiply-add.
func BenchmarkPeakDotInt8(b *testing.B) {
	if !haveVNNI {
		b.Skip("no AVX-512 VNNI on this host, so no VPDPBUSD tile to hold to it")
	}
	const rounds = 1 << 16
	for b.Loop() {
		peakDotInt8(rounds)
	}
	b.ReportMetric(16*64*2*rounds*float64(b.N)/b.Elapsed().Seconds()/1e9, "GOP/s")
}
