// Package quant implements the vector quantization side of the paper's
// hardware-conscious axis: the precision ladder below half-precision.
//
// Section V-A2 motivates FP16 storage (half the memory traffic of float32
// at negligible result drift for unit-norm embeddings); this package
// extends the same storage/accuracy/speed trade further:
//
//   - Int8 scalar quantization: each vector is encoded as dim int8 codes
//     plus one float32 scale (symmetric, per-vector max-abs). Similarity
//     runs as a symmetric int8×int8 dot with int32 accumulation — 4×
//     smaller storage and integer arithmetic on the hot path — followed by
//     one float rescale.
//
//   - Product quantization (PQ): each vector splits into M subspaces, each
//     encoded as the id of its nearest k-means centroid (≤256 per subspace,
//     one byte per code). Similarity against a float32 query uses
//     asymmetric distance computation (ADC): one M×K lookup table per
//     query, then M table lookups + adds per encoded vector — 16× or more
//     compression with recall recovered by an exact rerank pass.
//
// Both encodings are lossy. PQ is a codec only (TrainPQ, ADCScore); the
// Precision type names the scan rungs (f32, f16, int8) a table may
// declare for its joins, and DotErrorBound states each rung's similarity
// error bound for unit-norm inputs: the result drift a declaration
// accepts at the threshold boundary.
package quant

import (
	"fmt"
	"math"
	"strings"
)

// Precision is one rung of the storage/compute precision ladder.
type Precision int

const (
	// PrecisionAuto is unset; executes as F32.
	PrecisionAuto Precision = iota
	// PrecisionF32 is exact full-precision float32.
	PrecisionF32
	// PrecisionF16 is IEEE binary16 storage with float32 accumulation.
	PrecisionF16
	// PrecisionInt8 is symmetric per-vector int8 scalar quantization.
	PrecisionInt8
)

// String names the precision as used in plans, stats, and bench output.
func (p Precision) String() string {
	switch p {
	case PrecisionAuto:
		return "auto"
	case PrecisionF32:
		return "f32"
	case PrecisionF16:
		return "f16"
	case PrecisionInt8:
		return "int8"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// ParsePrecision parses a precision name (case-insensitive). Accepted:
// auto, f32/fp32/float32, f16/fp16/half, int8/i8.
func ParsePrecision(s string) (Precision, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "auto", "":
		return PrecisionAuto, nil
	case "f32", "fp32", "float32", "full":
		return PrecisionF32, nil
	case "f16", "fp16", "float16", "half":
		return PrecisionF16, nil
	case "int8", "i8", "sq8":
		return PrecisionInt8, nil
	default:
		return PrecisionAuto, fmt.Errorf("quant: unknown precision %q (want auto, f32, f16, or int8)", s)
	}
}

// DotErrorBound is a conservative bound on the absolute dot-product error
// this precision introduces between two unit-norm vectors of the given
// dimensionality: how far a quantized scan's similarities may drift from
// the exact ones, so how close to the threshold a match may flip.
//
// F16: per-element relative error ≤ 2⁻¹¹ (round-to-nearest-even), so the
// dot error is bounded by ~2·√d·2⁻¹¹; we use 2⁻¹⁰·√d for headroom.
//
// Int8: with per-vector scale s = maxabs/127 the per-element error is
// ≤ s/2, giving a dot error ≲ √d·s. For dense unit-norm embeddings
// (Gaussian-like coordinates) maxabs concentrates near √(2·ln d / d),
// so √d·s ≈ √(2·ln d)/127 — below 0.032 (≈ 4/127) for every dim up to
// ~4096, which is the constant returned here and validated against the
// exact per-pair bound by the int8 agreement property test. It is NOT a
// worst-case guarantee: adversarially sparse vectors (near-one-hot,
// maxabs ≈ 1) reach √d/127; the exact per-pair bound from the encoded
// scales is Int8DotErrorBound.
//
// Any other value returns +Inf.
func (p Precision) DotErrorBound(dim int) float64 {
	if dim <= 0 {
		dim = 1
	}
	switch p {
	case PrecisionF32, PrecisionAuto:
		return 0
	case PrecisionF16:
		return math.Sqrt(float64(dim)) / 1024
	case PrecisionInt8:
		return 0.032
	default:
		return math.Inf(1)
	}
}
