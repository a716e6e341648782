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
// Precision type names the rungs (f32, f16, int8) of the per-layer
// kernel series and the paper's FP16 ablation, and DotErrorBound states
// each rung's similarity error bound for unit-norm inputs. No served
// join runs below F32: the int8 filter inside the tensor scan
// (internal/mat) only rules out tiles, it never changes an answer.
package quant

import (
	"fmt"
	"math"
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

// String names the precision as used in bench output.
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
