//go:build !arm64

package mat

// fma32 is a*b+c rounded once to float32, in software (softFMA32): Go
// may not fuse a float32 a*b+c on this architecture.
func fma32(a, b, c float32) float32 { return softFMA32(a, b, c) }
