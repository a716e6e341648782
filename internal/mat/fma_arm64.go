package mat

// fma32 is a*b+c rounded once to float32: the compiler fuses the
// expression into one FMADDS, whose single rounding is softFMA32's.
func fma32(a, b, c float32) float32 { return a*b + c }
