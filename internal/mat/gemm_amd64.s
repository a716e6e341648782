//go:build amd64 && !purego

#include "textflag.h"

// One k step of one R row against a 16-column panel held in Y8:Y9.
// The element is broadcast to all lanes, multiplied, then added: two
// roundings per lane, exactly Go's acc += r[k]*s[k]. Never VFMADD.
#define ROW_STEP(rbase, lo, hi) \
	VBROADCASTSS (rbase)(AX*4), Y10; \
	VMULPS       Y8, Y10, Y11;       \
	VMULPS       Y9, Y10, Y12;       \
	VADDPS       Y11, lo, lo;        \
	VADDPS       Y12, hi, hi

// func gemm4x16(dst *float32, ldd int, r *float32, ldr int, panel *float32, d int)
//
// dst[i*ldd+jj] = sum over ascending k of r[i*ldr+k]*panel[k*16+jj],
// for i in [0,4), jj in [0,16). Strides are in elements.
TEXT ·gemm4x16(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ r+16(FP), SI
	MOVQ ldr+24(FP), R9
	MOVQ panel+32(FP), DX
	MOVQ d+40(FP), CX
	SHLQ $2, R8
	SHLQ $2, R9
	LEAQ (SI)(R9*1), R10
	LEAQ (R10)(R9*1), R11
	LEAQ (R11)(R9*1), R12

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	XORQ AX, AX
	CMPQ AX, CX
	JGE  store4

loop4:
	VMOVUPS (DX), Y8
	VMOVUPS 32(DX), Y9
	ROW_STEP(SI, Y0, Y1)
	ROW_STEP(R10, Y2, Y3)
	ROW_STEP(R11, Y4, Y5)
	ROW_STEP(R12, Y6, Y7)
	ADDQ $64, DX
	INCQ AX
	CMPQ AX, CX
	JLT  loop4

store4:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, 32(DI)
	VZEROUPPER
	RET

// func gemm1x16(dst, r, panel *float32, d int)
//
// The remainder-row variant: dst[jj] = sum over ascending k of
// r[k]*panel[k*16+jj], jj in [0,16).
TEXT ·gemm1x16(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ r+8(FP), SI
	MOVQ panel+16(FP), DX
	MOVQ d+24(FP), CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

	XORQ AX, AX
	CMPQ AX, CX
	JGE  store1

loop1:
	VMOVUPS (DX), Y8
	VMOVUPS 32(DX), Y9
	ROW_STEP(SI, Y0, Y1)
	ADDQ $64, DX
	INCQ AX
	CMPQ AX, CX
	JLT  loop1

store1:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
