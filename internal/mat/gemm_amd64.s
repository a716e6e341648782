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

// The whole k loop of a 4x16 tile: Y0:Y1 .. Y6:Y7 accumulate rows SI,
// R10, R11, R12 against the panel at DX, d in CX. gemm4x16 and
// gemm4x16ge both expand it, so the stored and the compared tile are the
// same instruction stream.
#define ACCUM4 \
	VXORPS Y0, Y0, Y0; \
	VXORPS Y1, Y1, Y1; \
	VXORPS Y2, Y2, Y2; \
	VXORPS Y3, Y3, Y3; \
	VXORPS Y4, Y4, Y4; \
	VXORPS Y5, Y5, Y5; \
	VXORPS Y6, Y6, Y6; \
	VXORPS Y7, Y7, Y7; \
	XORQ AX, AX; \
	CMPQ AX, CX; \
	JGE  done4; \
loop4: \
	VMOVUPS (DX), Y8; \
	VMOVUPS 32(DX), Y9; \
	ROW_STEP(SI, Y0, Y1); \
	ROW_STEP(R10, Y2, Y3); \
	ROW_STEP(R11, Y4, Y5); \
	ROW_STEP(R12, Y6, Y7); \
	ADDQ $64, DX; \
	INCQ AX; \
	CMPQ AX, CX; \
	JLT  loop4; \
done4:

// The one-row k loop: Y0:Y1 accumulate row SI.
#define ACCUM1 \
	VXORPS Y0, Y0, Y0; \
	VXORPS Y1, Y1, Y1; \
	XORQ AX, AX; \
	CMPQ AX, CX; \
	JGE  done1; \
loop1: \
	VMOVUPS (DX), Y8; \
	VMOVUPS 32(DX), Y9; \
	ROW_STEP(SI, Y0, Y1); \
	ADDQ $64, DX; \
	INCQ AX; \
	CMPQ AX, CX; \
	JLT  loop1; \
done1:

// One row's 16 lanes compared with its bound: bit jj of the result is
// lane jj >= bound (ordered: a NaN lane is never set). The 16 bits are
// shifted into place and ORed into R13.
#define ROW_MASK(off, lo, hi, shift) \
	VBROADCASTSS off(BX), Y8;       \
	VCMPPS       $0x1D, Y8, lo, Y9;  \
	VCMPPS       $0x1D, Y8, hi, Y10; \
	VMOVMSKPS    Y9, AX;             \
	VMOVMSKPS    Y10, R8;            \
	SHLQ         $8, R8;             \
	ORQ          R8, AX;             \
	SHLQ         $shift, AX;         \
	ORQ          AX, R13

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

	ACCUM4
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

	ACCUM1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VZEROUPPER
	RET

// func gemm4x16ge(tile, r *float32, ldr int, panel *float32, d int, bound *float32) uint64
//
// gemm4x16's tile, compared instead of stored: bit i*16+jj of the result
// is set when cell (i,jj) >= bound[i]. Only when some bit is set is the
// tile written, densely (tile[i*16+jj]), for the caller to read the
// qualifying cells from.
TEXT ·gemm4x16ge(SB), NOSPLIT, $0-56
	MOVQ r+8(FP), SI
	MOVQ ldr+16(FP), R9
	MOVQ panel+24(FP), DX
	MOVQ d+32(FP), CX
	MOVQ bound+40(FP), BX
	SHLQ $2, R9
	LEAQ (SI)(R9*1), R10
	LEAQ (R10)(R9*1), R11
	LEAQ (R11)(R9*1), R12

	ACCUM4
	XORQ R13, R13
	ROW_MASK(0, Y0, Y1, 0)
	ROW_MASK(4, Y2, Y3, 16)
	ROW_MASK(8, Y4, Y5, 32)
	ROW_MASK(12, Y6, Y7, 48)
	MOVQ  R13, ret+48(FP)
	TESTQ R13, R13
	JZ    none4
	MOVQ    tile+0(FP), DI
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)

none4:
	VZEROUPPER
	RET

// func gemm1x16ge(tile, r, panel *float32, d int, bound *float32) uint64
//
// The remainder-row variant: 16 result bits, tile[jj].
TEXT ·gemm1x16ge(SB), NOSPLIT, $0-48
	MOVQ r+8(FP), SI
	MOVQ panel+16(FP), DX
	MOVQ d+24(FP), CX
	MOVQ bound+32(FP), BX

	ACCUM1
	XORQ R13, R13
	ROW_MASK(0, Y0, Y1, 0)
	MOVQ  R13, ret+40(FP)
	TESTQ R13, R13
	JZ    none1
	MOVQ    tile+0(FP), DI
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)

none1:
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
