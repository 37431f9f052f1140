//go:build amd64

#include "textflag.h"

// func gemm8x4avx2(kc int, ap, bp *float64, ldb int, c *float64, ldc int)
//
// 8×4 AVX2 micro-kernel: C[8×4] += Ap·Bp. Y0..Y7 hold the 32 accumulator
// chains (Y(2j) = rows 0..3 of column j, Y(2j+1) = rows 4..7). Per k step it
// loads 8 packed A values (two YMM, ap advances 64 bytes) and broadcasts one
// value from each of the four B streams ldb apart (bp advances 8 bytes),
// issuing 8 VMULPD + 8 VADDPD. No FMA: the separate round after the multiply
// is what keeps this bitwise identical to the portable kernels. The sums are
// then added to the four C columns ldc apart, one VADDPD per element with C
// as the first source, exactly the portable kernels' single `c += s`.
//
// Reads ap[0 : 8kc], bp[j·ldb : j·ldb+kc] for j < 4; reads and writes
// c[j·ldc : j·ldc+8] for j < 4. The Go caller asserts those bounds.
TEXT ·gemm8x4avx2(SB), NOSPLIT, $0-48
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ ldb+24(FP), R8
	MOVQ c+32(FP), DX
	MOVQ ldc+40(FP), R10

	TESTQ CX, CX
	JLE   done

	SHLQ $3, R8            // ldb in bytes
	LEAQ (R8)(R8*2), R9    // 3·ldb
	SHLQ $3, R10           // ldc in bytes
	LEAQ (R10)(R10*2), R11 // 3·ldc

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

loop:
	VMOVUPD (SI), Y8   // a[0:4]
	VMOVUPD 32(SI), Y9 // a[4:8]

	VBROADCASTSD (DI), Y10
	VMULPD       Y10, Y8, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y10, Y9, Y12
	VADDPD       Y12, Y1, Y1

	VBROADCASTSD (DI)(R8*1), Y13
	VMULPD       Y13, Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y13, Y9, Y12
	VADDPD       Y12, Y3, Y3

	VBROADCASTSD (DI)(R8*2), Y14
	VMULPD       Y14, Y8, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y14, Y9, Y12
	VADDPD       Y12, Y5, Y5

	VBROADCASTSD (DI)(R9*1), Y15
	VMULPD       Y15, Y8, Y11
	VADDPD       Y11, Y6, Y6
	VMULPD       Y15, Y9, Y12
	VADDPD       Y12, Y7, Y7

	ADDQ $64, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  loop

	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VMOVUPD (DX)(R10*1), Y10
	VMOVUPD 32(DX)(R10*1), Y11
	VMOVUPD (DX)(R10*2), Y12
	VMOVUPD 32(DX)(R10*2), Y13
	VMOVUPD (DX)(R11*1), Y14
	VMOVUPD 32(DX)(R11*1), Y15
	VADDPD  Y0, Y8, Y8
	VADDPD  Y1, Y9, Y9
	VADDPD  Y2, Y10, Y10
	VADDPD  Y3, Y11, Y11
	VADDPD  Y4, Y12, Y12
	VADDPD  Y5, Y13, Y13
	VADDPD  Y6, Y14, Y14
	VADDPD  Y7, Y15, Y15
	VMOVUPD Y8, (DX)
	VMOVUPD Y9, 32(DX)
	VMOVUPD Y10, (DX)(R10*1)
	VMOVUPD Y11, 32(DX)(R10*1)
	VMOVUPD Y12, (DX)(R10*2)
	VMOVUPD Y13, 32(DX)(R10*2)
	VMOVUPD Y14, (DX)(R11*1)
	VMOVUPD Y15, 32(DX)(R11*1)
	VZEROUPPER

done:
	RET

// func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
