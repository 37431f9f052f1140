//go:build amd64

#include "textflag.h"

// func gemm12x4fma(kc int, ap, bp *float64, ldb int, c *float64, ldc int)
//
// 12×4 AVX2/FMA micro-kernel: C[12×4] += Ap·Bp. Y0..Y11 hold the 48
// accumulator chains (Y(3j+q) = rows 4q..4q+3 of column j). Per k step it
// loads 12 packed A values (three YMM, ap advances 96 bytes) and broadcasts one
// value from each of the four B streams ldb apart (bp advances 8 bytes),
// issuing 12 VFMADD231PD: each chain takes s ← fma(a, b, s), one rounding per
// step, exactly what the portable kernels' math.FMA computes. The sums are
// then added to the four C columns ldc apart, one VADDPD per element with C
// as the first source, the portable kernels' single `c += s`.
//
// Reads ap[0 : 12kc], bp[j·ldb : j·ldb+kc] for j < 4; reads and writes
// c[j·ldc : j·ldc+12] for j < 4. The Go caller asserts those bounds.
TEXT ·gemm12x4fma(SB), NOSPLIT, $0-48
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
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

loop:
	VMOVUPD (SI), Y12   // a[0:4]
	VMOVUPD 32(SI), Y13 // a[4:8]
	VMOVUPD 64(SI), Y14 // a[8:12]

	VBROADCASTSD (DI), Y15
	VFMADD231PD  Y15, Y12, Y0
	VFMADD231PD  Y15, Y13, Y1
	VFMADD231PD  Y15, Y14, Y2

	VBROADCASTSD (DI)(R8*1), Y15
	VFMADD231PD  Y15, Y12, Y3
	VFMADD231PD  Y15, Y13, Y4
	VFMADD231PD  Y15, Y14, Y5

	VBROADCASTSD (DI)(R8*2), Y15
	VFMADD231PD  Y15, Y12, Y6
	VFMADD231PD  Y15, Y13, Y7
	VFMADD231PD  Y15, Y14, Y8

	VBROADCASTSD (DI)(R9*1), Y15
	VFMADD231PD  Y15, Y12, Y9
	VFMADD231PD  Y15, Y13, Y10
	VFMADD231PD  Y15, Y14, Y11

	ADDQ $96, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  loop

	VMOVUPD (DX), Y12
	VMOVUPD 32(DX), Y13
	VMOVUPD 64(DX), Y14
	VADDPD  Y0, Y12, Y12
	VADDPD  Y1, Y13, Y13
	VADDPD  Y2, Y14, Y14
	VMOVUPD Y12, (DX)
	VMOVUPD Y13, 32(DX)
	VMOVUPD Y14, 64(DX)

	VMOVUPD (DX)(R10*1), Y12
	VMOVUPD 32(DX)(R10*1), Y13
	VMOVUPD 64(DX)(R10*1), Y14
	VADDPD  Y3, Y12, Y12
	VADDPD  Y4, Y13, Y13
	VADDPD  Y5, Y14, Y14
	VMOVUPD Y12, (DX)(R10*1)
	VMOVUPD Y13, 32(DX)(R10*1)
	VMOVUPD Y14, 64(DX)(R10*1)

	VMOVUPD (DX)(R10*2), Y12
	VMOVUPD 32(DX)(R10*2), Y13
	VMOVUPD 64(DX)(R10*2), Y14
	VADDPD  Y6, Y12, Y12
	VADDPD  Y7, Y13, Y13
	VADDPD  Y8, Y14, Y14
	VMOVUPD Y12, (DX)(R10*2)
	VMOVUPD Y13, 32(DX)(R10*2)
	VMOVUPD Y14, 64(DX)(R10*2)

	VMOVUPD (DX)(R11*1), Y12
	VMOVUPD 32(DX)(R11*1), Y13
	VMOVUPD 64(DX)(R11*1), Y14
	VADDPD  Y9, Y12, Y12
	VADDPD  Y10, Y13, Y13
	VADDPD  Y11, Y14, Y14
	VMOVUPD Y12, (DX)(R11*1)
	VMOVUPD Y13, 32(DX)(R11*1)
	VMOVUPD Y14, 64(DX)(R11*1)
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
