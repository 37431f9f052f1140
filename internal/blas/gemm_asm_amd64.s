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

// func gemm16x8zmm(kc int, ap, bp *float64, ldb int, c *float64, ldc int, rows uint64, nr int)
//
// 16×8 AVX-512F micro-kernel: C[16×8] += Ap·Bp on the rows set in rows and
// the first nr columns. Z0..Z15 hold the 128 accumulator chains (Z(2j+q) =
// rows 8q..8q+7 of column j). Per k step it loads 16 packed A values (two
// ZMM, ap advances 128 bytes) and broadcasts one value from each of the eight
// B streams ldb apart (bp advances 8 bytes), issuing 16 VFMADD231PD: each
// chain takes s ← fma(a, b, s), one rounding per step, exactly what the
// portable kernels' math.FMA computes. The sums are then added to the C
// columns ldc apart, one VADDPD per element with C as the first source, the
// portable kernels' single `c += s`. K1 and K2 mask rows 0..7 and 8..15 of
// every C load and store; masked-off lanes are neither read nor written (nor
// can they fault), and columns from nr on are skipped.
//
// Reads ap[0 : 16kc] and bp[j·ldb : j·ldb+kc] for j < 8 whatever nr is (a
// ragged panel's B is zero-padded to eight streams); reads and writes
// c[j·ldc+i] for j < nr and i with bit i set in rows. The Go caller asserts
// those bounds.
TEXT ·gemm16x8zmm(SB), NOSPLIT, $0-64
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ ldb+24(FP), R8
	MOVQ c+32(FP), DX
	MOVQ ldc+40(FP), R10
	MOVQ rows+48(FP), AX
	MOVQ nr+56(FP), R12

	TESTQ CX, CX
	JLE   zdone

	SHLQ $3, R8            // ldb in bytes
	LEAQ (R8)(R8*2), R9    // 3·ldb
	LEAQ (DI)(R8*4), R13   // B stream 4
	SHLQ $3, R10           // ldc in bytes
	LEAQ (R10)(R10*2), R11 // 3·ldc
	LEAQ (DX)(R10*4), BX   // C column 4
	KMOVW AX, K1           // rows 0..7
	SHRQ  $8, AX
	KMOVW AX, K2           // rows 8..15

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15

zloop:
	VMOVUPD      (SI), Z16   // a[0:8]
	VMOVUPD      64(SI), Z17 // a[8:16]
	VBROADCASTSD (DI), Z18
	VBROADCASTSD (DI)(R8*1), Z19
	VBROADCASTSD (DI)(R8*2), Z20
	VBROADCASTSD (DI)(R9*1), Z21
	VBROADCASTSD (R13), Z22
	VBROADCASTSD (R13)(R8*1), Z23
	VBROADCASTSD (R13)(R8*2), Z24
	VBROADCASTSD (R13)(R9*1), Z25
	VFMADD231PD  Z18, Z16, Z0
	VFMADD231PD  Z18, Z17, Z1
	VFMADD231PD  Z19, Z16, Z2
	VFMADD231PD  Z19, Z17, Z3
	VFMADD231PD  Z20, Z16, Z4
	VFMADD231PD  Z20, Z17, Z5
	VFMADD231PD  Z21, Z16, Z6
	VFMADD231PD  Z21, Z17, Z7
	VFMADD231PD  Z22, Z16, Z8
	VFMADD231PD  Z22, Z17, Z9
	VFMADD231PD  Z23, Z16, Z10
	VFMADD231PD  Z23, Z17, Z11
	VFMADD231PD  Z24, Z16, Z12
	VFMADD231PD  Z24, Z17, Z13
	VFMADD231PD  Z25, Z16, Z14
	VFMADD231PD  Z25, Z17, Z15

	ADDQ $128, SI
	ADDQ $8, DI
	ADDQ $8, R13
	DECQ CX
	JNZ  zloop

zstore:
	VMOVUPD.Z  (DX), K1, Z16
	VMOVUPD.Z  64(DX), K2, Z17
	VADDPD     Z0, Z16, Z16
	VADDPD     Z1, Z17, Z17
	VMOVUPD    Z16, K1, (DX)
	VMOVUPD    Z17, K2, 64(DX)

	CMPQ       R12, $2
	JLT        zstored

	VMOVUPD.Z  (DX)(R10*1), K1, Z16
	VMOVUPD.Z  64(DX)(R10*1), K2, Z17
	VADDPD     Z2, Z16, Z16
	VADDPD     Z3, Z17, Z17
	VMOVUPD    Z16, K1, (DX)(R10*1)
	VMOVUPD    Z17, K2, 64(DX)(R10*1)

	CMPQ       R12, $3
	JLT        zstored

	VMOVUPD.Z  (DX)(R10*2), K1, Z16
	VMOVUPD.Z  64(DX)(R10*2), K2, Z17
	VADDPD     Z4, Z16, Z16
	VADDPD     Z5, Z17, Z17
	VMOVUPD    Z16, K1, (DX)(R10*2)
	VMOVUPD    Z17, K2, 64(DX)(R10*2)

	CMPQ       R12, $4
	JLT        zstored

	VMOVUPD.Z  (DX)(R11*1), K1, Z16
	VMOVUPD.Z  64(DX)(R11*1), K2, Z17
	VADDPD     Z6, Z16, Z16
	VADDPD     Z7, Z17, Z17
	VMOVUPD    Z16, K1, (DX)(R11*1)
	VMOVUPD    Z17, K2, 64(DX)(R11*1)

	CMPQ       R12, $5
	JLT        zstored

	VMOVUPD.Z  (BX), K1, Z16
	VMOVUPD.Z  64(BX), K2, Z17
	VADDPD     Z8, Z16, Z16
	VADDPD     Z9, Z17, Z17
	VMOVUPD    Z16, K1, (BX)
	VMOVUPD    Z17, K2, 64(BX)

	CMPQ       R12, $6
	JLT        zstored

	VMOVUPD.Z  (BX)(R10*1), K1, Z16
	VMOVUPD.Z  64(BX)(R10*1), K2, Z17
	VADDPD     Z10, Z16, Z16
	VADDPD     Z11, Z17, Z17
	VMOVUPD    Z16, K1, (BX)(R10*1)
	VMOVUPD    Z17, K2, 64(BX)(R10*1)

	CMPQ       R12, $7
	JLT        zstored

	VMOVUPD.Z  (BX)(R10*2), K1, Z16
	VMOVUPD.Z  64(BX)(R10*2), K2, Z17
	VADDPD     Z12, Z16, Z16
	VADDPD     Z13, Z17, Z17
	VMOVUPD    Z16, K1, (BX)(R10*2)
	VMOVUPD    Z17, K2, 64(BX)(R10*2)

	CMPQ       R12, $8
	JLT        zstored

	VMOVUPD.Z  (BX)(R11*1), K1, Z16
	VMOVUPD.Z  64(BX)(R11*1), K2, Z17
	VADDPD     Z14, Z16, Z16
	VADDPD     Z15, Z17, Z17
	VMOVUPD    Z16, K1, (BX)(R11*1)
	VMOVUPD    Z17, K2, 64(BX)(R11*1)

zstored:
	VZEROUPPER

zdone:
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
