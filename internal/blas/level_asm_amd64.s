//go:build amd64

#include "textflag.h"

// AVX2/FMA forms of the eight Level-1/2 kernels. level_kernels.go states the
// operation order each one follows; level_asm_amd64.go holds the Go wrappers
// that are their only callers and assert every bound. Conventions shared by
// all of them: lengths are ≥ 1, lda ≥ rows and arrives in elements (converted
// to bytes in R10, 3·lda in R11), every a·b + c is one VFMADD231PD/SD (Go
// operand order: VFMADD231PD b, a, c computes c = a·b + c), whole row quads
// run in YMM registers and the 0–3 rows after the last quad in scalar code,
// four columns per pass and the 0–3 columns after the last whole group one at
// a time.

// REDUCE4 leaves in Y0 the four column sums of the accumulators Y0..Y3, lane c
// holding (s₀+s₁)+(s₂+s₃) of Yc: the two VHADDPD give [a₀+a₁, b₀+b₁, a₂+a₃,
// b₂+b₃] and the same for c and d, the permutes line the halves up.
#define REDUCE4(t0, t1) \
	VHADDPD    Y1, Y0, Y0; \
	VHADDPD    Y3, Y2, Y2; \
	VPERM2F128 $0x20, Y2, Y0, t0; \
	VPERM2F128 $0x31, Y2, Y0, t1; \
	VADDPD     t1, t0, Y0

// ROWOF4 gathers one row of four columns, (AX) + c·lda for c < 4, into the
// YMM register whose low half is x0 (x1 is scratch).
#define ROWOF4(y0, x0, x1) \
	VMOVSD      (AX), x0; \
	VMOVHPD     (AX)(R10*1), x0, x0; \
	VMOVSD      (AX)(R10*2), x1; \
	VMOVHPD     (AX)(R11*1), x1, x1; \
	VINSERTF128 $1, x1, y0, y0

// func dotFMA(n int, x, y *float64) float64
TEXT ·dotFMA(SB), NOSPLIT, $0-32
	MOVQ   n+0(FP), CX
	MOVQ   x+8(FP), SI
	MOVQ   y+16(FP), DI
	VXORPD Y0, Y0, Y0
	MOVQ   CX, DX
	SHRQ   $2, DX
	JZ     reduce

quads:
	VMOVUPD     (SI), Y1
	VFMADD231PD (DI), Y1, Y0
	ADDQ        $32, SI
	ADDQ    $32, DI
	DECQ    DX
	JNZ     quads

reduce:
	VHADDPD      Y0, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDSD       X1, X0, X0
	ANDQ         $3, CX
	JZ           done

tail:
	VMOVSD      (SI), X1
	VFMADD231SD (DI), X1, X0
	ADDQ        $8, SI
	ADDQ        $8, DI
	DECQ        CX
	JNZ         tail

done:
	VZEROUPPER
	MOVSD X0, ret+24(FP)
	RET

// func axpyFMA(n int, alpha float64, x, y *float64)
TEXT ·axpyFMA(SB), NOSPLIT, $0-32
	MOVQ         n+0(FP), CX
	VBROADCASTSD alpha+8(FP), Y8
	MOVQ         x+16(FP), SI
	MOVQ         y+24(FP), DI
	MOVQ         CX, DX
	SHRQ         $2, DX
	JZ           tail

quads:
	VMOVUPD     (DI), Y0
	VFMADD231PD (SI), Y8, Y0
	VMOVUPD     Y0, (DI)
	ADDQ        $32, SI
	ADDQ        $32, DI
	DECQ        DX
	JNZ         quads

tail:
	ANDQ $3, CX
	JZ   done

rows:
	VMOVSD      (DI), X0
	VFMADD231SD (SI), X8, X0
	VMOVSD      X0, (DI)
	ADDQ        $8, SI
	ADDQ        $8, DI
	DECQ        CX
	JNZ         rows

done:
	VZEROUPPER
	RET

// func gemvNFMA(m, n int, alpha float64, a *float64, lda int, x, y *float64)
//
// y[0:m] += alpha·A·x. Per group of four columns the scaled x values sit
// broadcast in Y8..Y11 and each y quad is loaded once, takes its four terms in
// column order and is stored once.
TEXT ·gemvNFMA(SB), NOSPLIT, $0-56
	MOVQ         m+0(FP), R8
	MOVQ         n+8(FP), R9
	VBROADCASTSD alpha+16(FP), Y15
	MOVQ         a+24(FP), SI
	MOVQ         lda+32(FP), R10
	MOVQ         x+40(FP), DI
	MOVQ         y+48(FP), DX
	SHLQ         $3, R10
	LEAQ         (R10)(R10*2), R11
	MOVQ         R8, R12
	SHRQ         $2, R12 // whole row quads
	ANDQ         $3, R8  // rows after them

col4:
	CMPQ         R9, $4
	JLT          col1
	VBROADCASTSD (DI), Y8
	VBROADCASTSD 8(DI), Y9
	VBROADCASTSD 16(DI), Y10
	VBROADCASTSD 24(DI), Y11
	VMULPD       Y15, Y8, Y8
	VMULPD       Y15, Y9, Y9
	VMULPD       Y15, Y10, Y10
	VMULPD       Y15, Y11, Y11
	MOVQ         SI, AX
	MOVQ         DX, BX
	MOVQ         R12, CX
	TESTQ        CX, CX
	JZ           tail4

quads4:
	VMOVUPD     (BX), Y0
	VFMADD231PD (AX), Y8, Y0
	VFMADD231PD (AX)(R10*1), Y9, Y0
	VFMADD231PD (AX)(R10*2), Y10, Y0
	VFMADD231PD (AX)(R11*1), Y11, Y0
	VMOVUPD     Y0, (BX)
	ADDQ        $32, AX
	ADDQ        $32, BX
	DECQ        CX
	JNZ         quads4

tail4:
	MOVQ  R8, CX
	TESTQ CX, CX
	JZ    next4

rows4:
	VMOVSD      (BX), X0
	VFMADD231SD (AX), X8, X0
	VFMADD231SD (AX)(R10*1), X9, X0
	VFMADD231SD (AX)(R10*2), X10, X0
	VFMADD231SD (AX)(R11*1), X11, X0
	VMOVSD      X0, (BX)
	ADDQ        $8, AX
	ADDQ        $8, BX
	DECQ        CX
	JNZ         rows4

next4:
	LEAQ (SI)(R10*4), SI
	ADDQ $32, DI
	SUBQ $4, R9
	JMP  col4

col1:
	TESTQ R9, R9
	JZ    done

cols:
	VBROADCASTSD (DI), Y8
	VMULPD       Y15, Y8, Y8
	MOVQ         SI, AX
	MOVQ         DX, BX
	MOVQ         R12, CX
	TESTQ        CX, CX
	JZ           tail1

quads1:
	VMOVUPD     (BX), Y0
	VFMADD231PD (AX), Y8, Y0
	VMOVUPD     Y0, (BX)
	ADDQ        $32, AX
	ADDQ        $32, BX
	DECQ        CX
	JNZ         quads1

tail1:
	MOVQ  R8, CX
	TESTQ CX, CX
	JZ    next1

rows1:
	VMOVSD      (BX), X0
	VFMADD231SD (AX), X8, X0
	VMOVSD      X0, (BX)
	ADDQ        $8, AX
	ADDQ        $8, BX
	DECQ        CX
	JNZ         rows1

next1:
	ADDQ R10, SI
	ADDQ $8, DI
	DECQ R9
	JNZ  cols

done:
	VZEROUPPER
	RET

// func gemvTFMA(m, n int, alpha float64, a *float64, lda int, x, y *float64)
//
// y[j] += alpha·(A(:, j)·x[0:m]) for j < n. Four columns are reduced per
// pass, each into its own four-lane accumulator, sharing every load of x.
TEXT ·gemvTFMA(SB), NOSPLIT, $0-56
	MOVQ         m+0(FP), R8
	MOVQ         n+8(FP), R9
	VBROADCASTSD alpha+16(FP), Y15
	MOVQ         a+24(FP), SI
	MOVQ         lda+32(FP), R10
	MOVQ         x+40(FP), DI
	MOVQ         y+48(FP), DX
	SHLQ         $3, R10
	LEAQ         (R10)(R10*2), R11
	MOVQ         R8, R12
	SHRQ         $2, R12
	ANDQ         $3, R8

col4:
	CMPQ   R9, $4
	JLT    col1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, AX
	MOVQ   DI, BX
	MOVQ   R12, CX
	TESTQ  CX, CX
	JZ     reduce4

quads4:
	VMOVUPD     (BX), Y4
	VFMADD231PD (AX), Y4, Y0
	VFMADD231PD (AX)(R10*1), Y4, Y1
	VFMADD231PD (AX)(R10*2), Y4, Y2
	VFMADD231PD (AX)(R11*1), Y4, Y3
	ADDQ        $32, AX
	ADDQ        $32, BX
	DECQ        CX
	JNZ         quads4

reduce4:
	REDUCE4(Y4, Y5)
	MOVQ  R8, CX
	TESTQ CX, CX
	JZ    next4

rows4:
	ROWOF4(Y4, X4, X5)
	VBROADCASTSD (BX), Y5
	VFMADD231PD  Y5, Y4, Y0
	ADDQ         $8, AX
	ADDQ         $8, BX
	DECQ         CX
	JNZ          rows4

next4:
	VMOVUPD     (DX), Y4
	VFMADD231PD Y15, Y0, Y4
	VMOVUPD     Y4, (DX)
	LEAQ        (SI)(R10*4), SI
	ADDQ        $32, DX
	SUBQ        $4, R9
	JMP         col4

col1:
	TESTQ R9, R9
	JZ    done

cols:
	VXORPD Y0, Y0, Y0
	MOVQ   SI, AX
	MOVQ   DI, BX
	MOVQ   R12, CX
	TESTQ  CX, CX
	JZ     reduce1

quads1:
	VMOVUPD     (BX), Y4
	VFMADD231PD (AX), Y4, Y0
	ADDQ        $32, AX
	ADDQ        $32, BX
	DECQ        CX
	JNZ         quads1

reduce1:
	VHADDPD      Y0, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDSD       X1, X0, X0
	MOVQ         R8, CX
	TESTQ        CX, CX
	JZ           next1

rows1:
	VMOVSD      (AX), X1
	VFMADD231SD (BX), X1, X0
	ADDQ        $8, AX
	ADDQ        $8, BX
	DECQ        CX
	JNZ         rows1

next1:
	VMOVSD      (DX), X1
	VFMADD231SD X15, X0, X1
	VMOVSD      X1, (DX)
	ADDQ        R10, SI
	ADDQ   $8, DX
	DECQ   R9
	JNZ    cols

done:
	VZEROUPPER
	RET

// func gerFMA(m, n int, alpha float64, x, y, a *float64, lda int)
//
// A += alpha·x[0:m]·y[0:n]ᵀ, four columns sharing every load of x.
TEXT ·gerFMA(SB), NOSPLIT, $0-56
	MOVQ         m+0(FP), R8
	MOVQ         n+8(FP), R9
	VBROADCASTSD alpha+16(FP), Y15
	MOVQ         x+24(FP), DI
	MOVQ         y+32(FP), DX
	MOVQ         a+40(FP), SI
	MOVQ         lda+48(FP), R10
	SHLQ         $3, R10
	LEAQ         (R10)(R10*2), R11
	MOVQ         R8, R12
	SHRQ         $2, R12
	ANDQ         $3, R8

col4:
	CMPQ         R9, $4
	JLT          col1
	VBROADCASTSD (DX), Y8
	VBROADCASTSD 8(DX), Y9
	VBROADCASTSD 16(DX), Y10
	VBROADCASTSD 24(DX), Y11
	VMULPD       Y15, Y8, Y8
	VMULPD       Y15, Y9, Y9
	VMULPD       Y15, Y10, Y10
	VMULPD       Y15, Y11, Y11
	MOVQ         SI, AX
	MOVQ         DI, BX
	MOVQ         R12, CX
	TESTQ        CX, CX
	JZ           tail4

quads4:
	VMOVUPD     (BX), Y4
	VMOVUPD     (AX), Y0
	VFMADD231PD Y4, Y8, Y0
	VMOVUPD     Y0, (AX)
	VMOVUPD     (AX)(R10*1), Y1
	VFMADD231PD Y4, Y9, Y1
	VMOVUPD     Y1, (AX)(R10*1)
	VMOVUPD     (AX)(R10*2), Y2
	VFMADD231PD Y4, Y10, Y2
	VMOVUPD     Y2, (AX)(R10*2)
	VMOVUPD     (AX)(R11*1), Y3
	VFMADD231PD Y4, Y11, Y3
	VMOVUPD     Y3, (AX)(R11*1)
	ADDQ        $32, AX
	ADDQ        $32, BX
	DECQ        CX
	JNZ         quads4

tail4:
	MOVQ  R8, CX
	TESTQ CX, CX
	JZ    next4

rows4:
	VMOVSD      (BX), X4
	VMOVSD      (AX), X0
	VFMADD231SD X4, X8, X0
	VMOVSD      X0, (AX)
	VMOVSD      (AX)(R10*1), X1
	VFMADD231SD X4, X9, X1
	VMOVSD      X1, (AX)(R10*1)
	VMOVSD      (AX)(R10*2), X2
	VFMADD231SD X4, X10, X2
	VMOVSD      X2, (AX)(R10*2)
	VMOVSD      (AX)(R11*1), X3
	VFMADD231SD X4, X11, X3
	VMOVSD      X3, (AX)(R11*1)
	ADDQ        $8, AX
	ADDQ        $8, BX
	DECQ        CX
	JNZ         rows4

next4:
	LEAQ (SI)(R10*4), SI
	ADDQ $32, DX
	SUBQ $4, R9
	JMP  col4

col1:
	TESTQ R9, R9
	JZ    done

cols:
	VBROADCASTSD (DX), Y8
	VMULPD       Y15, Y8, Y8
	MOVQ         SI, AX
	MOVQ         DI, BX
	MOVQ         R12, CX
	TESTQ        CX, CX
	JZ           tail1

quads1:
	VMOVUPD     (AX), Y0
	VFMADD231PD (BX), Y8, Y0
	VMOVUPD     Y0, (AX)
	ADDQ        $32, AX
	ADDQ        $32, BX
	DECQ        CX
	JNZ         quads1

tail1:
	MOVQ  R8, CX
	TESTQ CX, CX
	JZ    next1

rows1:
	VMOVSD      (AX), X0
	VFMADD231SD (BX), X8, X0
	VMOVSD      X0, (AX)
	ADDQ        $8, AX
	ADDQ        $8, BX
	DECQ        CX
	JNZ         rows1

next1:
	ADDQ R10, SI
	ADDQ $8, DX
	DECQ R9
	JNZ  cols

done:
	VZEROUPPER
	RET

// SYMV_DIAG takes y[c] = fma(t, a[c,c], y[c]); SYMV_OFF serves one element
// below the diagonal inside the 4×4 block: y[i] = fma(t, a[i,c], y[i]) and
// lane 0 of column c's accumulator s = fma(a[i,c], x[i], s).
#define SYMV_DIAG(a, t, y) \
	VFMADD231SD a, t, y

#define SYMV_OFF(a, t, y, x, s) \
	VMOVSD      a, X12; \
	VFMADD231SD X12, t, y; \
	VFMADD231SD x, X12, s

// SYMV_COL is one column of the rectangle below the diagonal block: the row
// quad a feeds the y quad in Y13 (times the column's t) and, times the x quad
// in Y12, the column's accumulator s.
#define SYMV_COL(a, t, s) \
	VMOVUPD     a, Y14; \
	VFMADD231PD Y14, t, Y13; \
	VFMADD231PD Y12, Y14, s

// func symvLFMA(n int, alpha float64, a *float64, lda int, x, y *float64)
//
// y[0:n] += alpha·A·x, A symmetric with its lower triangle stored. Per group
// of four columns: SI, DI, DX point at a[g,g], x[g], y[g]; the 4×4 diagonal
// block runs in scalar code with y[g..g+3] held in X4..X7 and the mirrored-row
// sums started in lane 0 of Y0..Y3; the rectangle below it runs in row quads;
// the sums are reduced, the last rows added, and y[g..g+3] stored with
// alpha·sum added. A last group of fewer than four columns is all scalar.
TEXT ·symvLFMA(SB), NOSPLIT, $0-48
	MOVQ n+0(FP), R9
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R10
	MOVQ x+32(FP), DI
	MOVQ y+40(FP), DX
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R11

group:
	CMPQ         R9, $4
	JLT          last
	VBROADCASTSD alpha+8(FP), Y15
	VBROADCASTSD (DI), Y8
	VBROADCASTSD 8(DI), Y9
	VBROADCASTSD 16(DI), Y10
	VBROADCASTSD 24(DI), Y11
	VMULPD       Y15, Y8, Y8
	VMULPD       Y15, Y9, Y9
	VMULPD       Y15, Y10, Y10
	VMULPD       Y15, Y11, Y11
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	VXORPD       Y2, Y2, Y2
	VXORPD       Y3, Y3, Y3
	VMOVSD       (DX), X4
	VMOVSD       8(DX), X5
	VMOVSD       16(DX), X6
	VMOVSD       24(DX), X7
	SYMV_DIAG((SI), X8, X4)
	SYMV_OFF(8(SI), X8, X5, 8(DI), X0)
	SYMV_OFF(16(SI), X8, X6, 16(DI), X0)
	SYMV_OFF(24(SI), X8, X7, 24(DI), X0)
	SYMV_DIAG(8(SI)(R10*1), X9, X5)
	SYMV_OFF(16(SI)(R10*1), X9, X6, 16(DI), X1)
	SYMV_OFF(24(SI)(R10*1), X9, X7, 24(DI), X1)
	SYMV_DIAG(16(SI)(R10*2), X10, X6)
	SYMV_OFF(24(SI)(R10*2), X10, X7, 24(DI), X2)
	SYMV_DIAG(24(SI)(R11*1), X11, X7)

	LEAQ  32(SI), AX
	LEAQ  32(DI), BX
	LEAQ  32(DX), R13
	MOVQ  R9, CX
	SUBQ  $4, CX
	SHRQ  $2, CX
	TESTQ CX, CX
	JZ    reduce

quads:
	VMOVUPD (BX), Y12
	VMOVUPD (R13), Y13
	SYMV_COL((AX), Y8, Y0)
	SYMV_COL((AX)(R10*1), Y9, Y1)
	SYMV_COL((AX)(R10*2), Y10, Y2)
	SYMV_COL((AX)(R11*1), Y11, Y3)
	VMOVUPD Y13, (R13)
	ADDQ    $32, AX
	ADDQ    $32, BX
	ADDQ    $32, R13
	DECQ    CX
	JNZ     quads

reduce:
	REDUCE4(Y12, Y13)
	MOVQ R9, CX
	ANDQ $3, CX
	JZ   store

rows:
	ROWOF4(Y12, X12, X13)
	VBROADCASTSD (BX), Y13
	VFMADD231PD  Y13, Y12, Y0
	VMOVSD       (R13), X14
	VFMADD231SD  (AX), X8, X14
	VFMADD231SD  (AX)(R10*1), X9, X14
	VFMADD231SD  (AX)(R10*2), X10, X14
	VFMADD231SD  (AX)(R11*1), X11, X14
	VMOVSD       X14, (R13)
	ADDQ         $8, AX
	ADDQ         $8, BX
	ADDQ         $8, R13
	DECQ         CX
	JNZ          rows

store:
	VUNPCKLPD    X5, X4, X4
	VUNPCKLPD    X7, X6, X6
	VINSERTF128  $1, X6, Y4, Y4
	VBROADCASTSD alpha+8(FP), Y15
	VFMADD231PD  Y15, Y0, Y4
	VMOVUPD      Y4, (DX)
	LEAQ         32(SI)(R10*4), SI
	ADDQ         $32, DI
	ADDQ         $32, DX
	SUBQ         $4, R9
	JMP          group

last:
	TESTQ  R9, R9
	JZ     done
	VMOVSD alpha+8(FP), X15

lastcol:
	VMULSD      (DI), X15, X8
	VMOVSD      (DX), X4
	VFMADD231SD (SI), X8, X4
	VXORPD      X0, X0, X0
	LEAQ   8(SI), AX
	LEAQ   8(DI), BX
	LEAQ   8(DX), R13
	MOVQ   R9, CX
	DECQ   CX
	JZ     lastfin

lastrow:
	VMOVSD      (AX), X12
	VMOVSD      (R13), X13
	VFMADD231SD X12, X8, X13
	VMOVSD      X13, (R13)
	VFMADD231SD (BX), X12, X0
	ADDQ        $8, AX
	ADDQ        $8, BX
	ADDQ        $8, R13
	DECQ        CX
	JNZ         lastrow

lastfin:
	VFMADD231SD X15, X0, X4
	VMOVSD      X4, (DX)
	LEAQ   8(SI)(R10*1), SI
	ADDQ   $8, DI
	ADDQ   $8, DX
	DECQ   R9
	JNZ    lastcol

done:
	VZEROUPPER
	RET

// func symvLHeadFMA(n, r int, alpha float64, a *float64, lda int, x, y *float64)
//
// y[0:r] += (alpha·A·x)[0:r], r a multiple of 4: symvLFMA's groups of four
// columns for the columns below r, R12 counting the rows left to r. Each
// group's rectangle runs in row quads, with y's quad updated down to row r
// (quads) and only the mirrored-row sums after it (dquads); the last rows go
// to the sums alone.
TEXT ·symvLHeadFMA(SB), NOSPLIT, $0-56
	MOVQ n+0(FP), R9
	MOVQ r+8(FP), R12
	MOVQ a+24(FP), SI
	MOVQ lda+32(FP), R10
	MOVQ x+40(FP), DI
	MOVQ y+48(FP), DX
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R11

group:
	TESTQ        R12, R12
	JZ           done
	VBROADCASTSD alpha+16(FP), Y15
	VBROADCASTSD (DI), Y8
	VBROADCASTSD 8(DI), Y9
	VBROADCASTSD 16(DI), Y10
	VBROADCASTSD 24(DI), Y11
	VMULPD       Y15, Y8, Y8
	VMULPD       Y15, Y9, Y9
	VMULPD       Y15, Y10, Y10
	VMULPD       Y15, Y11, Y11
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	VXORPD       Y2, Y2, Y2
	VXORPD       Y3, Y3, Y3
	VMOVSD       (DX), X4
	VMOVSD       8(DX), X5
	VMOVSD       16(DX), X6
	VMOVSD       24(DX), X7
	SYMV_DIAG((SI), X8, X4)
	SYMV_OFF(8(SI), X8, X5, 8(DI), X0)
	SYMV_OFF(16(SI), X8, X6, 16(DI), X0)
	SYMV_OFF(24(SI), X8, X7, 24(DI), X0)
	SYMV_DIAG(8(SI)(R10*1), X9, X5)
	SYMV_OFF(16(SI)(R10*1), X9, X6, 16(DI), X1)
	SYMV_OFF(24(SI)(R10*1), X9, X7, 24(DI), X1)
	SYMV_DIAG(16(SI)(R10*2), X10, X6)
	SYMV_OFF(24(SI)(R10*2), X10, X7, 24(DI), X2)
	SYMV_DIAG(24(SI)(R11*1), X11, X7)

	LEAQ  32(SI), AX
	LEAQ  32(DI), BX
	LEAQ  32(DX), R13
	MOVQ  R12, CX
	SUBQ  $4, CX
	SHRQ  $2, CX
	TESTQ CX, CX
	JZ    dots

quads:
	VMOVUPD (BX), Y12
	VMOVUPD (R13), Y13
	SYMV_COL((AX), Y8, Y0)
	SYMV_COL((AX)(R10*1), Y9, Y1)
	SYMV_COL((AX)(R10*2), Y10, Y2)
	SYMV_COL((AX)(R11*1), Y11, Y3)
	VMOVUPD Y13, (R13)
	ADDQ    $32, AX
	ADDQ    $32, BX
	ADDQ    $32, R13
	DECQ    CX
	JNZ     quads

dots:
	MOVQ  R9, CX
	SUBQ  R12, CX
	SHRQ  $2, CX
	TESTQ CX, CX
	JZ    reduce

dquads:
	VMOVUPD     (BX), Y12
	VFMADD231PD (AX), Y12, Y0
	VFMADD231PD (AX)(R10*1), Y12, Y1
	VFMADD231PD (AX)(R10*2), Y12, Y2
	VFMADD231PD (AX)(R11*1), Y12, Y3
	ADDQ        $32, AX
	ADDQ        $32, BX
	DECQ        CX
	JNZ         dquads

reduce:
	REDUCE4(Y12, Y13)
	MOVQ R9, CX
	ANDQ $3, CX
	JZ   store

rows:
	ROWOF4(Y12, X12, X13)
	VBROADCASTSD (BX), Y13
	VFMADD231PD  Y13, Y12, Y0
	ADDQ         $8, AX
	ADDQ         $8, BX
	DECQ         CX
	JNZ          rows

store:
	VUNPCKLPD    X5, X4, X4
	VUNPCKLPD    X7, X6, X6
	VINSERTF128  $1, X6, Y4, Y4
	VBROADCASTSD alpha+16(FP), Y15
	VFMADD231PD  Y15, Y0, Y4
	VMOVUPD      Y4, (DX)
	LEAQ         32(SI)(R10*4), SI
	ADDQ         $32, DI
	ADDQ         $32, DX
	SUBQ         $4, R9
	SUBQ         $4, R12
	JMP          group

done:
	VZEROUPPER
	RET

// SYR2_ELEM updates one element: a = fma(y[i], t2, fma(x[i], t1, a)).
#define SYR2_ELEM(a, xi, yi, t1, t2) \
	VMOVSD      a, X12; \
	VFMADD231SD xi, t1, X12; \
	VFMADD231SD yi, t2, X12; \
	VMOVSD      X12, a

// SYR2_COL is the same for a row quad, x in Y12 and y in Y13.
#define SYR2_COL(a, t1, t2) \
	VMOVUPD     a, Y14; \
	VFMADD231PD Y12, t1, Y14; \
	VFMADD231PD Y13, t2, Y14; \
	VMOVUPD     Y14, a

// func syr2LFMA(n int, alpha float64, x, y, a *float64, lda int)
//
// A += alpha·(x·yᵀ + y·xᵀ) on the lower triangle. Per group of four columns:
// SI, DI, DX point at a[g,g], x[g], y[g]; Y8..Y11 hold alpha·y[c] and Y4..Y7
// alpha·x[c]; the 4×4 diagonal block's ten elements run in scalar code, the
// rectangle below in row quads.
TEXT ·syr2LFMA(SB), NOSPLIT, $0-48
	MOVQ         n+0(FP), R9
	VBROADCASTSD alpha+8(FP), Y15
	MOVQ         x+16(FP), DI
	MOVQ         y+24(FP), DX
	MOVQ         a+32(FP), SI
	MOVQ         lda+40(FP), R10
	SHLQ         $3, R10
	LEAQ         (R10)(R10*2), R11

group:
	CMPQ         R9, $4
	JLT          last
	VBROADCASTSD (DX), Y8
	VBROADCASTSD 8(DX), Y9
	VBROADCASTSD 16(DX), Y10
	VBROADCASTSD 24(DX), Y11
	VBROADCASTSD (DI), Y4
	VBROADCASTSD 8(DI), Y5
	VBROADCASTSD 16(DI), Y6
	VBROADCASTSD 24(DI), Y7
	VMULPD       Y15, Y8, Y8
	VMULPD       Y15, Y9, Y9
	VMULPD       Y15, Y10, Y10
	VMULPD       Y15, Y11, Y11
	VMULPD       Y15, Y4, Y4
	VMULPD       Y15, Y5, Y5
	VMULPD       Y15, Y6, Y6
	VMULPD       Y15, Y7, Y7
	SYR2_ELEM((SI), (DI), (DX), X8, X4)
	SYR2_ELEM(8(SI), 8(DI), 8(DX), X8, X4)
	SYR2_ELEM(16(SI), 16(DI), 16(DX), X8, X4)
	SYR2_ELEM(24(SI), 24(DI), 24(DX), X8, X4)
	SYR2_ELEM(8(SI)(R10*1), 8(DI), 8(DX), X9, X5)
	SYR2_ELEM(16(SI)(R10*1), 16(DI), 16(DX), X9, X5)
	SYR2_ELEM(24(SI)(R10*1), 24(DI), 24(DX), X9, X5)
	SYR2_ELEM(16(SI)(R10*2), 16(DI), 16(DX), X10, X6)
	SYR2_ELEM(24(SI)(R10*2), 24(DI), 24(DX), X10, X6)
	SYR2_ELEM(24(SI)(R11*1), 24(DI), 24(DX), X11, X7)

	LEAQ  32(SI), AX
	LEAQ  32(DI), BX
	LEAQ  32(DX), R13
	MOVQ  R9, CX
	SUBQ  $4, CX
	SHRQ  $2, CX
	TESTQ CX, CX
	JZ    tail

quads:
	VMOVUPD (BX), Y12
	VMOVUPD (R13), Y13
	SYR2_COL((AX), Y8, Y4)
	SYR2_COL((AX)(R10*1), Y9, Y5)
	SYR2_COL((AX)(R10*2), Y10, Y6)
	SYR2_COL((AX)(R11*1), Y11, Y7)
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $32, R13
	DECQ CX
	JNZ  quads

tail:
	MOVQ R9, CX
	ANDQ $3, CX
	JZ   next

rows:
	SYR2_ELEM((AX), (BX), (R13), X8, X4)
	SYR2_ELEM((AX)(R10*1), (BX), (R13), X9, X5)
	SYR2_ELEM((AX)(R10*2), (BX), (R13), X10, X6)
	SYR2_ELEM((AX)(R11*1), (BX), (R13), X11, X7)
	ADDQ $8, AX
	ADDQ $8, BX
	ADDQ $8, R13
	DECQ CX
	JNZ  rows

next:
	LEAQ 32(SI)(R10*4), SI
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $4, R9
	JMP  group

last:
	TESTQ R9, R9
	JZ    done

lastcol:
	VMULSD (DX), X15, X8
	VMULSD (DI), X15, X4
	MOVQ   SI, AX
	MOVQ   DI, BX
	MOVQ   DX, R13
	MOVQ   R9, CX

lastrow:
	SYR2_ELEM((AX), (BX), (R13), X8, X4)
	ADDQ $8, AX
	ADDQ $8, BX
	ADDQ $8, R13
	DECQ CX
	JNZ  lastrow
	LEAQ 8(SI)(R10*1), SI
	ADDQ $8, DI
	ADDQ $8, DX
	DECQ R9
	JNZ  lastcol

done:
	VZEROUPPER
	RET
