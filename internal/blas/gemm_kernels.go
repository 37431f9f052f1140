package blas

// Portable register-blocked GEMM micro-kernels. Each computes an h×4 block
// of C += Ap·Bp from panels in stream layout: the panel is h (resp. 4)
// length-kc streams, one per A row / B column, lda (resp. ldb) apart, so every
// inner loop is an indexed walk over pre-sliced arrays and the compiler drops
// all bounds checks. A whole packed panel has lda = ldb = kc; a k sub-range of
// one — which is how the packed driver skips the leading and trailing zeros of
// a structured left operand — keeps the panel's strides and starts each stream
// at the range's offset; and four columns of a plain column-major matrix are a
// B panel as they stand. (The assembly kernel reads B the same way; only its A
// panels differ, k-interleaved so that one vector load fetches four rows — a
// layout that costs scalar code about 2.5×, which is why the portable kernels
// keep their own.) nr ≤ 4 is the number of valid C columns; padded B columns
// are computed into dead accumulators and discarded.
//
// Every C element is accumulated in its own scalar chain over l = 0..kc-1
// and added to memory exactly once, so the kernels are bitwise
// interchangeable — with each other, with the generic fringe kernel, and
// with the assembly kernel (which uses separate multiply and add
// instructions for exactly this reason).

func kern2x4(kc int, ap []float64, lda int, bp []float64, ldb int, c []float64, ldc, nr int) {
	a0 := ap[:kc]
	a1 := ap[lda : lda+kc]
	b0 := bp[:kc]
	b1 := bp[ldb : ldb+kc]
	b2 := bp[2*ldb : 2*ldb+kc]
	b3 := bp[3*ldb : 3*ldb+kc]
	var s00, s10, s01, s11, s02, s12, s03, s13 float64
	for l := 0; l < kc; l++ {
		av0, av1 := a0[l], a1[l]
		s00 += av0 * b0[l]
		s10 += av1 * b0[l]
		s01 += av0 * b1[l]
		s11 += av1 * b1[l]
		s02 += av0 * b2[l]
		s12 += av1 * b2[l]
		s03 += av0 * b3[l]
		s13 += av1 * b3[l]
	}
	c[0] += s00
	c[1] += s10
	if nr > 1 {
		c[ldc] += s01
		c[ldc+1] += s11
	}
	if nr > 2 {
		c[2*ldc] += s02
		c[2*ldc+1] += s12
	}
	if nr > 3 {
		c[3*ldc] += s03
		c[3*ldc+1] += s13
	}
}

// kern4x4 reuses each packed load four times (32 flops per 8 loads versus
// 16 per 6 for the 2×4 tile). Its 16 accumulators are at the edge of the
// amd64 XMM file, so a few chains spill; which tile wins is
// machine-dependent, which is exactly what the autotuner sweep measures.
func kern4x4(kc int, ap []float64, lda int, bp []float64, ldb int, c []float64, ldc, nr int) {
	a0 := ap[:kc]
	a1 := ap[lda : lda+kc]
	a2 := ap[2*lda : 2*lda+kc]
	a3 := ap[3*lda : 3*lda+kc]
	b0 := bp[:kc]
	b1 := bp[ldb : ldb+kc]
	b2 := bp[2*ldb : 2*ldb+kc]
	b3 := bp[3*ldb : 3*ldb+kc]
	var s00, s10, s20, s30 float64
	var s01, s11, s21, s31 float64
	var s02, s12, s22, s32 float64
	var s03, s13, s23, s33 float64
	for l := 0; l < kc; l++ {
		av0, av1, av2, av3 := a0[l], a1[l], a2[l], a3[l]
		bv0, bv1, bv2, bv3 := b0[l], b1[l], b2[l], b3[l]
		s00 += av0 * bv0
		s10 += av1 * bv0
		s20 += av2 * bv0
		s30 += av3 * bv0
		s01 += av0 * bv1
		s11 += av1 * bv1
		s21 += av2 * bv1
		s31 += av3 * bv1
		s02 += av0 * bv2
		s12 += av1 * bv2
		s22 += av2 * bv2
		s32 += av3 * bv2
		s03 += av0 * bv3
		s13 += av1 * bv3
		s23 += av2 * bv3
		s33 += av3 * bv3
	}
	cc := c[:4]
	cc[0] += s00
	cc[1] += s10
	cc[2] += s20
	cc[3] += s30
	if nr > 1 {
		cc = c[ldc : ldc+4]
		cc[0] += s01
		cc[1] += s11
		cc[2] += s21
		cc[3] += s31
	}
	if nr > 2 {
		cc = c[2*ldc : 2*ldc+4]
		cc[0] += s02
		cc[1] += s12
		cc[2] += s22
		cc[3] += s32
	}
	if nr > 3 {
		cc = c[3*ldc : 3*ldc+4]
		cc[0] += s03
		cc[1] += s13
		cc[2] += s23
		cc[3] += s33
	}
}

// kern8x4 is the portable twin of the assembly kernel's native tile. Its 32
// accumulators far exceed the scalar register file, so it runs as two 4×4
// half-tiles over the same packed panel — the chains are identical (each C
// element is still one sum over l), only the interleaving of independent
// chains differs, which floating point cannot observe.
func kern8x4(kc int, ap []float64, lda int, bp []float64, ldb int, c []float64, ldc, nr int) {
	kern4x4(kc, ap, lda, bp, ldb, c, ldc, nr)
	kern4x4(kc, ap[4*lda:], lda, bp, ldb, c[4:], ldc, nr)
}

// kernMx4 handles the portable layout's ragged final A panel (1 ≤ h < mr
// rows, packed as h streams). It runs the same per-element accumulation
// chains as the fast kernels, just without the unrolled register tile; it
// only ever sees the fringe of the matrix, so its share of the work is O(1/m).
func kernMx4(kc, h int, ap []float64, lda int, bp []float64, ldb int, c []float64, ldc, nr int) {
	b0 := bp[:kc]
	b1 := bp[ldb : ldb+kc]
	b2 := bp[2*ldb : 2*ldb+kc]
	b3 := bp[3*ldb : 3*ldb+kc]
	for r := 0; r < h; r++ {
		ar := ap[r*lda : r*lda+kc]
		var s0, s1, s2, s3 float64
		for l, av := range ar {
			s0 += av * b0[l]
			s1 += av * b1[l]
			s2 += av * b2[l]
			s3 += av * b3[l]
		}
		c[r] += s0
		if nr > 1 {
			c[r+ldc] += s1
		}
		if nr > 2 {
			c[r+2*ldc] += s2
		}
		if nr > 3 {
			c[r+3*ldc] += s3
		}
	}
}
