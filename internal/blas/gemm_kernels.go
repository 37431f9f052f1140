package blas

// The portable GEMM micro-kernels: the 2×4 tile and, for the portable
// layout's ragged last panel, kernMx4. Each computes an h×4 block of
// C += Ap·Bp from panels in stream layout: the panel is h (resp. 4) length-kc
// streams, one per A row / B column, lda (resp. ldb) apart, so every inner
// loop is an indexed walk over pre-sliced arrays and the compiler drops all
// bounds checks. A whole packed panel has lda = ldb = kc; a k sub-range of
// one — which is how the packed driver skips the leading and trailing zeros of
// a structured left operand — keeps the panel's strides and starts each stream
// at the range's offset; and four columns of a plain column-major matrix are a
// B panel as they stand. (The assembly kernel reads B the same way; only its A
// panels differ, k-interleaved so that one vector load fetches four rows — a
// layout that costs scalar code about 2.5×, which is why the portable kernels
// keep their own.) nr ≤ 4 is the number of valid C columns; padded B columns
// are computed into dead accumulators and discarded.
//
// These are the twins of the assembly kernel and define its result: every C
// element is accumulated in its own chain over l = 0..kc-1 as
// s ← fma(a, b, s), one rounding per step, and added to memory exactly once.
// IEEE 754 defines the fused multiply-add exactly, so fma here (math.FMA, see
// level_kernels.go) and VFMADD231PD there give the same bits, and the kernels
// are interchangeable with each other and with the assembly on every machine.
// (Where the CPU has no FMA instruction math.FMA runs in software: the same
// bits, slowly.)

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
		s00 = fma(av0, b0[l], s00)
		s10 = fma(av1, b0[l], s10)
		s01 = fma(av0, b1[l], s01)
		s11 = fma(av1, b1[l], s11)
		s02 = fma(av0, b2[l], s02)
		s12 = fma(av1, b2[l], s12)
		s03 = fma(av0, b3[l], s03)
		s13 = fma(av1, b3[l], s13)
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

// kernMx4 handles the portable layout's ragged final A panel (1 ≤ h < mr
// rows, packed as h streams). It runs the same per-element accumulation
// chains as kern2x4, just without the unrolled register tile; it only ever
// sees the fringe of the matrix, so its share of the work is O(1/m).
func kernMx4(kc, h int, ap []float64, lda int, bp []float64, ldb int, c []float64, ldc, nr int) {
	b0 := bp[:kc]
	b1 := bp[ldb : ldb+kc]
	b2 := bp[2*ldb : 2*ldb+kc]
	b3 := bp[3*ldb : 3*ldb+kc]
	for r := 0; r < h; r++ {
		ar := ap[r*lda : r*lda+kc]
		var s0, s1, s2, s3 float64
		for l, av := range ar {
			s0 = fma(av, b0[l], s0)
			s1 = fma(av, b1[l], s1)
			s2 = fma(av, b2[l], s2)
			s3 = fma(av, b3[l], s3)
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
