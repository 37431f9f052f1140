package blas

// Dgemm computes C := alpha*op(A)*op(B) + beta*C where op(A) is m×k and
// op(B) is k×n, all column-major.
//
// The blocked driver packs op(A) into MC×KC row-panels and op(B) into
// KC×NC column-panels (once per block — the packed B panel is reused across
// every MC strip), then runs the register-blocked micro-kernel the CPU probe
// selected (kernel) over the packed panels. Every C element is one fused
// accumulation chain over k in ascending order, split only at KC
// boundaries, so the portable and the assembly kernels produce bitwise
// identical results.
func Dgemm(transA, transB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	rowA, colA := m, k
	if transA == Trans {
		rowA, colA = k, m
	}
	rowB, colB := k, n
	if transB == Trans {
		rowB, colB = n, k
	}
	checkMatrix("dgemm", rowA, colA, a, lda)
	checkMatrix("dgemm", rowB, colB, b, ldb)
	checkMatrix("dgemm", m, n, c, ldc)
	if m == 0 || n == 0 {
		return
	}
	if beta != 1 {
		for j := 0; j < n; j++ {
			col := c[j*ldc : j*ldc+m]
			if beta == 0 {
				for i := range col {
					col[i] = 0
				}
			} else {
				for i := range col {
					col[i] *= beta
				}
			}
		}
	}
	if alpha == 0 || k == 0 {
		return
	}

	kern := kernel
	// Pack storage sized to the actual problem, not the blocking maxima (a
	// 24-wide tile-kernel gemm should not pin a megabyte of buffers).
	kcEff := min(DefaultKC, k)
	packNA := roundUp(min(DefaultMC, m), kern.mr()) * kcEff
	packNB := min(DefaultNC, roundUp(n, microNR)) * kcEff

	buf := getPackBuf(packNA, packNB)
	gemmBlocked(transA, transB, m, n, k, alpha, a, lda, b, ldb, c, ldc, kern, buf)
	putPackBuf(buf)
}

// gemmBlocked computes C += alpha*op(A)*op(B) (beta already applied) with
// the three-level cache blocking. buf supplies the pack storage for the
// whole call; nothing below this level allocates.
func gemmBlocked(transA, transB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, kern kernelFamily, buf *packBuf) {
	for jj := 0; jj < n; jj += DefaultNC {
		nc := min(DefaultNC, n-jj)
		for kk := 0; kk < k; kk += DefaultKC {
			kc := min(DefaultKC, k-kk)
			// Pack alpha·op(B)[kk:kk+kc, jj:jj+nc] once; it is reused by
			// every MC strip of A below.
			packB(buf.b, transB, b, ldb, kk, jj, kc, nc, alpha)
			for ii := 0; ii < m; ii += DefaultMC {
				mc := min(DefaultMC, m-ii)
				packA(buf.a, transA, a, lda, ii, kk, mc, kc, kern)
				gemmMacro(buf.a, buf.b, kc, mc, nc, kc, kern, c[ii+jj*ldc:], ldc, nil)
			}
		}
	}
}

// packB packs alpha·op(B)[kk:kk+kc, jj:jj+nc] into 4-column panels of
// kc·4 values each: four contiguous length-kc column streams,
// panel[t*kc+l] — the layout of four columns of a column-major matrix with
// leading dimension kc, which is what lets every kernel also read an unpacked
// right operand in place (GemmPackedA). Ragged panels are zero-padded to the
// full tile width; the padded columns are computed by the micro-kernel but
// never stored.
func packB(dst []float64, transB Transpose, b []float64, ldb, kk, jj, kc, nc int, alpha float64) {
	np := (nc + microNR - 1) / microNR
	for q := 0; q < np; q++ {
		panel := dst[q*microNR*kc : (q+1)*microNR*kc]
		w := min(microNR, nc-q*microNR)
		for t := 0; t < w; t++ {
			col := panel[t*kc : t*kc+kc]
			if transB == NoTrans {
				src := b[kk+(jj+q*microNR+t)*ldb:]
				for l := 0; l < kc; l++ {
					col[l] = alpha * src[l]
				}
			} else {
				for l := 0; l < kc; l++ {
					col[l] = alpha * b[(jj+q*microNR+t)+(kk+l)*ldb]
				}
			}
		}
		clear(panel[w*kc:])
	}
}

// packA packs op(A)[ii:ii+mc, kk:kk+kc] into row-panels of kern.mr() rows,
// in one of two layouts. For the portable kernels a panel is its rows as
// contiguous length-kc streams (panel[r*kc+l]), and the final ragged panel
// (h < mr rows) is packed at its exact height for the generic fringe kernel.
// For the assembly kernels a panel is k-interleaved (panel[l*mr+r], so one
// vector load reads a quarter or half of a column of the tile) and always mr
// rows high: a ragged last panel is padded with zero rows, which the kernel
// computes and nobody stores, so dst must hold roundUp(mc, mr)·kc values.
func packA(dst []float64, transA Transpose, a []float64, lda, ii, kk, mc, kc int, kern kernelFamily) {
	mr, interleave := kern.mr(), kern != famPortable
	off := 0
	for p := 0; p < mc; p += mr {
		h := min(mr, mc-p)
		if interleave {
			panel := dst[off : off+mr*kc]
			off += mr * kc
			if h < mr {
				clear(panel)
			}
			if transA == NoTrans {
				for l := 0; l < kc; l++ {
					src := a[ii+p+(kk+l)*lda:][:h]
					col := panel[l*mr:][:len(src)]
					for r, v := range src {
						col[r] = v
					}
				}
			} else {
				for r := 0; r < h; r++ {
					src := a[kk+(ii+p+r)*lda:][:kc]
					for l, v := range src {
						panel[l*mr+r] = v
					}
				}
			}
			continue
		}
		panel := dst[off : off+h*kc]
		off += h * kc
		if transA == NoTrans {
			// Row r of the panel is contiguous; the strided reads walk
			// each column of a once.
			for r := 0; r < h; r++ {
				src := a[ii+p+r+kk*lda:]
				row := panel[r*kc : r*kc+kc]
				for l := range row {
					row[l] = src[l*lda]
				}
			}
		} else {
			// Row r of op(A) is a contiguous column of a.
			for r := 0; r < h; r++ {
				src := a[kk+(ii+p+r)*lda:]
				copy(panel[r*kc:r*kc+kc], src[:kc])
			}
		}
	}
}

// gemmMacro runs the micro-kernel grid over one packed (mc×kc)·(kc×nc)
// block. The loop order keeps each 4-column B panel L1-resident while the
// packed A block streams through it. ldb is the distance between the column
// streams of B: kc for a panel packed by packB, or the leading dimension of a
// plain column-major matrix, whose columns 4q..4q+3 already are panel q.
//
// sky, when non-nil, is the left operand's skyline (see Packing.PackA): two
// values per A row-panel giving the k range [lo, hi) outside which the
// panel is exactly zero. The kernels then run on that sub-range only. Every
// skipped term is a ±0 product, and fma(±0, b, s) is s for every finite b and
// every partial sum s but −0 (a leading run of them keeps the chain at +0), so
// for finite operands the result is bitwise the one the full range gives —
// unless a step's exact value underflows to −0, whose sign a skipped trailing
// term would have turned to +0.
func gemmMacro(apack, bpack []float64, ldb, mc, nc, kc int, kern kernelFamily, c []float64, ldc int, sky []float64) {
	mr := kern.mr()
	np := (nc + microNR - 1) / microNR
	for q := 0; q < np; q++ {
		bq := bpack[q*microNR*ldb:]
		nr := min(microNR, nc-q*microNR)
		cq := c[q*microNR*ldc:]
		off := 0
		for p, pi := 0, 0; p < mc; p, pi = p+mr, pi+1 {
			h := min(mr, mc-p)
			ph := h // packed panel height: the assembly layouts pad to mr
			if kern != famPortable {
				ph = mr
			}
			ap := apack[off : off+ph*kc]
			off += ph * kc
			lo, kn := 0, kc
			if sky != nil {
				lo = int(sky[2*pi])
				kn = int(sky[2*pi+1]) - lo
				if kn <= 0 {
					continue
				}
			}
			ct := cq[p:]
			switch {
			case kern == famAVX512:
				kern16x4asm(kn, ap[lo*mr:], bq[lo:], ldb, ct, ldc, h, nr)
			case kern == famAVX2:
				kern12x4asm(kn, ap[lo*mr:], bq[lo:], ldb, ct, ldc, h, nr)
			case h < mr:
				kernMx4(kn, h, ap[lo:], kc, bq[lo:], ldb, ct, ldc, nr)
			default:
				kern2x4(kn, ap[lo:], kc, bq[lo:], ldb, ct, ldc, nr)
			}
		}
	}
}
