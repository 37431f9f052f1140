package blas

import (
	"sync"
	"sync/atomic"
)

// This file is the frozen pre-rework GEMM path, selectable with
// Blocking{Kernel: KernelSeed}. It is kept verbatim (fixed 128/128/64
// blocking, 2×4 tile, B re-packed per j-strip, per-call bpack on the
// stack) as the "before" baseline of cmd/eigtune's kernel sweep and as the
// bitwise reference the packed kernels are gated against. Do not optimize it.

// Block sizes for the seed cache-blocked Dgemm micro-kernel. The kernel
// computes C[mc×nc] += A[mc×kc]·B[kc×nc] with A packed row-panel-wise so
// the inner loops stream contiguously.
const (
	gemmMC = 128
	gemmKC = 128
	gemmNC = 64
)

// packPool recycles the seed A-packing buffers; tile kernels issue millions
// of small gemms and a fresh 128×128 buffer per call would dominate their
// cost.
var packPool = sync.Pool{
	New: func() interface{} {
		buf := make([]float64, gemmMC*gemmKC)
		return &buf
	},
}

// dgemmSeed is the seed kernel's whole post-validation body: parallel
// column-panel split plus the blocked serial kernel (beta already applied
// by Dgemm).
func dgemmSeed(transA, transB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	p := Parallelism()
	if p > 1 && n >= 2*gemmNC && int64(m)*int64(n)*int64(k) > 1<<18 {
		// Split C into column panels; each panel is an independent gemm.
		panels := (n + gemmNC - 1) / gemmNC
		if p > panels {
			p = panels
		}
		var wg sync.WaitGroup
		var next int64
		for w := 0; w < p; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					j := int(atomic.AddInt64(&next, 1)-1) * gemmNC
					if j >= n {
						return
					}
					jn := min(gemmNC, n-j)
					var bsub []float64
					if transB == NoTrans {
						bsub = b[j*ldb:]
					} else {
						bsub = b[j:]
					}
					gemmSerialSeed(transA, transB, m, jn, k, alpha, a, lda, bsub, ldb, c[j*ldc:], ldc)
				}
			}()
		}
		wg.Wait()
		return
	}
	gemmSerialSeed(transA, transB, m, n, k, alpha, a, lda, b, ldb, c, ldc)
}

// gemmSerialSeed computes C += alpha*op(A)*op(B) (beta already applied)
// with cache blocking.
func gemmSerialSeed(transA, transB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	// Pack a kc×mc block of op(A) transposed into apack so that the
	// micro-kernel reads it with stride 1 along k.
	bufp := packPool.Get().(*[]float64)
	defer packPool.Put(bufp)
	apack := *bufp
	for kk := 0; kk < k; kk += gemmKC {
		kc := min(gemmKC, k-kk)
		for ii := 0; ii < m; ii += gemmMC {
			mc := min(gemmMC, m-ii)
			// apack[l + i*kc] = op(A)[ii+i, kk+l]
			if transA == NoTrans {
				for i := 0; i < mc; i++ {
					for l := 0; l < kc; l++ {
						apack[l+i*kc] = a[(ii+i)+(kk+l)*lda]
					}
				}
			} else {
				for i := 0; i < mc; i++ {
					col := a[(ii+i)*lda:]
					copy(apack[i*kc:i*kc+kc], col[kk:kk+kc])
				}
			}
			for jj := 0; jj < n; jj += gemmNC {
				nc := min(gemmNC, n-jj)
				gemmMicroSeed(transB, mc, nc, kc, alpha, apack, b, ldb, kk, jj, c[ii+jj*ldc:], ldc)
			}
		}
	}
}

// gemmMicroSeed computes the mc×nc block update using the packed A block
// with a 2×4 register-blocked inner kernel: two rows of packed A against
// four packed columns of op(B) give eight independent accumulator chains,
// which keeps the FPU pipeline full and reuses every load four times.
func gemmMicroSeed(transB Transpose, mc, nc, kc int, alpha float64, apack []float64, b []float64, ldb int, kk, jj int, c []float64, ldc int) {
	var bpack [4 * gemmKC]float64
	packB := func(j, w int) {
		for q := 0; q < w; q++ {
			dst := bpack[q*kc : q*kc+kc]
			if transB == NoTrans {
				src := b[(jj+j+q)*ldb+kk:]
				for l := 0; l < kc; l++ {
					dst[l] = alpha * src[l]
				}
			} else {
				for l := 0; l < kc; l++ {
					dst[l] = alpha * b[(jj+j+q)+(kk+l)*ldb]
				}
			}
		}
	}
	j := 0
	for ; j+3 < nc; j += 4 {
		packB(j, 4)
		b0 := bpack[0*kc : 0*kc+kc]
		b1 := bpack[1*kc : 1*kc+kc]
		b2 := bpack[2*kc : 2*kc+kc]
		b3 := bpack[3*kc : 3*kc+kc]
		c0 := c[(j+0)*ldc:]
		c1 := c[(j+1)*ldc:]
		c2 := c[(j+2)*ldc:]
		c3 := c[(j+3)*ldc:]
		i := 0
		for ; i+1 < mc; i += 2 {
			a0 := apack[i*kc : i*kc+kc]
			a1 := apack[(i+1)*kc : (i+1)*kc+kc]
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for l := 0; l < kc; l++ {
				av0, av1 := a0[l], a1[l]
				s00 += av0 * b0[l]
				s01 += av0 * b1[l]
				s02 += av0 * b2[l]
				s03 += av0 * b3[l]
				s10 += av1 * b0[l]
				s11 += av1 * b1[l]
				s12 += av1 * b2[l]
				s13 += av1 * b3[l]
			}
			c0[i] += s00
			c1[i] += s01
			c2[i] += s02
			c3[i] += s03
			c0[i+1] += s10
			c1[i+1] += s11
			c2[i+1] += s12
			c3[i+1] += s13
		}
		if i < mc {
			a0 := apack[i*kc : i*kc+kc]
			var s0, s1, s2, s3 float64
			for l := 0; l < kc; l++ {
				av := a0[l]
				s0 += av * b0[l]
				s1 += av * b1[l]
				s2 += av * b2[l]
				s3 += av * b3[l]
			}
			c0[i] += s0
			c1[i] += s1
			c2[i] += s2
			c3[i] += s3
		}
	}
	for ; j < nc; j++ {
		packB(j, 1)
		b0 := bpack[:kc]
		ccol := c[j*ldc : j*ldc+mc]
		for i := 0; i < mc; i++ {
			arow := apack[i*kc : i*kc+kc]
			var sum float64
			for l, av := range arow {
				sum += av * b0[l]
			}
			ccol[i] += sum
		}
	}
}
