package blas

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestGemmPackedABitwiseDgemm pins the contract the prepared block reflectors
// rest on: a product run on a left operand packed once is bitwise the product
// Dgemm computes, for every kernel family, for chains split at KC (k > 128),
// for ragged shapes (every fringe of the assembly layout: a padded last A
// panel, ragged tiles in either direction) — and for structured operands whose
// leading and trailing zeros the skyline skips (skipping a ±0 term never
// changes a finite chain). Dgemm runs on the same kernels, so the
// cross-kernel half of the contract is TestDgemmKernelsBitwiseIdentical's.
func TestGemmPackedABitwiseDgemm(t *testing.T) {
	t.Logf("GemmKernel() = %s", GemmKernel())
	type zeros int
	const (
		dense zeros = iota
		upper
		lower
		banded
	)
	forEachPath(func(path string) {
		rng := rand.New(rand.NewSource(31))
		pk := CurrentPacking()
		for _, sh := range [][3]int{
			{1, 1, 1}, {2, 4, 3}, {7, 5, 9}, {12, 16, 12}, {59, 37, 12}, {13, 6, 150}, {48, 48, 48},
			{1, 16, 12}, {7, 3, 12}, {9, 1, 59}, {9, 37, 5}, {12, 5, 59}, {59, 16, 12}, {59, 3, 131},
			{1, 5, 129}, {25, 9, 257}, {13, 4, 300}, {37, 21, 385},
		} {
			m, n, k := sh[0], sh[1], sh[2]
			for _, trans := range []Transpose{NoTrans, Trans} {
				for _, z := range []zeros{dense, upper, lower, banded} {
					lda := m + 1
					if trans == Trans {
						lda = k + 2
					}
					rowsA, colsA := m, k
					if trans == Trans {
						rowsA, colsA = k, m
					}
					a := randMat(rng, rowsA, colsA, lda)
					for i := 0; i < m; i++ {
						for l := 0; l < k; l++ {
							if (z == upper && l < i) || (z == lower && l > i) || (z == banded && (l < i || l > i+3)) {
								if trans == Trans {
									a[l+i*lda] = 0
								} else {
									a[i+l*lda] = 0
								}
							}
						}
					}
					ldb, ldc := k+1, m+3
					b := randMat(rng, k, n, ldb)
					c := randMat(rng, m, n, ldc)
					want := append([]float64(nil), c...)
					Dgemm(trans, NoTrans, m, n, k, 1, a, lda, b, ldb, 1, want, ldc)

					ap := make([]float64, pk.ALen(m, k))
					pk.PackA(ap, trans, a, lda, m, k)
					pk.GemmPackedA(m, n, k, ap, b, ldb, c, ldc, make([]float64, pk.BScratch(k, n)))
					if d := maxDiff(c, want); d != 0 {
						t.Fatalf("%s kernel m=%d n=%d k=%d trans=%c zeros=%d: differs from Dgemm by %g", path, m, n, k, trans, z, d)
					}
				}
			}
		}
	})
}

// TestGemmPackedAAllocs: the engine's inner product must not allocate, on
// any kernel family — in particular the AVX2 path's staging tile must stay on
// the stack.
func TestGemmPackedAAllocs(t *testing.T) {
	t.Logf("GemmKernel() = %s", GemmKernel())
	rng := rand.New(rand.NewSource(37))
	const m, n, k = 59, 37, 12 // padded last panel, ragged tiles both ways
	a := randMat(rng, m, k, m)
	b := randMat(rng, k, n, k)
	c := randMat(rng, m, n, m)
	forEachPath(func(path string) {
		pk := CurrentPacking()
		ap := make([]float64, pk.ALen(m, k))
		pk.PackA(ap, NoTrans, a, m, m, k)
		scratch := make([]float64, pk.BScratch(k, n))
		if allocs := testing.AllocsPerRun(20, func() {
			pk.GemmPackedA(m, n, k, ap, b, k, c, m, scratch)
		}); allocs != 0 {
			t.Fatalf("%s: %v allocations per GemmPackedA, want 0", path, allocs)
		}
	})
}

// TestGemmPackedAUnpackedPanics: storage that PackA never wrote must not
// multiply as an operand of zeros. Its skyline headers, read from zero-filled
// or NaN-filled storage, decode to no valid k range, and GemmPackedA panics
// — while a packed all-zero operand, whose headers say "empty", leaves C
// alone.
func TestGemmPackedAUnpackedPanics(t *testing.T) {
	const m, n, k = 37, 13, 150 // two KC chunks, a padded last row panel
	rng := rand.New(rand.NewSource(47))
	b := randMat(rng, k, n, k)
	forEachPath(func(path string) {
		pk := CurrentPacking()
		ap := make([]float64, pk.ALen(m, k))
		scratch := make([]float64, pk.BScratch(k, n))
		for _, fill := range []float64{0, math.NaN()} {
			for i := range ap {
				ap[i] = fill
			}
			c := make([]float64, m*n)
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				pk.GemmPackedA(m, n, k, ap, b, k, c, m, scratch)
				return
			}()
			if !panicked {
				t.Errorf("%s: GemmPackedA on storage filled with %g did not panic", path, fill)
			}
		}
		pk.PackA(ap, NoTrans, make([]float64, m*k), m, m, k)
		c := randMat(rng, m, n, m)
		want := slices.Clone(c)
		pk.GemmPackedA(m, n, k, ap, b, k, c, m, scratch)
		if d := maxDiff(c, want); d != 0 {
			t.Errorf("%s: a packed zero operand changed C by %g", path, d)
		}
	})
}
