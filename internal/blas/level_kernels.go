package blas

import "math"

// The eight unit-stride Level-1/2 kernels under Ddot, Daxpy, Dgemv, Dger,
// Dsymv(Lower), DsymvRows and Dsyr2(Lower). On amd64 with AVX2 and FMA each
// runs as assembly (level_asm_amd64.{go,s}); the functions in this file are
// their portable twins — what every other machine runs, and the definition of
// the result: assembly and twin agree bit for bit, so a kernel's result never
// depends on which of the two ran. Three rules make that possible.
//
//   - Every a·b + c is one fused multiply-add, rounded once: VFMADD231PD/SD in
//     the assembly, fma (math.FMA) in the twins. IEEE 754 defines the
//     operation exactly, so every CPU gives the same bits.
//   - An element that is updated (y in gemvN and symvL, A in ger) takes its
//     terms one at a time in ascending column order, whatever the kernel's
//     column blocking: y[i] = fma(t₁, a[i,1], fma(t₀, a[i,0], y[i])) …; syr2L
//     takes a[i,j] = fma(y[i], α·x[j], fma(x[i], α·y[j], a[i,j])).
//   - A column reduced against a vector (dot, gemvT, the mirrored-row half of
//     symvL) is summed in four fused lanes: lane l takes rows l, l+4, l+8, …
//     of the column's whole quads, the lanes combine as (s₀+s₁)+(s₂+s₃), and
//     the rows after the last whole quad are then fused in one at a time. The
//     sum r then reaches y as y = fma(α, r, y). symvL counts quads from the
//     first row below its 4×4 diagonal block; the rows of a column inside that
//     block (and every row of a last group of fewer than four columns) go to
//     lane 0 before the quads start.
//
// The assembly blocks four columns per pass — four dot products share each
// load of x, four axpys share each load and store of y — which the rules above
// make invisible in the result, so the twins keep one column per pass.
// All operands are dense in memory order: a is column-major with lda ≥ rows.

// fma is math.FMA, IEEE 754's fused multiply-add, on every machine. Where the
// CPU has no FMA instruction math.FMA runs in software, which for a zero z
// returns x·y + z with the product rounded first: where x·y underflows to −0
// against z = +0 that gives +0, the fused operation −0 (the sign of the exact,
// nonzero result). For a zero z and nonzero x and y the fused result is the
// rounded product itself, so that case is taken here (the conversion keeps
// the compiler from fusing the product into a caller's addition) and the
// twins give the bits of the hardware instruction whatever ran them.
func fma(x, y, z float64) float64 {
	if z == 0 && x != 0 && y != 0 {
		return float64(x * y)
	}
	return math.FMA(x, y, z)
}

// dotGo returns x[:n]·y[:n].
func dotGo(n int, x, y []float64) float64 {
	x, y = x[:n], y[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < n; i += 4 {
		s0 = fma(x[i], y[i], s0)
		s1 = fma(x[i+1], y[i+1], s1)
		s2 = fma(x[i+2], y[i+2], s2)
		s3 = fma(x[i+3], y[i+3], s3)
	}
	r := (s0 + s1) + (s2 + s3)
	for ; i < n; i++ {
		r = fma(x[i], y[i], r)
	}
	return r
}

// axpyGo computes y[:n] += alpha·x[:n].
func axpyGo(n int, alpha float64, x, y []float64) {
	y = y[:n]
	for i, v := range x[:n] {
		y[i] = fma(alpha, v, y[i])
	}
}

// gemvNGo computes y[:m] += alpha·A·x for the m×n matrix a.
func gemvNGo(m, n int, alpha float64, a []float64, lda int, x, y []float64) {
	for j := 0; j < n; j++ {
		axpyGo(m, alpha*x[j], a[j*lda:], y)
	}
}

// gemvTGo computes y[j] += alpha·(A(:, j)·x[:m]) for the n columns of a.
func gemvTGo(m, n int, alpha float64, a []float64, lda int, x, y []float64) {
	for j := 0; j < n; j++ {
		y[j] = fma(alpha, dotGo(m, a[j*lda:], x), y[j])
	}
}

// gerGo computes A += alpha·x[:m]·y[:n]ᵀ.
func gerGo(m, n int, alpha float64, x, y, a []float64, lda int) {
	for j := 0; j < n; j++ {
		axpyGo(m, alpha*y[j], x, a[j*lda:])
	}
}

// symvLGo computes y[:n] += alpha·A·x[:n] for the symmetric matrix whose
// lower triangle is stored in a: one pass over stored column c serves the
// column (an axpy into y below the diagonal) and its mirrored row (a dot
// product with x, added to y[c]).
func symvLGo(n int, alpha float64, a []float64, lda int, x, y []float64) {
	x, y = x[:n], y[:n]
	for c := 0; c < n; c++ {
		col := a[c*lda : c*lda+n]
		t := alpha * x[c]
		y[c] = fma(t, col[c], y[c])
		var s0, s1, s2, s3 float64
		i := c + 1
		for top := min(c&^3+4, n); i < top; i++ {
			y[i] = fma(t, col[i], y[i])
			s0 = fma(col[i], x[i], s0)
		}
		for ; i+3 < n; i += 4 {
			y[i] = fma(t, col[i], y[i])
			y[i+1] = fma(t, col[i+1], y[i+1])
			y[i+2] = fma(t, col[i+2], y[i+2])
			y[i+3] = fma(t, col[i+3], y[i+3])
			s0 = fma(col[i], x[i], s0)
			s1 = fma(col[i+1], x[i+1], s1)
			s2 = fma(col[i+2], x[i+2], s2)
			s3 = fma(col[i+3], x[i+3], s3)
		}
		r := (s0 + s1) + (s2 + s3)
		for ; i < n; i++ {
			y[i] = fma(t, col[i], y[i])
			r = fma(col[i], x[i], r)
		}
		y[c] = fma(alpha, r, y[c])
	}
}

// symvLHeadGo computes y[:r] += alpha·(A·x)[:r], the leading r rows of
// symvLGo's product, with the bits symvLGo gives them; r is a multiple of 4
// and at most n. It makes symvLGo's passes over the stored columns c < r with
// the axpy stopped at row r, while the mirrored-row dot products still run to
// row n in symvLGo's lanes: r is a multiple of 4, so the rows from r on fall
// in the same whole quads.
func symvLHeadGo(n, r int, alpha float64, a []float64, lda int, x, y []float64) {
	x, y = x[:n], y[:r]
	for c := 0; c < r; c++ {
		col := a[c*lda : c*lda+n]
		t := alpha * x[c]
		y[c] = fma(t, col[c], y[c])
		var s0, s1, s2, s3 float64
		i := c + 1
		for top := c&^3 + 4; i < top; i++ {
			y[i] = fma(t, col[i], y[i])
			s0 = fma(col[i], x[i], s0)
		}
		for ; i < r; i += 4 {
			y[i] = fma(t, col[i], y[i])
			y[i+1] = fma(t, col[i+1], y[i+1])
			y[i+2] = fma(t, col[i+2], y[i+2])
			y[i+3] = fma(t, col[i+3], y[i+3])
			s0 = fma(col[i], x[i], s0)
			s1 = fma(col[i+1], x[i+1], s1)
			s2 = fma(col[i+2], x[i+2], s2)
			s3 = fma(col[i+3], x[i+3], s3)
		}
		for ; i+3 < n; i += 4 {
			s0 = fma(col[i], x[i], s0)
			s1 = fma(col[i+1], x[i+1], s1)
			s2 = fma(col[i+2], x[i+2], s2)
			s3 = fma(col[i+3], x[i+3], s3)
		}
		sum := (s0 + s1) + (s2 + s3)
		for ; i < n; i++ {
			sum = fma(col[i], x[i], sum)
		}
		y[c] = fma(alpha, sum, y[c])
	}
}

// syr2LGo computes A += alpha·(x·yᵀ + y·xᵀ) on the lower triangle of the
// order-n matrix a: a[i,j] = fma(y[i], alpha·x[j], fma(x[i], alpha·y[j], a[i,j])).
func syr2LGo(n int, alpha float64, x, y, a []float64, lda int) {
	x, y = x[:n], y[:n]
	for j := 0; j < n; j++ {
		col := a[j*lda : j*lda+n]
		t1, t2 := alpha*y[j], alpha*x[j]
		for i := j; i < n; i++ {
			col[i] = fma(y[i], t2, fma(x[i], t1, col[i]))
		}
	}
}
