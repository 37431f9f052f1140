package blas

// The seven unit-stride Level-1/2 kernels under Ddot, Daxpy, Dgemv, Dger,
// Dsymv(Lower) and Dsyr2(Lower). On amd64 with AVX2 each runs as assembly
// (level_asm_amd64.{go,s}); the functions in this file are their portable
// twins — what every other machine runs, and the definition of the result:
// assembly and twin agree bit for bit, so a kernel's result never depends on
// which of the two ran. Three rules make that possible.
//
//   - Multiply and add are separate, separately rounded operations. The
//     assembly uses VMULPD/VADDPD, never FMA; the twins write float64(a*b),
//     which forbids the compiler to fuse (arm64 otherwise would).
//   - An element that is updated (y in gemvN and symvL, A in ger and syr2L)
//     receives its terms one at a time in ascending column order, whatever the
//     kernel's column blocking: y[i] = ((y[i] + t₀·a[i,0]) + t₁·a[i,1]) + …
//   - A column reduced against a vector (dot, gemvT, the mirrored-row half of
//     symvL) is summed in four lanes: lane l takes rows l, l+4, l+8, … of the
//     column's whole quads, the lanes combine as (s₀+s₁)+(s₂+s₃), and the
//     rows after the last whole quad are then added one at a time. symvL
//     counts quads from the first row below its 4×4 diagonal block; the rows
//     of a column inside that block (and every row of a last group of fewer
//     than four columns) go to lane 0 before the quads start.
//
// The assembly blocks four columns per pass — four dot products share each
// load of x, four axpys share each load and store of y — which the rules above
// make invisible in the result, so the twins keep one column per pass.
// All operands are dense in memory order: a is column-major with lda ≥ rows.

// dotGo returns x[:n]·y[:n].
func dotGo(n int, x, y []float64) float64 {
	x, y = x[:n], y[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < n; i += 4 {
		s0 += float64(x[i] * y[i])
		s1 += float64(x[i+1] * y[i+1])
		s2 += float64(x[i+2] * y[i+2])
		s3 += float64(x[i+3] * y[i+3])
	}
	r := (s0 + s1) + (s2 + s3)
	for ; i < n; i++ {
		r += float64(x[i] * y[i])
	}
	return r
}

// axpyGo computes y[:n] += alpha·x[:n].
func axpyGo(n int, alpha float64, x, y []float64) {
	y = y[:n]
	for i, v := range x[:n] {
		y[i] += float64(alpha * v)
	}
}

// gemvNGo computes y[:m] += alpha·A·x for the m×n matrix a.
func gemvNGo(m, n int, alpha float64, a []float64, lda int, x, y []float64) {
	for j := 0; j < n; j++ {
		axpyGo(m, float64(alpha*x[j]), a[j*lda:], y)
	}
}

// gemvTGo computes y[j] += alpha·(A(:, j)·x[:m]) for the n columns of a.
func gemvTGo(m, n int, alpha float64, a []float64, lda int, x, y []float64) {
	for j := 0; j < n; j++ {
		y[j] += float64(alpha * dotGo(m, a[j*lda:], x))
	}
}

// gerGo computes A += alpha·x[:m]·y[:n]ᵀ.
func gerGo(m, n int, alpha float64, x, y, a []float64, lda int) {
	for j := 0; j < n; j++ {
		axpyGo(m, float64(alpha*y[j]), x, a[j*lda:])
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
		t := float64(alpha * x[c])
		y[c] += float64(t * col[c])
		var s0, s1, s2, s3 float64
		i := c + 1
		for top := min(c&^3+4, n); i < top; i++ {
			y[i] += float64(t * col[i])
			s0 += float64(col[i] * x[i])
		}
		for ; i+3 < n; i += 4 {
			y[i] += float64(t * col[i])
			y[i+1] += float64(t * col[i+1])
			y[i+2] += float64(t * col[i+2])
			y[i+3] += float64(t * col[i+3])
			s0 += float64(col[i] * x[i])
			s1 += float64(col[i+1] * x[i+1])
			s2 += float64(col[i+2] * x[i+2])
			s3 += float64(col[i+3] * x[i+3])
		}
		r := (s0 + s1) + (s2 + s3)
		for ; i < n; i++ {
			y[i] += float64(t * col[i])
			r += float64(col[i] * x[i])
		}
		y[c] += float64(alpha * r)
	}
}

// syr2LGo computes A += alpha·(x·yᵀ + y·xᵀ) on the lower triangle of the
// order-n matrix a: a[i,j] += x[i]·(alpha·y[j]) + y[i]·(alpha·x[j]), the two
// products summed first.
func syr2LGo(n int, alpha float64, x, y, a []float64, lda int) {
	x, y = x[:n], y[:n]
	for j := 0; j < n; j++ {
		col := a[j*lda : j*lda+n]
		t1, t2 := float64(alpha*y[j]), float64(alpha*x[j])
		for i := j; i < n; i++ {
			col[i] += float64(x[i]*t1) + float64(y[i]*t2)
		}
	}
}
