package matrix

import "fmt"

// SymBand is a symmetric band matrix stored in LAPACK lower band layout:
// only the main diagonal and KD subdiagonals are kept. Element (i, j) with
// j ≤ i ≤ j+KD is stored at Data[(i-j) + j*LDA] where LDA ≥ KD+1. The upper
// triangle is implied by symmetry.
type SymBand struct {
	N    int // matrix order
	KD   int // number of subdiagonals retained
	LDA  int // leading dimension of band storage (≥ KD+1)
	Data []float64
}

// NewSymBand allocates a zeroed n×n symmetric band matrix with kd
// subdiagonals.
func NewSymBand(n, kd int) *SymBand {
	if n < 0 || kd < 0 {
		panic("matrix: negative band dimension")
	}
	if kd >= n && n > 0 {
		kd = n - 1
	}
	return &SymBand{N: n, KD: kd, LDA: kd + 1, Data: make([]float64, (kd+1)*n)}
}

// At returns element (i, j), using symmetry for the upper triangle and zero
// outside the band.
func (b *SymBand) At(i, j int) float64 {
	if i < 0 || i >= b.N || j < 0 || j >= b.N {
		panic(fmt.Sprintf("matrix: band index (%d,%d) out of range %d", i, j, b.N))
	}
	if i < j {
		i, j = j, i
	}
	if i-j > b.KD {
		return 0
	}
	return b.Data[(i-j)+j*b.LDA]
}

// Set assigns element (i, j) (and implicitly (j, i)). Setting an element
// outside the band panics.
func (b *SymBand) Set(i, j int, v float64) {
	if i < j {
		i, j = j, i
	}
	if i-j > b.KD || i >= b.N || j < 0 {
		panic(fmt.Sprintf("matrix: band set (%d,%d) outside band kd=%d n=%d", i, j, b.KD, b.N))
	}
	b.Data[(i-j)+j*b.LDA] = v
}

// Clone returns a deep copy of b.
func (b *SymBand) Clone() *SymBand {
	out := &SymBand{N: b.N, KD: b.KD, LDA: b.LDA, Data: make([]float64, len(b.Data))}
	copy(out.Data, b.Data)
	return out
}

// ToDense expands the band matrix to a full symmetric dense matrix.
func (b *SymBand) ToDense() *Dense {
	m := NewDense(b.N, b.N)
	for j := 0; j < b.N; j++ {
		for i := j; i <= min(b.N-1, j+b.KD); i++ {
			v := b.Data[(i-j)+j*b.LDA]
			m.Data[i+j*m.Stride] = v
			m.Data[j+i*m.Stride] = v
		}
	}
	return m
}

// SymBandFromDense extracts the lower band of width kd from a symmetric
// dense matrix (only the lower triangle of d is read).
func SymBandFromDense(d *Dense, kd int) *SymBand {
	if d.Rows != d.Cols {
		panic("matrix: SymBandFromDense requires a square matrix")
	}
	b := NewSymBand(d.Rows, kd)
	for j := 0; j < b.N; j++ {
		for i := j; i <= min(b.N-1, j+b.KD); i++ {
			b.Data[(i-j)+j*b.LDA] = d.Data[i+j*d.Stride]
		}
	}
	return b
}

// Tridiagonal holds the diagonal and subdiagonal of a symmetric tridiagonal
// matrix: D has length n, E has length n−1 (E[i] couples rows i and i+1).
type Tridiagonal struct {
	D []float64
	E []float64
}

// NewTridiagonal allocates a zero tridiagonal matrix of order n.
func NewTridiagonal(n int) *Tridiagonal {
	e := 0
	if n > 1 {
		e = n - 1
	}
	return &Tridiagonal{D: make([]float64, n), E: make([]float64, e)}
}

// N returns the matrix order.
func (t *Tridiagonal) N() int { return len(t.D) }

// Clone returns a deep copy.
func (t *Tridiagonal) Clone() *Tridiagonal {
	out := &Tridiagonal{D: append([]float64(nil), t.D...), E: append([]float64(nil), t.E...)}
	return out
}

// ToDense expands to a full dense symmetric tridiagonal matrix.
func (t *Tridiagonal) ToDense() *Dense {
	n := t.N()
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, t.D[i])
		if i+1 < n {
			m.Set(i+1, i, t.E[i])
			m.Set(i, i+1, t.E[i])
		}
	}
	return m
}

// TridiagonalFromBand extracts the tridiagonal part of a band matrix with
// KD ≥ 1 (or KD = 0, in which case E is zero).
func TridiagonalFromBand(b *SymBand) *Tridiagonal {
	t := NewTridiagonal(b.N)
	for i := 0; i < b.N; i++ {
		t.D[i] = b.At(i, i)
		if i+1 < b.N {
			t.E[i] = b.At(i+1, i)
		}
	}
	return t
}
