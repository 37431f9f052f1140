// Package matrix provides the storage containers the eigensolver operates
// on: column-major dense matrices, packed symmetric band matrices, and the
// tile layout used by the DAG-scheduled stage-1 reduction together with a
// Data Translation Layer (DTL) that converts between the standard LAPACK
// layout and tiles, mirroring the layout machinery of the PLASMA runtime
// the paper builds on.
package matrix

import (
	"fmt"
	"math"
)

// Dense is a column-major matrix view: element (i, j) is Data[i+j*Stride].
// A Dense may alias another matrix's storage (see View).
type Dense struct {
	Rows, Cols int
	Stride     int
	Data       []float64
}

// NewDense allocates a zeroed r×c column-major matrix with Stride == r.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic("matrix: negative dimension")
	}
	return &Dense{Rows: r, Cols: c, Stride: max(1, r), Data: make([]float64, r*c)}
}

// NewDenseFrom wraps existing column-major data without copying.
func NewDenseFrom(r, c, stride int, data []float64) *Dense {
	if stride < max(1, r) {
		panic("matrix: stride smaller than row count")
	}
	if c > 0 && len(data) < (c-1)*stride+r {
		panic("matrix: data slice too short")
	}
	return &Dense{Rows: r, Cols: c, Stride: stride, Data: data}
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Data[i+i*m.Stride] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.Data[i+j*m.Stride]
}

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.Data[i+j*m.Stride] = v
}

func (m *Dense) boundsCheck(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// View returns a view of the r×c submatrix whose top-left corner is (i, j).
// The view shares storage with m.
func (m *Dense) View(i, j, r, c int) *Dense {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > m.Rows || j+c > m.Cols {
		panic("matrix: view out of range")
	}
	return &Dense{Rows: r, Cols: c, Stride: m.Stride, Data: m.Data[i+j*m.Stride:]}
}

// Clone returns a compact deep copy of m (Stride == Rows).
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	for j := 0; j < m.Cols; j++ {
		copy(out.Data[j*out.Stride:j*out.Stride+m.Rows], m.Data[j*m.Stride:j*m.Stride+m.Rows])
	}
	return out
}

// CopyFrom copies the contents of src (same shape) into m.
func (m *Dense) CopyFrom(src *Dense) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("matrix: shape mismatch in CopyFrom")
	}
	for j := 0; j < m.Cols; j++ {
		copy(m.Data[j*m.Stride:j*m.Stride+m.Rows], src.Data[j*src.Stride:j*src.Stride+src.Rows])
	}
}

// Transpose returns a newly allocated mᵀ.
func (m *Dense) Transpose() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			out.Data[j+i*out.Stride] = m.Data[i+j*m.Stride]
		}
	}
	return out
}

// Symmetrize mirrors the lower triangle into the upper triangle in place,
// making m exactly symmetric. m must be square.
func (m *Dense) Symmetrize() {
	if m.Rows != m.Cols {
		panic("matrix: Symmetrize requires a square matrix")
	}
	for j := 0; j < m.Cols; j++ {
		for i := j + 1; i < m.Rows; i++ {
			m.Data[j+i*m.Stride] = m.Data[i+j*m.Stride]
		}
	}
}

// FrobeniusNorm returns ‖m‖_F.
func (m *Dense) FrobeniusNorm() float64 {
	scale, ssq := 0.0, 1.0
	for j := 0; j < m.Cols; j++ {
		col := m.Data[j*m.Stride : j*m.Stride+m.Rows]
		for _, v := range col {
			if v == 0 {
				continue
			}
			av := math.Abs(v)
			if scale < av {
				r := scale / av
				ssq = 1 + ssq*r*r
				scale = av
			} else {
				r := av / scale
				ssq += r * r
			}
		}
	}
	return scale * math.Sqrt(ssq)
}

// MaxAbs returns max |m_ij|.
func (m *Dense) MaxAbs() float64 {
	var best float64
	for j := 0; j < m.Cols; j++ {
		col := m.Data[j*m.Stride : j*m.Stride+m.Rows]
		for _, v := range col {
			if av := math.Abs(v); av > best {
				best = av
			}
		}
	}
	return best
}

// Equalish reports whether all elements of m and b differ by at most tol.
func (m *Dense) Equalish(b *Dense, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			if math.Abs(m.Data[i+j*m.Stride]-b.Data[i+j*b.Stride]) > tol {
				return false
			}
		}
	}
	return true
}

// IsSymmetric reports whether |m_ij − m_ji| ≤ tol for all i, j.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for j := 0; j < m.Cols; j++ {
		for i := j + 1; i < m.Rows; i++ {
			if math.Abs(m.Data[i+j*m.Stride]-m.Data[j+i*m.Stride]) > tol {
				return false
			}
		}
	}
	return true
}

// String renders small matrices for debugging.
func (m *Dense) String() string {
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("%10.4f ", m.Data[i+j*m.Stride])
		}
		s += "\n"
	}
	return s
}
