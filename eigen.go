// Package eigen is a pure-Go solver for the dense symmetric eigenvalue
// problem built around the two-stage tridiagonalization algorithm of
// Haidar, Luszczek and Dongarra ("New Algorithm for Computing Eigenvectors
// of the Symmetric Eigenvalue Problem", IPPS 2014): reduction to band form
// with DAG-scheduled tile kernels, cache-aware bulge chasing to tridiagonal
// form, a choice of tridiagonal eigensolvers, and the blocked two-factor
// back-transformation Z = Q₁·Q₂·E that makes eigenvectors affordable in the
// two-stage setting.
//
// # Quick start
//
//	a := eigen.NewMatrix(n)
//	// fill the matrix: a.SetSym(i, j, v) sets both (i,j) and (j,i)
//	res, err := eigen.Eig(a, nil)
//	// res.Values — ascending eigenvalues; res.Vectors.Col(k) — eigenvector k
//
// The classic one-stage algorithm (LAPACK DSYEVD-style) is available as a
// baseline via Options.Algorithm; the benchmark in this repository
// (benchmark/, the onestage_dc_1024 workload) times it as the denominator of
// the paper's Figure 4 speedup.
package eigen

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Method selects the tridiagonal eigensolver used in phase 2, mirroring the
// three LAPACK drivers compared in the paper.
type Method int

const (
	// DivideAndConquer is Cuppen's method with deflation (DSYEVD); the
	// default and usually the fastest for the full spectrum.
	DivideAndConquer Method = iota
	// BisectionInverseIteration computes eigenvalues by bisection and
	// vectors by inverse iteration; it is O(n²) in the tridiagonal phase
	// and the only method that computes strictly a subset (the stand-in
	// for MRRR/DSYEVR — see DESIGN.md).
	BisectionInverseIteration
	// QRIteration is implicit QL/QR with accumulated rotations (DSYEV).
	QRIteration
)

// Algorithm selects the reduction pipeline.
type Algorithm int

const (
	// TwoStage is the paper's algorithm: tile reduction to band, bulge
	// chasing, two-factor back-transformation.
	TwoStage Algorithm = iota
	// OneStage is the classic direct tridiagonalization (memory-bound);
	// provided as the comparison baseline.
	OneStage
)

// Options tune the solver. The zero value (or a nil *Options) requests the
// two-stage algorithm, divide & conquer, default block sizes, sequential
// execution.
type Options struct {
	// Algorithm selects the reduction pipeline (default TwoStage).
	Algorithm Algorithm
	// Method selects the tridiagonal eigensolver (default DivideAndConquer).
	Method Method
	// NB is the tile size/bandwidth (two-stage) or panel width (one-stage);
	// 0 picks the built-in default, 48 for the two-stage pipeline and 32 for
	// the one-stage one. It is the one block size a caller sets: the
	// back-transformation's column blocks and diamond groups are derived
	// from it and the worker count, and stage 1 looks two panels ahead.
	// NB selects a different (equally valid) factorization, so changing it
	// changes the computed eigenvector basis in the last bits.
	NB int
	// Workers sets the task-scheduler width; 0 or 1 runs sequentially.
	// Values above sched.MaxWorkers (64) are clamped to 64; negative values
	// run sequentially. Every stage's tasks may run on any worker.
	Workers int
	// Collector, when non-nil, receives per-phase timings and per-kernel
	// flop counts. Batch solves attribute work per item into child
	// collectors and merge them here (see BatchResult.Trace).
	Collector *trace.Collector
	// MemoryBudget caps the bytes of workspace the Solver's arena pool
	// retains across solves, and — during SolveBatch — the estimated
	// footprint of concurrently admitted solves. 0 means unlimited.
	MemoryBudget int64
	// BatchConcurrency caps how many batch items SolveBatch runs at once;
	// 0 picks the scheduler width (Workers, or 1 for a sequential Solver).
	BatchConcurrency int
}

// normalize clamps out-of-range option values in place so that invalid
// settings degrade to the nearest sane configuration instead of panicking in
// internal layers (the scheduler hard-caps worker counts at
// sched.MaxWorkers).
func (o *Options) normalize() {
	if o.Workers < 0 {
		o.Workers = 0
	}
	if o.Workers > sched.MaxWorkers {
		o.Workers = sched.MaxWorkers
	}
	if o.NB < 0 {
		o.NB = 0
	}
	if o.MemoryBudget < 0 {
		o.MemoryBudget = 0
	}
	if o.BatchConcurrency < 0 {
		o.BatchConcurrency = 0
	}
}

func (o *Options) toCore(vectors bool, il, iu int) core.Options {
	var c core.Options
	if o != nil {
		c.NB = o.NB
		c.Collector = o.Collector
		switch o.Method {
		case BisectionInverseIteration:
			c.Method = core.MethodBI
		case QRIteration:
			c.Method = core.MethodQR
		default:
			c.Method = core.MethodDC
		}
	}
	c.Vectors = vectors
	c.IL, c.IU = il, iu
	return c
}

// Result holds the output of an eigensolve.
type Result struct {
	// Values are the computed eigenvalues in ascending order.
	Values []float64
	// Vectors holds the matching eigenvectors in its columns (nil when only
	// values were requested). Column k pairs with Values[k].
	Vectors *Matrix
}

// Eig computes all eigenvalues and eigenvectors of the symmetric matrix a.
// Each call is one-shot: it builds a transient Solver, solves, and tears it
// down. Code that solves repeatedly should hold a Solver instead to reuse
// its workers and workspace.
func Eig(a *Matrix, opts *Options) (*Result, error) {
	s := NewSolver(opts)
	defer s.Close()
	return s.Eig(a)
}

// EigValues computes all eigenvalues of a (no vectors).
func EigValues(a *Matrix, opts *Options) ([]float64, error) {
	s := NewSolver(opts)
	defer s.Close()
	return s.EigValues(a)
}

// EigRange computes eigenpairs il through iu (1-based, ascending,
// inclusive) — the paper's partial-spectrum scenario (fraction f = k/n).
// With Method BisectionInverseIteration only the requested pairs are
// computed; the other methods compute the full decomposition and return the
// slice.
func EigRange(a *Matrix, il, iu int, opts *Options) (*Result, error) {
	s := NewSolver(opts)
	defer s.Close()
	return s.EigRange(a, il, iu)
}

// EigValuesRange computes eigenvalues il through iu only.
func EigValuesRange(a *Matrix, il, iu int, opts *Options) ([]float64, error) {
	s := NewSolver(opts)
	defer s.Close()
	return s.EigValuesRange(a, il, iu)
}

// symTol is the relative asymmetry allowed in the input before Eig refuses
// it (guards against accidentally passing a non-symmetric matrix; only the
// average of a_ij and a_ji would be solved otherwise).
const symTol = 1e-10

// Matrix is a column-major, dense matrix. For eigensolves it must be square
// and symmetric; eigenvector results are returned as n×k matrices.
type Matrix struct {
	r, c int
	data []float64
}

// NewMatrix allocates a zero n×n matrix.
func NewMatrix(n int) *Matrix {
	if n < 0 {
		panic("eigen: negative size")
	}
	return &Matrix{r: n, c: n, data: make([]float64, n*n)}
}

// NewMatrixRect allocates a zero rows×cols matrix. Rectangular matrices are
// not valid eigensolve inputs (those must be square and symmetric); the
// constructor exists for eigenvector blocks — an n×k destination for a range
// solve, or a client-side reconstruction of an n×k result received over the
// wire (see the client package).
func NewMatrixRect(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("eigen: negative size")
	}
	return &Matrix{r: rows, c: cols, data: make([]float64, rows*cols)}
}

// NewMatrixFrom builds an n×n matrix from row-major data (convenient for
// literals in examples and tests).
func NewMatrixFrom(n int, rowMajor []float64) *Matrix {
	if len(rowMajor) != n*n {
		panic("eigen: data length mismatch")
	}
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, rowMajor[i*n+j])
		}
	}
	return m
}

// fromDense wraps a solver-owned result matrix as a Matrix. A contiguous
// column-major matrix (stride == rows) is adopted without copying — the
// solvers hand over freshly allocated, caller-owned storage, so the extra
// copy the old code made here was pure waste. Strided views still copy.
func fromDense(d *matrix.Dense) *Matrix {
	if d.Stride == d.Rows || d.Rows == 0 || d.Cols <= 1 {
		n := d.Rows * d.Cols
		return &Matrix{r: d.Rows, c: d.Cols, data: d.Data[:n:n]}
	}
	m := &Matrix{r: d.Rows, c: d.Cols, data: make([]float64, d.Rows*d.Cols)}
	for j := 0; j < d.Cols; j++ {
		copy(m.data[j*m.r:j*m.r+m.r], d.Data[j*d.Stride:j*d.Stride+d.Rows])
	}
	return m
}

// Dims returns the matrix dimensions.
func (m *Matrix) Dims() (rows, cols int) { return m.r, m.c }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i+j*m.r]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i+j*m.r] = v
}

// SetSym assigns both (i, j) and (j, i), keeping the matrix symmetric.
func (m *Matrix) SetSym(i, j int, v float64) {
	m.Set(i, j, v)
	if i != j {
		m.Set(j, i, v)
	}
}

// Col returns a copy of column j (for eigenvector results, the j-th
// eigenvector).
func (m *Matrix) Col(j int) []float64 {
	m.check(0, j)
	out := make([]float64, m.r)
	copy(out, m.data[j*m.r:j*m.r+m.r])
	return out
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.r || j < 0 || j >= m.c {
		panic(fmt.Sprintf("eigen: index (%d,%d) out of %d×%d", i, j, m.r, m.c))
	}
}
