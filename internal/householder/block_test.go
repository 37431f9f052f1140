package householder

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/matrix"
)

// denseH builds the full m×m matrix H = H_0·H_1⋯H_{k-1} one elementary
// reflector at a time from stored V, tau — the explicit-H reference every
// Block result is compared against.
func denseH(m, k int, v []float64, tau []float64) *matrix.Dense {
	h := matrix.Eye(m)
	work := make([]float64, m)
	for j := 0; j < k; j++ {
		vj := make([]float64, m)
		vj[j] = 1
		for i := j + 1; i < m; i++ {
			vj[i] = v[i+j*m]
		}
		// h := h · H_j  (applying from the right accumulates the product in
		// order H_0 H_1 ... H_{k-1}).
		Larf(blas.Right, m, m, vj, 1, tau[j], h.Data, h.Stride, work)
	}
	return h
}

// naiveMul returns op(A)·B (left) or B·op(A) (right) for the square A by the
// textbook triple loop, independent of the packed kernels under test.
func naiveMul(side blas.Side, trans blas.Transpose, a, b *matrix.Dense) *matrix.Dense {
	at := func(i, j int) float64 {
		if trans == blas.Trans {
			return a.At(j, i)
		}
		return a.At(i, j)
	}
	out := matrix.NewDense(b.Rows, b.Cols)
	for i := 0; i < b.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			if side == blas.Left {
				for l := 0; l < b.Rows; l++ {
					s += at(i, l) * b.At(l, j)
				}
			} else {
				for l := 0; l < b.Cols; l++ {
					s += b.At(i, l) * at(l, j)
				}
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// testBlock is a random block reflector in both representations: the
// prepared Block and the explicit order-(top+rows) matrix H.
type testBlock struct {
	ts      bool
	rows, k int
	blk     Block
	h       *matrix.Dense
}

// order is the order of H: the TS shape carries its k identity rows on top.
func (tb *testBlock) order() int {
	if tb.ts {
		return tb.k + tb.rows
	}
	return tb.rows
}

func newTestBlock(rng *rand.Rand, ts bool, rows, k int, forms Form) *testBlock {
	return newBandedBlock(rng, ts, rows, k, rows, forms)
}

// newBandedBlock is newTestBlock with reflectors of length at most reach: the
// triangular-top V is then banded like a Q₂ diamond's, whose reflector j
// spans rows j..j+reach-1 of the aggregated block.
func newBandedBlock(rng *rand.Rand, ts bool, rows, k, reach int, forms Form) *testBlock {
	tb := &testBlock{ts: ts, rows: rows, k: k}
	m := tb.order()
	var stack, tau []float64
	if ts {
		// [I; V2] is unit lower trapezoidal with a zero strictly-lower top
		// block, so Larft and denseH take it as is.
		stack = make([]float64, m*k)
		tau = make([]float64, k)
		for j := 0; j < k; j++ {
			nrm := 1.0
			for i := 0; i < rows; i++ {
				x := rng.NormFloat64()
				stack[k+i+j*m] = x
				nrm += x * x
			}
			tau[j] = 2 / nrm
		}
	} else {
		stack, tau = buildVT(rng, m, k)
		for j := 0; j < k; j++ {
			nrm := 1.0
			for i := j + 1; i < m; i++ {
				if i >= j+reach {
					stack[i+j*m] = 0
				}
				nrm += stack[i+j*m] * stack[i+j*m]
			}
			tau[j] = 2 / nrm
		}
	}
	t := make([]float64, k*k)
	Larft(m, k, stack, m, tau, t, k)
	// Garbage below T's diagonal must not be read.
	for j := 0; j < k; j++ {
		for i := j + 1; i < k; i++ {
			t[i+j*k] = math.NaN()
		}
	}
	v := stack
	if ts {
		v = stack[k:]
	}
	store := make([]float64, PackedLen(ts, rows, k, forms))
	tb.blk.Prepare(ts, rows, k, v, m, t, k, forms, store, make([]float64, PrepareWork(rows, k)))
	tb.h = denseH(m, k, stack, tau)
	return tb
}

// apply runs the Block on c (order×n for Left, n×order for Right).
func (tb *testBlock) apply(side blas.Side, trans blas.Transpose, c *matrix.Dense) {
	n := c.Cols
	if side == blas.Right {
		n = c.Rows
	}
	work := make([]float64, ApplyWork(side, tb.rows, tb.k, n))
	switch {
	case !tb.ts:
		tb.blk.Apply(side, trans, n, c.Data, c.Stride, work)
	case side == blas.Left:
		tb.blk.ApplyTS(side, trans, n, c.Data, c.Stride, c.Data[tb.k:], c.Stride, work)
	default:
		tb.blk.ApplyTS(side, trans, n, c.Data, c.Stride, c.Data[tb.k*c.Stride:], c.Stride, work)
	}
}

func randDense(rng *rand.Rand, r, c int) *matrix.Dense {
	d := matrix.NewDense(r, c)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return d
}

func maxAbsDiff(a, b *matrix.Dense) float64 {
	var d float64
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			d = math.Max(d, math.Abs(a.At(i, j)-b.At(i, j)))
		}
	}
	return d
}

// forEachKernel runs f on the kernels the CPU probe selected (an assembly
// layout unless blas.GemmKernel() is "portable"; the tests log which) and
// then on the portable ones, so that the stream layout stays tested on an
// assembly host.
func forEachKernel(f func(kernel string)) {
	if k := blas.GemmKernel(); k != "portable" {
		f(k)
	}
	defer blas.UseAsm(blas.UseAsm(false))
	f("portable")
}

// TestBlockAgainstExplicitH is the property test: over ragged shapes — rows
// not a multiple of any tile height (so the assembly layout pads its last
// panel), k from 1 to a full tile, a column fringe, rows and k above KC (the
// chunked operands and the repacked W) — both sides, both forms and both
// shapes must match the explicitly formed H to a c·rows·ε budget, on every
// kernel.
func TestBlockAgainstExplicitH(t *testing.T) {
	t.Logf("blas.GemmKernel() = %s", blas.GemmKernel())
	type shape struct {
		ts      bool
		rows, k int
	}
	shapes := []shape{
		{false, 1, 1}, {false, 7, 5}, {false, 9, 4}, {false, 12, 12}, {false, 13, 12}, {false, 59, 12},
		{false, 63, 16}, {false, 48, 48}, {false, 131, 48}, {false, 150, 12}, {false, 150, 131},
		{true, 1, 1}, {true, 5, 5}, {true, 9, 7}, {true, 33, 12}, {true, 47, 16}, {true, 48, 48}, {true, 150, 5},
		{true, 133, 130},
	}
	const eps = 0x1p-52
	forEachKernel(func(kernel string) {
		rng := rand.New(rand.NewSource(7))
		for _, sh := range shapes {
			tb := newTestBlock(rng, sh.ts, sh.rows, sh.k, FormH|FormHT)
			m := tb.order()
			for _, n := range []int{1, 3, 5, 16, 37} {
				for _, side := range []blas.Side{blas.Left, blas.Right} {
					c := randDense(rng, m, n)
					if side == blas.Right {
						c = randDense(rng, n, m)
					}
					for _, tr := range []blas.Transpose{blas.NoTrans, blas.Trans} {
						want := naiveMul(side, tr, tb.h, c)
						got := c.Clone()
						tb.apply(side, tr, got)
						// ‖op(H)‖₂ = 1, entries of C are O(1): the error
						// is a modest multiple of order·ε.
						if d, tol := maxAbsDiff(got, want), 32*float64(m)*eps; d > tol {
							t.Fatalf("%s kernel ts=%v rows=%d k=%d n=%d side=%c trans=%c: max diff %g > %g",
								kernel, sh.ts, sh.rows, sh.k, n, side, tr, d, tol)
						}
					}
				}
			}
		}
	})
}

// TestBlockColumnSplitBitwise pins the property that keeps every parallel
// applier identical to the sequential one and lets the column-block width be
// retuned freely: each result column is bitwise the same whatever column
// blocks C is cut into, and whichever kernel runs — also with rows and k
// above KC, where the operands are chunked and W is repacked.
func TestBlockColumnSplitBitwise(t *testing.T) {
	t.Logf("blas.GemmKernel() = %s", blas.GemmKernel())
	const n = 67
	for _, sh := range []struct {
		ts      bool
		rows, k int
	}{
		{false, 59, 12}, {true, 48, 48}, {false, 150, 131}, {true, 133, 130},
	} {
		ts, rows, k := sh.ts, sh.rows, sh.k
		var ref *matrix.Dense
		forEachKernel(func(kernel string) {
			rng := rand.New(rand.NewSource(11))
			tb := newTestBlock(rng, ts, rows, k, FormH)
			c := randDense(rng, tb.order(), n)
			whole := c.Clone()
			tb.apply(blas.Left, blas.NoTrans, whole)
			if ref == nil {
				ref = whole
			} else if maxAbsDiff(whole, ref) != 0 {
				t.Fatalf("ts=%v rows=%d k=%d: the %s kernel's result differs", ts, rows, k, kernel)
			}
			for trial := 0; trial < 8; trial++ {
				got := c.Clone()
				for j0 := 0; j0 < n; {
					jb := 1 + rng.Intn(n-j0)
					tb.apply(blas.Left, blas.NoTrans, got.View(0, j0, got.Rows, jb))
					j0 += jb
				}
				if maxAbsDiff(got, whole) != 0 {
					t.Fatalf("ts=%v rows=%d k=%d %s kernel: column split changed the result", ts, rows, k, kernel)
				}
			}
		})
	}
}

// TestBlockInverse applies H then Hᵀ and must recover C: the two prepared
// forms belong to one orthogonal matrix.
func TestBlockInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, ts := range []bool{false, true} {
		tb := newTestBlock(rng, ts, 11, 4, FormH|FormHT)
		c := randDense(rng, tb.order(), 6)
		got := c.Clone()
		tb.apply(blas.Left, blas.NoTrans, got)
		tb.apply(blas.Left, blas.Trans, got)
		if !got.Equalish(c, 1e-13) {
			t.Fatalf("ts=%v: Hᵀ·H·C != C", ts)
		}
	}
}

func TestBlockDegenerate(t *testing.T) {
	// Empty shapes are no-ops; an unprepared form is a caller bug.
	var b Block
	b.Prepare(false, 0, 0, nil, 1, nil, 1, FormH, nil, nil)
	b.Apply(blas.Left, blas.NoTrans, 3, nil, 1, nil)
	b.Apply(blas.Right, blas.Trans, 3, nil, 3, nil)

	tb := newTestBlock(rand.New(rand.NewSource(1)), false, 6, 2, FormH)
	tb.apply(blas.Left, blas.NoTrans, matrix.NewDense(6, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("applying an unprepared form did not panic")
		}
	}()
	tb.apply(blas.Left, blas.Trans, matrix.NewDense(6, 1))
}

func TestBlockApplyAllocs(t *testing.T) {
	t.Logf("blas.GemmKernel() = %s", blas.GemmKernel())
	rng := rand.New(rand.NewSource(3))
	for _, ts := range []bool{false, true} {
		tb := newTestBlock(rng, ts, 59, 12, FormH|FormHT)
		for _, side := range []blas.Side{blas.Left, blas.Right} {
			c := randDense(rng, tb.order(), tb.order())
			work := make([]float64, ApplyWork(side, tb.rows, tb.k, c.Cols))
			allocs := testing.AllocsPerRun(20, func() {
				if ts {
					if side == blas.Left {
						tb.blk.ApplyTS(side, blas.NoTrans, c.Cols, c.Data, c.Stride, c.Data[tb.k:], c.Stride, work)
					} else {
						tb.blk.ApplyTS(side, blas.Trans, c.Rows, c.Data, c.Stride, c.Data[tb.k*c.Stride:], c.Stride, work)
					}
				} else {
					tb.blk.Apply(side, blas.NoTrans, c.Cols, c.Data, c.Stride, work)
				}
			})
			if allocs != 0 {
				t.Fatalf("ts=%v side=%c: %v allocations per apply, want 0", ts, side, allocs)
			}
		}
	}
}

// BenchmarkBlockApply measures the engine at the shapes the solver runs it
// at: one stage-1 / Q₁ TS tile reflector (48×48 on a 128-column block) and
// Q₂ diamonds of a bandwidth-48 chase at several group widths (59 rows × 12
// reflectors is g = 12), reporting nominal Gflop/s: 4·rows·k·n for a diamond,
// zeros of the aggregated V included, as the solver's trace counts it.
func BenchmarkBlockApply(b *testing.B) {
	cases := []struct {
		ts         bool
		rows, k, n int
	}{
		{true, 48, 48, 128},
		{true, 48, 48, 48},
		{false, 59, 12, 128},
		{false, 63, 16, 128},
		{false, 71, 24, 128},
		{false, 79, 32, 128},
	}
	for _, cs := range cases {
		name := fmt.Sprintf("diamond%dx%d_n%d", cs.rows, cs.k, cs.n)
		flops := 4 * float64(cs.rows) * float64(cs.k) * float64(cs.n)
		if cs.ts {
			name = fmt.Sprintf("ts%dx%d_n%d", cs.rows, cs.k, cs.n)
			flops = float64(cs.k) * float64(cs.n) * float64(4*cs.rows+cs.k)
		}
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			tb := newBandedBlock(rng, cs.ts, cs.rows, cs.k, cs.rows-cs.k+1, FormH)
			c := randDense(rng, tb.order(), cs.n)
			work := make([]float64, ApplyWork(blas.Left, cs.rows, cs.k, cs.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cs.ts {
					tb.blk.ApplyTS(blas.Left, blas.NoTrans, cs.n, c.Data, c.Stride, c.Data[cs.k:], c.Stride, work)
				} else {
					tb.blk.Apply(blas.Left, blas.NoTrans, cs.n, c.Data, c.Stride, work)
				}
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
		})
	}
}
