// Package bulge implements stage 2 of the two-stage reduction: the
// column-wise bulge-chasing algorithm (paper §5.2, Figure 2) that reduces a
// symmetric band matrix with bandwidth b to tridiagonal form,
// B = Q₂·T·Q₂ᵀ, while harvesting the Householder reflectors that make up
// Q₂ for the eigenvector back-transformation.
//
// Each sweep s eliminates the entries of column s below the first
// subdiagonal and chases the resulting bulge down the band:
//
//   - xHBCEU starts the sweep: one reflector annihilates B[s+2:s+b+1, s] and
//     is applied two-sidedly to the leading symmetric triangle.
//   - xHBREL applies the previous reflector from the right to the next
//     off-diagonal block, which fills in a triangular bulge; following the
//     paper's delayed-annihilation strategy it eliminates only the bulge's
//     first column (the rest overlaps the bulges of later sweeps and is
//     chased by them), generating the next reflector and applying it from
//     the left to the block while it is still in cache.
//   - xHBLRU applies that reflector two-sidedly to the next symmetric
//     triangle.
//
// The matrix is kept in an extended band (2b−1 subdiagonals) because the
// transient bulges live just below the original band.
package bulge

import (
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/work"
)

// Reflector is one elementary Householder transformation of Q₂. The full
// vector is [1; V] acting on rows Row..Row+len(V) of the matrix, and
// Q₂ = H(0,0)·H(0,1)⋯H(s,ℓ)⋯ in generation order (sweep-major, level-minor).
type Reflector struct {
	Sweep int       // sweep (column) index that generated it
	Level int       // chase depth: 0 for the xHBCEU reflector
	Row   int       // global row of the implicit leading 1
	V     []float64 // essential part (length = block length − 1)
	Tau   float64
}

// Result is the output of Chase.
type Result struct {
	N int // matrix order
	B int // bandwidth of the input band matrix
	// T is the resulting tridiagonal matrix.
	T *matrix.Tridiagonal
	// Refs holds the Q₂ reflectors in generation order, one per kernel.
	// Identity reflectors (tau = 0) are included so the diamond grouping in
	// backtransform can rely on the regular (sweep, level) lattice. Nil when
	// the chase was run with wantQ == false. The V slices may be
	// arena-backed: the Result is only valid until the arena is recycled.
	Refs []Reflector
}

// sweepSteps is the one definition of the kernel lattice: the number of
// kernels of sweep sw. Level 0 is the sweep-starting xHBCEU kernel, which
// exists when column sw has at least two entries below the diagonal to work
// on; level ℓ ≥ 1 is the combined xHBREL+xHBLRU chase kernel, which exists
// while the previous block was a full one (bw rows from sw+(ℓ−1)·bw+1) with at
// least one row after it.
func sweepSteps(n, bw, sw int) int {
	if min(bw, n-1-sw) < 2 {
		return 0
	}
	return 1 + (n-2-sw)/bw
}

// forEachStep walks the kernel lattice of the chase in sequential order,
// sweep-major and level-minor. fn returning false stops the walk.
func forEachStep(n, bw int, fn func(sw, lvl int) bool) {
	for sw := 0; sw <= n-3; sw++ {
		for lvl, steps := 0, sweepSteps(n, bw, sw); lvl < steps; lvl++ {
			if !fn(sw, lvl) {
				return
			}
		}
	}
}

// chaser carries the stage-2 kernel state: the extended working band and the
// reflector the last kernel generated, u = [1; v] and tau, which the next
// kernel of the same sweep starts from. With Q₂ wanted, every reflector is
// also appended to refs, its essential part copied into slab. The chaser and
// the outputs that outlive the kernels (the Result and its tridiagonal
// matrix) are one arena value, so a recycled arena reuses all their headers.
type chaser struct {
	w    workBand
	tc   *trace.Collector
	u, p []float64 // bw floats each: the current reflector and a product
	tau  float64
	slab *work.Slab  // Q₂ reflector essentials; nil for a values-only chase
	refs []Reflector // retained Result.Refs storage
	res  Result
	t    matrix.Tridiagonal
}

func chaserFor(ws *work.Arena) *chaser {
	if c, ok := ws.Value(work.Stage2Out).(*chaser); ok {
		return c
	}
	c := &chaser{}
	ws.SetValue(work.Stage2Out, c)
	return c
}

// init readies c to chase b2. Only a chase that keeps Q₂ sizes the reflector
// list and the slab of essentials, both exactly.
func (c *chaser) init(b2 *matrix.SymBand, wantQ bool, ws *work.Arena, tc *trace.Collector) {
	n, bw := b2.N, b2.KD
	c.w.init(b2, ws)
	c.tc = tc
	sc := ws.Floats(work.Stage2Scratch, 2*bw, false)
	c.u, c.p = sc[:bw], sc[bw:]
	c.slab, c.refs = nil, c.refs[:0]
	if !wantQ {
		return
	}
	// Reflector (s, ℓ) starts at row s + ℓ·bw + 1 and spans at most bw rows.
	nref, capV := 0, 0
	forEachStep(n, bw, func(sw, lvl int) bool {
		nref++
		capV += min(bw, n-(sw+lvl*bw+1)) - 1
		return true
	})
	if cap(c.refs) < nref {
		c.refs = make([]Reflector, 0, nref)
	}
	c.slab = ws.SlabOf(work.Stage2Slab, capV)
}

// record appends the reflector the current kernel generated, of the given
// length, to the Q₂ output when the chase keeps it.
func (c *chaser) record(sw, lvl, row, length int) {
	if c.slab == nil {
		return
	}
	v := c.slab.Take(length - 1)
	copy(v, c.u[1:])
	c.refs = append(c.refs, Reflector{Sweep: sw, Level: lvl, Row: row, V: v, Tau: c.tau})
}

// startSweep is the xHBCEU kernel: annihilate column sw below the
// subdiagonal, update the leading triangle two-sidedly.
func (c *chaser) startSweep(sw int) {
	n, bw := c.w.n, c.w.bw
	len0 := min(bw, n-1-sw)
	r0 := sw + 1
	c.tau = c.w.larfgColumn(sw, r0, len0, c.u, c.tc)
	c.record(sw, 0, r0, len0)
	c.w.symTwoSided(r0, len0, c.u, c.tau, c.p, c.tc)
}

// chaseStep is the combined xHBREL+xHBLRU kernel at chase depth lvl ≥ 1. It
// starts from the reflector kernel (sw, lvl−1) left in c.u and c.tau.
func (c *chaser) chaseStep(sw, lvl int) {
	n, bw := c.w.n, c.w.bw
	prevStart := sw + (lvl-1)*bw + 1
	prevLen := min(bw, n-1-sw-(lvl-1)*bw)
	nextStart := prevStart + prevLen
	nextLen := min(bw, n-nextStart)

	// xHBREL: right update of the off-diagonal block by the previous
	// reflector (creates the bulge)…
	c.w.rightUpdate(nextStart, nextLen, prevStart, prevLen, c.u, c.tau, c.p, c.tc)
	// …then annihilate only the bulge's first column and apply the new
	// reflector from the left to the rest of the block while it is hot in
	// cache.
	if nextLen >= 2 {
		c.tau = c.w.larfgColumn(prevStart, nextStart, nextLen, c.u, c.tc)
	} else {
		c.tau = 0
	}
	c.record(sw, lvl, nextStart, nextLen)
	if c.tau != 0 {
		c.w.leftUpdate(nextStart, nextLen, prevStart+1, prevLen-1, c.u, c.tau, c.p, c.tc)
		// xHBLRU: two-sided update of the next symmetric triangle.
		c.w.symTwoSided(nextStart, nextLen, c.u, c.tau, c.p, c.tc)
	}
}

// Chase reduces the symmetric band matrix b2 (not modified) to tridiagonal
// form. The kernels run in sequential order on the calling goroutine
// whatever the job's width: the chase is memory-bound, and the paper's
// restriction of it to a subset of cores is taken here to one stream. The
// job only carries cancellation, checked once per sweep (a nil job never
// cancels).
//
// wantQ selects whether the Q₂ reflector sequence is accumulated into
// Result.Refs; values-only solves pass false and keep no reflector. If the
// job is canceled the Result's contents are unspecified and the caller must
// check job.Err. ws may be nil; when non-nil the Result borrows arena
// storage and is only valid until the arena is recycled. tc may be nil.
func Chase(b2 *matrix.SymBand, job *sched.Job, wantQ bool, ws *work.Arena, tc *trace.Collector) *Result {
	n := b2.N
	bw := b2.KD
	c := chaserFor(ws)
	res := &c.res
	*res = Result{N: n, B: bw}
	if n == 0 {
		res.T = matrix.NewTridiagonal(0)
		return res
	}
	if bw <= 1 {
		// Already tridiagonal.
		res.T = matrix.TridiagonalFromBand(b2)
		return res
	}

	c.init(b2, wantQ, ws, tc)
	forEachStep(n, bw, func(sw, lvl int) bool {
		if lvl > 0 {
			c.chaseStep(sw, lvl)
			return true
		}
		if job.Canceled() {
			return false
		}
		c.startSweep(sw)
		return true
	})
	c.w.extractTridiagonal(ws, &c.t)
	res.T = &c.t
	if wantQ {
		res.Refs = c.refs
	}
	return res
}
