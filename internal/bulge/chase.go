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
	"fmt"

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

// emptyV marks a recorded identity reflector: the slot is filled (V non-nil)
// but the transformation is trivial. Distinct from an untouched lattice slot
// whose V is nil.
var emptyV = []float64{}

// Result is the output of Chase.
type Result struct {
	N int // matrix order
	B int // bandwidth of the input band matrix
	// T is the resulting tridiagonal matrix.
	T *matrix.Tridiagonal
	// Refs holds the Q₂ reflectors in generation order. Identity reflectors
	// (tau = 0) are included so the diamond grouping in backtransform can
	// rely on the regular (sweep, level) lattice. Nil when the chase was run
	// with wantQ == false. The V slices may be arena-backed: the Result is
	// only valid until the arena is recycled.
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

// chaser carries the stage-2 kernel state: the extended working band, the
// pre-planned reflector lattice (slot (s, ℓ) is known in advance so
// recording is race-free under the scheduler), the slab the reflector
// essentials are carved from, and per-worker scratch. Kernel methods
// re-derive their block geometry from (sweep, level), so the sequential path
// calls them directly without closures or per-task allocations.
type chaser struct {
	w         workBand
	ws        *work.Arena
	tc        *trace.Collector
	refs      []Reflector
	out       []Reflector // retained Result.Refs storage
	maxLevels int
	slab      *work.Slab
	scratch   work.WorkerSlabs // per worker, 2·bw floats: u = [1; v], then a product
}

// outCache bundles the chase outputs that outlive the kernels (the Result
// and its tridiagonal matrix) so a recycled arena reuses their headers.
type outCache struct {
	res Result
	t   matrix.Tridiagonal
}

func outFor(ws *work.Arena) *outCache {
	if oc, ok := ws.Value(work.Stage2Out).(*outCache); ok {
		return oc
	}
	oc := &outCache{}
	ws.SetValue(work.Stage2Out, oc)
	return oc
}

func newChaser(b2 *matrix.SymBand, workers int, ws *work.Arena, tc *trace.Collector) *chaser {
	n, bw := b2.N, b2.KD
	c, _ := ws.Value(work.Stage2Chaser).(*chaser)
	if c == nil {
		c = &chaser{}
		ws.SetValue(work.Stage2Chaser, c)
	}
	c.w.init(b2, ws)
	maxLevels := (n + bw - 1) / bw

	// Reflector lattice, retained across solves. Stale entries must be
	// cleared: the V slices point into the recycled slab.
	refs, _ := ws.Value(work.Stage2Refs).([]Reflector)
	if cap(refs) < n*maxLevels {
		refs = make([]Reflector, n*maxLevels)
		ws.SetValue(work.Stage2Refs, refs)
	} else {
		refs = refs[:n*maxLevels]
		clear(refs)
	}

	// Exact slab capacity for every reflector essential.
	capV := 0
	forEachStep(n, bw, func(sw, lvl int) bool {
		if lvl == 0 {
			capV += min(bw, n-1-sw) - 1
			return true
		}
		prevStart := sw + (lvl-1)*bw + 1
		prevLen := min(bw, n-1-sw-(lvl-1)*bw)
		nextLen := min(bw, n-(prevStart+prevLen))
		if nextLen >= 2 {
			capV += nextLen - 1
		}
		return true
	})

	c.ws, c.tc, c.refs, c.maxLevels = ws, tc, refs, maxLevels
	c.slab = ws.SlabOf(work.Stage2Slab, capV)
	c.scratch = ws.WorkerSlabs(work.Stage2Scratch, workers, 2*bw)
	return c
}

func (c *chaser) slot(sweep, level int) int { return sweep*c.maxLevels + level }

// startSweep is the xHBCEU kernel: annihilate column sw below the
// subdiagonal, update the leading triangle two-sidedly.
func (c *chaser) startSweep(sw, worker int) {
	n, bw := c.w.n, c.w.bw
	len0 := min(bw, n-1-sw)
	r0 := sw + 1
	sc := c.scratch.For(worker)
	u, p := sc[:bw], sc[bw:]
	v, tau := c.w.larfgColumn(sw, r0, len0, c.slab, u, c.tc)
	c.refs[c.slot(sw, 0)] = Reflector{Sweep: sw, Level: 0, Row: r0, V: v, Tau: tau}
	c.w.symTwoSided(r0, len0, u, tau, p, c.tc)
}

// chaseStep is the combined xHBREL+xHBLRU kernel at chase depth lvl ≥ 1.
func (c *chaser) chaseStep(sw, lvl, worker int) {
	n, bw := c.w.n, c.w.bw
	prevStart := sw + (lvl-1)*bw + 1
	prevLen := min(bw, n-1-sw-(lvl-1)*bw)
	nextStart := prevStart + prevLen
	nextLen := min(bw, n-nextStart)

	prev := &c.refs[c.slot(sw, lvl-1)]
	sc := c.scratch.For(worker)
	u, p := sc[:bw], sc[bw:]
	u[0] = 1
	copy(u[1:], prev.V)
	// xHBREL: right update of the off-diagonal block by the previous
	// reflector (creates the bulge)…
	c.w.rightUpdate(nextStart, nextLen, prevStart, prevLen, u, prev.Tau, p, c.tc)
	// …then annihilate only the bulge's first column and apply the new
	// reflector from the left to the rest of the block while it is hot in
	// cache.
	var v []float64
	var tau float64
	if nextLen >= 2 {
		v, tau = c.w.larfgColumn(prevStart, nextStart, nextLen, c.slab, u, c.tc)
	} else {
		v, tau = emptyV, 0
	}
	c.refs[c.slot(sw, lvl)] = Reflector{Sweep: sw, Level: lvl, Row: nextStart, V: v, Tau: tau}
	if tau != 0 {
		c.w.leftUpdate(nextStart, nextLen, prevStart+1, prevLen-1, u, tau, p, c.tc)
		// xHBLRU: two-sided update of the next symmetric triangle.
		c.w.symTwoSided(nextStart, nextLen, u, tau, p, c.tc)
	}
}

// step runs kernel (sw, lvl).
func (c *chaser) step(sw, lvl, worker int) {
	if lvl == 0 {
		c.startSweep(sw, worker)
	} else {
		c.chaseStep(sw, lvl, worker)
	}
}

// runSeq executes the kernels in sequential order on the calling goroutine,
// checking for cancellation once per sweep. No per-kernel allocations.
func (c *chaser) runSeq(job *sched.Job) {
	forEachStep(c.w.n, c.w.bw, func(sw, lvl int) bool {
		if lvl == 0 && job.Canceled() {
			return false
		}
		c.step(sw, lvl, 0)
		return true
	})
}

// blockSpan returns the first and last bw-aligned row block kernel (sw, lvl)
// touches: the kernel's rows and columns, and for the sweep-starting kernel
// the column sw it reads. One resource per block serializes exactly the
// kernels whose footprints can overlap.
func (c *chaser) blockSpan(sw, lvl int) (lo, hi int) {
	n, bw := c.w.n, c.w.bw
	if lvl == 0 {
		return sw / bw, (sw + min(bw, n-1-sw)) / bw
	}
	prevStart := sw + (lvl-1)*bw + 1
	nextStart := prevStart + bw
	return prevStart / bw, (nextStart + min(bw, n-nextStart) - 1) / bw
}

// schedule submits one task per kernel. Its access list is the kernel's row
// blocks, read-write, so the scheduler reproduces the sequential order wherever
// two kernels can touch the same entries. (Tasks of several consecutive levels
// of a sweep were measured and tied with this on solve time: EXPERIMENTS.md,
// "Level-1/2 at vector speed".)
func (c *chaser) schedule(job *sched.Job, affinity uint64) {
	n, bw := c.w.n, c.w.bw
	traced := job.Traced()
	// All access lists are carved from one slice: a kernel covers at most 2·bw
	// consecutive rows, so at most three blocks.
	tasks := 0
	for sw := 0; sw <= n-3; sw++ {
		tasks += sweepSteps(n, bw, sw)
	}
	deps := make([]sched.Dep, 0, 3*tasks)
	forEachStep(n, bw, func(sw, lvl int) bool {
		lo, hi := c.blockSpan(sw, lvl)
		first := len(deps)
		for g := lo; g <= hi; g++ {
			deps = append(deps, sched.RW(g))
		}
		task := sched.Task{
			Priority: 10,
			Affinity: affinity,
			Deps:     deps[first:len(deps):len(deps)],
			Run:      func(w int) { c.step(sw, lvl, w) },
		}
		if traced { // only a tracing scheduler reads the name
			kind := "HBREL+HBLRU"
			if lvl == 0 {
				kind = "HBCEU"
			}
			task.Name = fmt.Sprintf("%s#%d.%d", kind, sw, lvl)
		}
		job.Submit(task)
		return true
	})
}

// finish builds the Result after the kernels completed.
func (c *chaser) finish(res *Result, t *matrix.Tridiagonal, wantQ bool) {
	c.w.extractTridiagonal(c.ws, t)
	res.T = t
	if !wantQ {
		return
	}
	nref := 0
	for i := range c.refs {
		if c.refs[i].V != nil {
			nref++
		}
	}
	if cap(c.out) < nref {
		c.out = make([]Reflector, 0, nref)
	}
	out := c.out[:0]
	for i := range c.refs {
		if c.refs[i].V != nil {
			out = append(out, c.refs[i])
		}
	}
	c.out = out
	res.Refs = out
}

// Chase reduces the symmetric band matrix b2 (not modified) to tridiagonal
// form. A nil (or inline) job runs the kernels sequentially — the reference
// execution the scheduled one must match bit-for-bit — while a
// scheduler-backed job runs them as tasks whose dependences reproduce the
// sequential order exactly (the paper's fine-grained stage-2 scheduling);
// affinity restricts those tasks to a subset of workers (0 = all),
// implementing the paper's core restriction for this memory-bound stage.
//
// wantQ selects whether the Q₂ reflector sequence is accumulated into
// Result.Refs; values-only solves pass false and skip that work. If the job
// is canceled the Result's contents are unspecified and the caller must
// check job.Err. ws may be nil; when non-nil the Result borrows arena
// storage and is only valid until the arena is recycled. tc may be nil.
func Chase(b2 *matrix.SymBand, job *sched.Job, affinity uint64, wantQ bool, ws *work.Arena, tc *trace.Collector) *Result {
	n := b2.N
	bw := b2.KD
	oc := outFor(ws)
	res := &oc.res
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

	c := newChaser(b2, job.Workers(), ws, tc)
	if job.Parallel() {
		c.schedule(job, affinity)
		job.Wait() // error, if any, surfaces through job.Err at the caller
	} else {
		c.runSeq(job)
	}
	c.finish(res, &oc.t, wantQ)
	return res
}
