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
//
// Q₂ is kept on the kernels' own lattice: sweep s has Steps(s) reflectors,
// reflector (s, ℓ) starts at row s + ℓ·b + 1, and Result.Reflector reads its
// τ and essentials from fixed offsets. The back-transformation computes its
// diamonds from that lattice.
package bulge

import (
	"runtime"
	"sync/atomic"

	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/work"
)

// Result is the output of Chase.
type Result struct {
	N int // matrix order
	B int // bandwidth of the input band matrix
	// T is the resulting tridiagonal matrix.
	T *matrix.Tridiagonal
	// Tau holds, when the chase kept Q₂, the τ of every kernel's reflector in
	// sequential order (sweep-major, level-minor), identity reflectors
	// (τ = 0) included, so that Q₂ = H(0,0)·H(0,1)⋯H(s,ℓ)⋯ over the regular
	// lattice of Steps and Reflector. It is nil for a values-only chase, and
	// a canceled chase keeps only the prefix of the kernels that all ran.
	Tau []float64
	// off[s] is the sequential index of kernel (s, 0) and voff[s] the offset
	// of its essentials in vs, which holds reflector (s, ℓ)'s at
	// voff[s] + ℓ·(B−1). All three may be arena-backed: the Result is only
	// valid until the arena is recycled.
	off, voff []int
	vs        []float64
}

// Steps is the number of kernels, and so of reflectors, of sweep s: level 0
// and the chase levels 1 … Steps(s)−1. It does not increase with s and is 0
// from sweep N−2 on.
func (r *Result) Steps(s int) int { return sweepSteps(r.N, r.B, s) }

// Reflector returns the reflector kernel (s, ℓ) generated: the full vector
// [1; v] acts on rows row … row+len(v) with row = s + ℓ·B + 1 and
// len(v) = min(B, N − row) − 1. v aliases the Result's storage. The kernel
// must be among those Tau holds.
func (r *Result) Reflector(s, l int) (row int, v []float64, tau float64) {
	row = s + l*r.B + 1
	at := r.voff[s] + l*(r.B-1)
	end := at + min(r.B, r.N-row) - 1
	return row, r.vs[at:end:end], r.Tau[r.off[s]+l]
}

// TwoStreamOrder is N₂, the order from which a chase on a job of two or more
// workers runs every sweep as two streams. Below it the one stream is faster
// (EXPERIMENTS.md, "Both workers in a solve's serial sections").
const TwoStreamOrder = 1024

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

// upperHalf is the number of leading kernels of a sweep of the given length
// that the first stream runs: ⌈steps/2⌉.
func upperHalf(steps int) int { return (steps + 1) / 2 }

// stream is the kernel state of one stream of the chase: the reflector its
// last kernel generated, u = [1; v] and tau, which its next kernel of the same
// sweep starts from, and a product buffer p.
type stream struct {
	u, p []float64
	tau  float64
}

// chaser carries the stage-2 state: the extended working band, one stream
// per goroutine, the ring through which the first stream hands each sweep to
// the second, and the kernel offsets. Kernel (s, ℓ) is the off[s]+ℓ-th in
// sequential order; with Q₂ wanted its τ goes into that slot of tau, its
// essential part at voff[s] + ℓ·(bw−1) in the essentials buffer. The
// chaser and the outputs that outlive the kernels (the Result and its
// tridiagonal matrix) are one arena value, so a recycled arena reuses all
// their headers.
type chaser struct {
	w     workBand
	tc    *trace.Collector
	st    [2]stream
	ring  [2]stream // u and tau of the handed-off reflectors; p unused
	off   []int     // off[s]: sequential index of kernel (s, 0); one past the last sweep, the kernel count
	voff  []int     // with Q₂: offset of reflector (s, 0)'s essentials
	nB    int       // sweeps with a lower half; they come first
	wantQ bool
	vs    []float64 // with Q₂: every reflector's essentials
	tau   []float64 // with Q₂: every reflector's τ, retained across chases
	res   Result
	t     matrix.Tridiagonal
}

func chaserFor(ws *work.Arena) *chaser {
	if c, ok := ws.Value(work.Stage2Out).(*chaser); ok {
		return c
	}
	c := &chaser{}
	ws.SetValue(work.Stage2Out, c)
	return c
}

// init readies c to chase b2: it lays out the kernel offsets and the stream
// buffers and, only for a chase that keeps Q₂, sizes the τ slots and the
// essentials buffer, both exactly.
func (c *chaser) init(b2 *matrix.SymBand, wantQ bool, ws *work.Arena, tc *trace.Collector) {
	n, bw := b2.N, b2.KD
	c.w.init(b2, ws)
	c.tc, c.wantQ = tc, wantQ
	sc := ws.WorkerSlabs(work.Stage2Scratch, 3, 2*bw)
	for k := range c.st {
		buf := sc.For(k)
		c.st[k] = stream{u: buf[:bw], p: buf[bw:]}
		c.ring[k] = stream{u: sc.For(2)[k*bw : (k+1)*bw]}
	}
	// Sweeps 0 … n−3 have kernels; sweepSteps is 0 from n−2 on.
	nsw := max(0, n-2)
	c.off, c.voff = c.off[:0], c.voff[:0]
	c.nB = 0
	nref, capV := 0, 0
	for sw := 0; sw < nsw; sw++ {
		c.off = append(c.off, nref)
		c.voff = append(c.voff, capV)
		steps := sweepSteps(n, bw, sw)
		if upperHalf(steps) < steps {
			c.nB++
		}
		nref += steps
		// Reflector (s, ℓ) starts at row s + ℓ·bw + 1 and spans at most bw
		// rows; only the last of a sweep is shorter.
		capV += (steps-1)*(bw-1) + min(bw, n-(sw+(steps-1)*bw+1)) - 1
	}
	c.off = append(c.off, nref)
	c.vs, c.tau = nil, c.tau[:0]
	if !wantQ {
		return
	}
	if cap(c.tau) < nref {
		c.tau = make([]float64, nref)
	}
	c.tau = c.tau[:nref]
	c.vs = ws.Floats(work.Stage2Slab, capV, false)
}

// record stores the reflector stream st's current kernel (sw, lvl)
// generated, of the given length, in its Q₂ slots when the chase keeps Q₂.
func (c *chaser) record(st *stream, sw, lvl, length int) {
	if !c.wantQ {
		return
	}
	at := c.voff[sw] + lvl*(c.w.bw-1)
	copy(c.vs[at:at+length-1], st.u[1:])
	c.tau[c.off[sw]+lvl] = st.tau
}

// kernel runs kernel (sw, lvl) on stream st.
func (c *chaser) kernel(st *stream, sw, lvl int) {
	if lvl == 0 {
		c.startSweep(st, sw)
	} else {
		c.chaseStep(st, sw, lvl)
	}
}

// startSweep is the xHBCEU kernel: annihilate column sw below the
// subdiagonal, update the leading triangle two-sidedly.
func (c *chaser) startSweep(st *stream, sw int) {
	n, bw := c.w.n, c.w.bw
	len0 := min(bw, n-1-sw)
	r0 := sw + 1
	st.tau = c.w.larfgColumn(sw, r0, len0, st.u, c.tc)
	c.record(st, sw, 0, len0)
	c.w.symTwoSided(r0, len0, st.u, st.tau, st.p, c.tc)
}

// chaseStep is the combined xHBREL+xHBLRU kernel at chase depth lvl ≥ 1. It
// starts from the reflector kernel (sw, lvl−1) left in st.
func (c *chaser) chaseStep(st *stream, sw, lvl int) {
	n, bw := c.w.n, c.w.bw
	prevStart := sw + (lvl-1)*bw + 1
	prevLen := min(bw, n-1-sw-(lvl-1)*bw)
	nextStart := prevStart + prevLen
	nextLen := min(bw, n-nextStart)

	// xHBREL: right update of the off-diagonal block by the previous
	// reflector (creates the bulge)…
	c.w.rightUpdate(nextStart, nextLen, prevStart, prevLen, st.u, st.tau, st.p, c.tc)
	// …then annihilate only the bulge's first column and apply the new
	// reflector from the left to the rest of the block while it is hot in
	// cache.
	if nextLen >= 2 {
		st.tau = c.w.larfgColumn(prevStart, nextStart, nextLen, st.u, c.tc)
	} else {
		st.tau = 0
	}
	c.record(st, sw, lvl, nextLen)
	if st.tau != 0 {
		c.w.leftUpdate(nextStart, nextLen, prevStart+1, prevLen-1, st.u, st.tau, st.p, c.tc)
		// xHBLRU: two-sided update of the next symmetric triangle.
		c.w.symTwoSided(nextStart, nextLen, st.u, st.tau, st.p, c.tc)
	}
}

// pipe is the handoff of a two-stream chase, fresh for every chase: the
// first stream hands each sweep's reflector to the second through the ring,
// and each stream waits on the other's counters.
type pipe struct {
	h      *sched.Helper // runs the second stream
	handed atomic.Int64  // sweeps the first stream has handed to the second
	taken  atomic.Int64  // sweeps whose reflector the second stream has read from the ring
	done   atomic.Int64  // every kernel below this sequential index has run
}

// ready reports whether the first stream may run kernel (sw, lvl) once every
// kernel below the sequential index done has run: whether no kernel of an
// earlier sweep's lower half that it overlaps is still to come. Kernel
// (s, ℓ) writes rows s+ℓb+1 … s+(ℓ+1)b, and a kernel (s−k, ℓ′) rows from
// s−k+ℓ′b+1 on, so they overlap only when ℓ′ ≤ ℓ+1+⌊(k−1)/b⌋. Only the
// sweeps the second stream has not finished are looked at, latest first.
func (c *chaser) ready(sw, lvl int, done int64) bool {
	for p := sw - 1; p >= 0 && int64(c.off[p+1]) > done; p-- {
		if p >= c.nB {
			continue // no lower half
		}
		steps := c.off[p+1] - c.off[p]
		top := min(lvl+1+(sw-p-1)/c.w.bw, steps-1)
		if top >= upperHalf(steps) && int64(c.off[p]+top) >= done {
			return false
		}
	}
	return true
}

// wait yields until ok holds. It reports false when the job is canceled
// before the second stream's task has started, which the scheduler may then
// have dropped; a started second stream always catches up.
func (sp *pipe) wait(job *sched.Job, ok func() bool) bool {
	for i := 1; !ok(); i++ {
		if i%1024 == 0 && !sp.h.Started() && job.Canceled() {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// upper is the first stream, on the calling goroutine: every sweep's upper
// half, or every whole sweep when sp is nil. After the upper half of a sweep
// it hands the reflector of its last kernel to the second stream through the
// two-slot ring. It checks cancellation once per sweep.
func (c *chaser) upper(job *sched.Job, sp *pipe) {
	st := &c.st[0]
	nsw := len(c.off) - 1
	for sw := 0; sw < nsw; sw++ {
		if job.Canceled() {
			c.cut(sw, sp)
			return
		}
		steps := c.off[sw+1] - c.off[sw]
		for lvl := 0; lvl < steps; lvl++ {
			if sp == nil {
				c.kernel(st, sw, lvl)
				continue
			}
			if lvl == upperHalf(steps) {
				// Slot sw%2 last held sweep sw−2's reflector.
				if !sp.wait(job, func() bool { return sp.taken.Load() >= int64(sw-1) }) {
					c.cut(sw, sp)
					return
				}
				h := &c.ring[sw%2]
				copy(h.u, st.u)
				h.tau = st.tau
				sp.handed.Store(int64(sw + 1))
				break
			}
			if !sp.wait(job, func() bool { return c.ready(sw, lvl, sp.done.Load()) }) {
				c.cut(sw, sp)
				return
			}
			c.kernel(st, sw, lvl)
		}
	}
	if sp != nil && !sp.wait(job, func() bool { return sp.done.Load() >= int64(c.off[c.nB]) }) {
		c.cut(nsw, sp)
	}
}

// lower is the second stream, on the helper's task: the lower half of every
// sweep that has one, each started from the reflector the first stream
// handed over. Once the helper is stopped it returns at the next sweep, so
// that after a cut it touches nothing more, whether the task runs it or the
// caller, which runs it if the task never claimed it.
func (c *chaser) lower(sp *pipe) {
	st := &c.st[1]
	for sw := 0; sw < c.nB; sw++ {
		for !sp.h.Stopped() && sp.handed.Load() <= int64(sw) {
			runtime.Gosched()
		}
		if sp.h.Stopped() {
			return
		}
		h := &c.ring[sw%2]
		copy(st.u, h.u)
		st.tau = h.tau
		sp.taken.Store(int64(sw + 1))
		steps := c.off[sw+1] - c.off[sw]
		for lvl := upperHalf(steps); lvl < steps; lvl++ {
			c.chaseStep(st, sw, lvl)
			sp.done.Store(int64(c.off[sw] + lvl + 1))
		}
	}
}

// cut ends a canceled chase at sweep sw: it stops the second stream and keeps
// only the τ of the kernels that all ran, a prefix of the sequence.
func (c *chaser) cut(sw int, sp *pipe) {
	keep := c.off[sw]
	if sp != nil {
		sp.h.End()
		keep = min(keep, int(sp.done.Load()))
	}
	if c.wantQ {
		c.tau = c.tau[:keep]
	}
}

// Chase reduces the symmetric band matrix b2 (not modified) to tridiagonal
// form. On a job of two or more workers, from order TwoStreamOrder on, every
// sweep runs as two streams: its upper ⌈steps/2⌉ kernels on the calling
// goroutine and the rest in one task on the job, each upper kernel waiting
// only for the lower kernels of earlier sweeps that it overlaps (see ready).
// The paper restricts the memory-bound chase to a subset of the cores; here
// that is two streams, or one on a narrower job or a smaller band. Either
// way every kernel sees the operands of the sequential order, so the result
// is the same bits. The job carries cancellation, checked once per sweep (a
// nil job never cancels); a canceled chase returns only after its second
// stream has.
//
// wantQ selects whether the Q₂ reflectors are kept (Result.Tau and
// Reflector); values-only solves pass false and keep none. If the job is
// canceled T is unspecified, Tau holds a prefix of the kernels, and the
// caller must check job.Err. ws may be nil; when non-nil the Result borrows
// arena storage and is only valid until the arena is recycled. tc may be nil.
func Chase(b2 *matrix.SymBand, job *sched.Job, wantQ bool, ws *work.Arena, tc *trace.Collector) *Result {
	return chase(b2, job, wantQ, ws, tc, job.Workers() >= 2 && b2.N >= TwoStreamOrder)
}

// chase is Chase with the number of streams chosen by the caller: two needs
// a job of two or more workers.
func chase(b2 *matrix.SymBand, job *sched.Job, wantQ bool, ws *work.Arena, tc *trace.Collector, two bool) *Result {
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
	if two && c.nB > 0 {
		sp := &pipe{h: job.Helper("CHASE")}
		sp.h.Split(func() { c.upper(job, sp) }, func() { c.lower(sp) })
		sp.h.End()
	} else {
		c.upper(job, nil)
	}
	c.w.extractTridiagonal(ws, &c.t)
	res.T = &c.t
	if wantQ {
		res.Tau, res.off, res.voff, res.vs = c.tau, c.off, c.voff, c.vs
	}
	return res
}
