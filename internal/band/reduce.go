package band

import (
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/blas"
	"repro/internal/householder"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/work"
)

// DefaultNB is the stage-1 tile size / bandwidth used when Options.NB is
// unset. The paper's model (§7.1) puts the sweet spot at 120–200 on a
// 48-core Opteron; on this substrate smaller tiles balance the two stages,
// and 48 is the measured optimum of stage 1 + stage 2 recorded in
// EXPERIMENTS.md.
const DefaultNB = 48

// Look-ahead priorities of the scheduled stage-1 DAG.
//
// The reduction's critical path is the panel chain: GEQRT(k) → the TSQRT
// chain of panel k → the column-(k+1) updates → GEQRT(k+1) → … Everything
// else — the trailing updates on columns k+2..nt-1 — is slack that can fill
// the workers while the chain advances. The scheduler's dependence tracking
// already lets panel k+1 start as soon as its column's tiles are final, but
// ready-queue order decides whether that actually happens: with flat
// priorities the O(nt²) trailing-update tasks of panel k drown the handful
// of tasks feeding panel k+1, and every panel boundary degenerates into a
// near-global drain. Look-ahead is therefore a priority discipline
// (Rodríguez-Sánchez et al., "Look-Ahead in the Two-Sided Reduction to
// Compact Band Forms"): panel tasks outrank everything, and update tasks are
// graded by how soon a future panel reads the tile they write, out to
// lookahead panels ahead.
const (
	// lookahead is the look-ahead depth: the updates feeding the next two
	// panels are prioritized, which keeps the panel chain fed without
	// starving the trailing update entirely. Depths 1 and 4 measured no
	// different (EXPERIMENTS.md).
	lookahead = 2

	// prioFeedStep is the per-column-distance step of the look-ahead boost:
	// a task whose written tile feeds panel k+dist gets
	// (lookahead-dist+1)·prioFeedStep, so nearer panels win.
	prioFeedStep = 64
	// prioPanel is the priority of the panel-factorization tasks
	// (GEQRT/TSQRT) — the critical path, above every boosted update.
	prioPanel = 1 << 13
	// prioDiag is the SYRFB priority: the diagonal update gates the
	// column-(k+1) TSMQR-L chain, so it sits just under the panel tasks.
	prioDiag = prioPanel - prioFeedStep
)

// Config bundles the stage-1 settings of Reduce.
type Config struct {
	// NB is the tile size / bandwidth (≤ 0 → DefaultNB).
	NB int
	// ValuesOnly says Q₁ will never be applied: the panel reflectors are then
	// prepared for the reduction's own Hᵀ updates only, which saves the H-form
	// operands (n²/2 values) that ApplyQ1Block consumes.
	ValuesOnly bool
}

// feedBoost is the look-ahead priority of an update task whose most urgent
// written tile lies in panel column k+dist: within the look-ahead window
// nearer columns get larger boosts; beyond it the task is ordinary trailing
// update.
func feedBoost(dist int) int {
	if dist < 1 || dist > lookahead {
		return 0
	}
	return (lookahead - dist + 1) * prioFeedStep
}

// Factor is the output of the stage-1 reduction: the band matrix B plus the
// Householder data needed to apply Q₁ later (paper §6, Figure 3a). The
// reflectors stay packed in the tiles of A exactly where the factorization
// left them:
//
//   - tile (k+1, k): R in the upper triangle, the GEQRT reflector essentials
//     below the diagonal;
//   - tile (i, k), i > k+1: the dense part of the TS reflector that
//     annihilated that tile.
//
// Each reflector block is also held prepared for application
// (householder.Block: Vᵀ and −V·op(T) packed for the micro-kernel). The task
// that factors a panel tile forms T in its worker's scratch and prepares the
// Block from it at once, under the Block's write dependence; T is not kept.
// The stage-1 update tasks and ApplyQ1Block only ever read the prepared form,
// never the tile.
//
// When Reduce is given a workspace arena, every buffer reachable from the
// Factor (tiles, packed reflectors, band) is arena-backed: the Factor is only
// valid until the arena is recycled.
type Factor struct {
	N  int // matrix order
	NB int // tile size == bandwidth
	NT int // tile grid order

	// A is the tile matrix after reduction (V storage).
	A *matrix.TileMatrix
	// Hge[k] is the GEQRT reflector of panel k and Hts[k][i-(k+2)] the TS
	// reflector of tile (i, k), prepared for application: the Hᵀ form the
	// reduction applies and, unless the reduction was configured ValuesOnly,
	// the H form of Q₁·C.
	Hge []householder.Block
	Hts [][]householder.Block
	// Band is the resulting symmetric band matrix (bandwidth NB).
	Band *matrix.SymBand
}

// stage1Cache bundles the Factor and reducer headers so a recycled arena
// reuses them (and the reflector list spines) across solves.
type stage1Cache struct {
	f Factor
	r reducer
}

func stage1For(ws *work.Arena) *stage1Cache {
	if sc, ok := ws.Value(work.Stage1Factor).(*stage1Cache); ok {
		return sc
	}
	sc := &stage1Cache{}
	ws.SetValue(work.Stage1Factor, sc)
	return sc
}

// PanelReflectors returns the reflector count of panel k.
func (f *Factor) PanelReflectors(k int) int {
	return min(f.A.TileRows(k+1), f.A.TileCols(k))
}

// resource IDs for the scheduler: tiles use TileMatrix.TileID (in
// [0, NT²)); the extra virtual resources below avoid false dependences
// between readers of the V part and writers of the R part of a panel tile.
func (f *Factor) resV(k int) int   { return f.NT*f.NT + k }   // V of tile (k+1,k)
func (f *Factor) resR(k int) int   { return 2*f.NT*f.NT + k } // R of tile (k+1,k)
func (f *Factor) resHge(k int) int { return 3*f.NT*f.NT + k } // Hge[k]
func (f *Factor) resHts(k, i int) int {
	return 4*f.NT*f.NT + k*f.NT + i
}

// reducer carries the stage-1 kernel state. Every kernel method re-derives
// its geometry from the tile indices, so the sequential path can call them
// directly — no closures, no captured variables, no per-task allocations —
// while the scheduled paths wrap the same methods in tasks.
type reducer struct {
	// Busy-time accounting for the PhaseStage1Panel/Update attribution,
	// accumulated by concurrent tasks (first for 64-bit alignment).
	panelNs  int64
	updateNs int64

	f       *Factor
	tm      *matrix.TileMatrix
	tc      *trace.Collector
	scratch work.WorkerSlabs // per-worker kernel workspace, scratchLen(nb) each
	named   bool             // the scheduler records traces, so tasks carry names
	forms   householder.Form // op(H) forms every panel reflector is prepared for
	// packed is the storage of the prepared reflectors, panel by panel from
	// panelOff[k] (see store); each task writes its own fixed range.
	packed   []float64
	panelOff []int
}

// scratchLen is the per-worker kernel workspace for tile size nb: the larger
// of what preparing a full-tile reflector and applying one from the right
// need (Geqrt/Tsqrt's own 2nb is below both), then room for the T factor a
// panel task forms (panelWork).
func scratchLen(nb int) int {
	return max(householder.PrepareWork(nb, nb), householder.ApplyWork(blas.Right, nb, nb, nb), 2*nb) + nb*nb
}

// panelWork splits worker w's scratch for a panel task: the kernels'
// workspace, and the T factor the task forms and consumes in Prepare.
func (r *reducer) panelWork(w int) (scratch, t []float64) {
	buf := r.scratch.For(w)
	n := len(buf) - r.f.NB*r.f.NB
	return buf[:n], buf[n:]
}

// t0 samples the clock for busy-time attribution; zero (free) when no
// collector is attached.
func (r *reducer) t0() time.Time {
	if r.tc == nil {
		return time.Time{}
	}
	return time.Now()
}

// acc credits the time since start to a busy counter (panelNs or updateNs).
// Allocation-free, so the sequential path can call it per kernel.
func (r *reducer) acc(dst *int64, start time.Time) {
	if r.tc == nil {
		return
	}
	atomic.AddInt64(dst, int64(time.Since(start)))
}

// store returns the packed storage of panel k's reflector of tile (i, k):
// the GEQRT one for i = k+1, else the TS one. A panel's range starts with
// Hge[k]'s operands, then holds Hts[k]'s in tile order; only the last tile
// row can be short, so each starts at a fixed offset.
func (r *reducer) store(k, i int) []float64 {
	m1, kw, kr := r.panelGeom(k)
	at := r.panelOff[k]
	n := householder.PackedLen(false, m1, kr, r.forms)
	if i > k+1 {
		at += n + (i-k-2)*householder.PackedLen(true, r.f.NB, kw, r.forms)
		n = householder.PackedLen(true, r.tm.TileRows(i), kw, r.forms)
	}
	return r.packed[at : at+n : at+n]
}

// panelGeom returns the dimensions of panel k: rows of the panel tile,
// panel width, and reflector count.
func (r *reducer) panelGeom(k int) (m1, kw, kr int) {
	m1 = r.tm.TileRows(k + 1)
	kw = r.tm.TileCols(k)
	kr = min(m1, kw)
	return
}

// geqrt factors the top of panel k (tile (k+1, k)).
func (r *reducer) geqrt(k, w int) {
	t := r.t0()
	m1, kw, kr := r.panelGeom(k)
	panel := r.tm.Tile(k+1, k)
	scratch, tge := r.panelWork(w)
	Geqrt(m1, kw, panel, m1, tge, kr, scratch[:kr+kw], r.tc)
	r.f.Hge[k].Prepare(false, m1, kr, panel, m1, tge, kr, r.forms, r.store(k, k+1), scratch)
	r.acc(&r.panelNs, t)
}

// syrfb applies the GEQRT reflector two-sidedly to the diagonal tile.
func (r *reducer) syrfb(k, w int) {
	t := r.t0()
	m1 := r.tm.TileRows(k + 1)
	diag := r.tm.Tile(k+1, k+1)
	Ormqr(blas.Left, blas.Trans, m1, &r.f.Hge[k], diag, m1, r.scratch.For(w), r.tc)
	Ormqr(blas.Right, blas.NoTrans, m1, &r.f.Hge[k], diag, m1, r.scratch.For(w), r.tc)
	r.acc(&r.panelNs, t)
}

// transpose exploits symmetry: a tile updated from the left only, (i, j),
// holds the transpose of the two-sided result in (j, i), so the right-side
// update of (j, i) is a copy rather than flops — this is how the tile
// algorithm keeps the 4/3·n³-class cost of a symmetry-aware reduction. The
// update tasks call it on their own freshly written tiles, while those are
// still in cache.
func (r *reducer) transpose(i, j int) {
	transposeTile(r.tm.Tile(i, j), r.tm.TileRows(i), r.tm.TileCols(j), r.tm.Tile(j, i))
}

// keepColumnCopy reports whether (j, k+1), the column-(k+1) copy of row tile
// (k+1, j), must be written by the panel-k task that has just updated (k+1, j)
// at TS step i (i = k+1 for ORMQR-L). Within panel k that copy is read only at
// step j (TSMQR-L(k, j, k+1) and TSMQR-C(k, j, row j)) and after the panel by
// panel k+1; every other store is overwritten before any read. So the copy is
// written just before step j (by ORMQR-L when j = k+2, else at step j−1) and
// at the panel's last step.
func (r *reducer) keepColumnCopy(i, j int) bool {
	return j == i+1 || i == r.f.NT-1
}

// ormqrL updates row tile (k+1, j) from the left, A[k+1][j] := Hᵀ·A[k+1][j],
// and writes its column copy when one is read (keepColumnCopy).
func (r *reducer) ormqrL(k, j, w int) {
	t := r.t0()
	m1 := r.tm.TileRows(k + 1)
	nc := r.tm.TileCols(j)
	Ormqr(blas.Left, blas.Trans, nc, &r.f.Hge[k], r.tm.Tile(k+1, j), m1, r.scratch.For(w), r.tc)
	if r.keepColumnCopy(k+1, j) {
		r.transpose(k+1, j)
	}
	r.acc(&r.updateNs, t)
}

// tsqrt couples tile (i, k) into the panel's R factor.
func (r *reducer) tsqrt(k, i, w int) {
	t := r.t0()
	m1, kw, _ := r.panelGeom(k)
	m2 := r.tm.TileRows(i)
	v2 := r.tm.Tile(i, k)
	scratch, tts := r.panelWork(w)
	Tsqrt(kw, m2, r.tm.Tile(k+1, k), m1, v2, m2, tts, kw, scratch, r.tc)
	r.f.Hts[k][i-(k+2)].Prepare(true, m2, kw, v2, m2, tts, kw, r.forms, r.store(k, i), scratch)
	r.acc(&r.panelNs, t)
}

// tsmqrL applies the TS reflector of (i, k) from the left to row pair
// (k+1, i), column j. Outside the pair's own columns (j ∉ {k+1, i}, which
// tsmqrC updates from the right) it then writes the transposes: (j, i) always
// — a later step or panel reads each one — and (j, k+1) when it is read
// (keepColumnCopy).
func (r *reducer) tsmqrL(k, i, j, w int) {
	t := r.t0()
	m1 := r.tm.TileRows(k + 1)
	m2 := r.tm.TileRows(i)
	nc := r.tm.TileCols(j)
	Tsmqr(blas.Left, blas.Trans, nc, &r.f.Hts[k][i-(k+2)],
		r.tm.Tile(k+1, j), m1, r.tm.Tile(i, j), m2, r.scratch.For(w), r.tc)
	if j != k+1 && j != i {
		r.transpose(i, j)
		if r.keepColumnCopy(i, j) {
			r.transpose(k+1, j)
		}
	}
	r.acc(&r.updateNs, t)
}

// tsmqrC applies the TS reflector of (i, k) from the right to column pair
// (k+1, i), row `row` — only rows {k+1, i} need real computation; the other
// rows of the pair are the transposes tsmqrL writes.
func (r *reducer) tsmqrC(k, i, row, w int) {
	t := r.t0()
	mr := r.tm.TileRows(row)
	Tsmqr(blas.Right, blas.NoTrans, mr, &r.f.Hts[k][i-(k+2)],
		r.tm.Tile(row, k+1), mr, r.tm.Tile(row, i), mr, r.scratch.For(w), r.tc)
	r.acc(&r.updateNs, t)
}

// Reduce runs the stage-1 reduction of the dense symmetric matrix a (both
// triangles must be filled) to band form under the given Config. a is only
// read, once, into the tile storage.
//
// job selects the execution mode: a nil job (or one created with
// sched.Inline) runs the kernels sequentially in submission order — the
// reference execution the scheduled one must match bit-for-bit — while a
// scheduler-backed job runs the DAG on the worker pool under the look-ahead
// priority scheme. Both modes produce bitwise-identical factors: the
// per-tile operation order never changes, only readiness and ready-queue
// order do. If the job is canceled the reduction stops at a task boundary
// and the Factor's contents are unspecified; the caller must check job.Err.
// ws may be nil (fresh allocations); when non-nil the returned Factor is
// arena-backed and only valid until the arena is recycled. tc may be nil;
// when set, the stage's busy time is attributed to PhaseStage1Panel and
// PhaseStage1Update and the scheduled run's idle worker-time to
// PhaseStage1Stall.
func Reduce(a *matrix.Dense, cfg Config, job *sched.Job, ws *work.Arena, tc *trace.Collector) *Factor {
	r := newReducer(a, cfg, job, ws, tc)
	workers := job.Workers()
	var start time.Time
	if tc != nil {
		start = time.Now()
	}
	if job.Parallel() {
		r.scheduleLookahead(job)
		job.Wait() // error, if any, surfaces through job.Err at the caller
	} else {
		r.runSeq(job)
	}
	if tc != nil {
		wall := time.Since(start)
		panel := time.Duration(atomic.LoadInt64(&r.panelNs))
		update := time.Duration(atomic.LoadInt64(&r.updateNs))
		tc.AddPhase(trace.PhaseStage1Panel, panel)
		tc.AddPhase(trace.PhaseStage1Update, update)
		// Idle worker-time: the stage held `workers` workers for `wall` but
		// only panel+update of worker-time was busy. Clamped at zero — timer
		// skew can make busy marginally exceed the product on tiny problems.
		if stall := time.Duration(workers)*wall - panel - update; stall > 0 {
			tc.AddPhase(trace.PhaseStage1Stall, stall)
		}
	}
	r.f.Band = extractBand(r.tm, r.f.NB, ws)
	return r.f
}

// newReducer tiles a and sizes the prepared-reflector storage of its Factor,
// and returns the reducer whose kernels run on them. a is only read.
func newReducer(a *matrix.Dense, cfg Config, job *sched.Job, ws *work.Arena, tc *trace.Collector) *reducer {
	n := a.Rows
	if a.Cols != n {
		panic("band: Reduce requires a square matrix")
	}
	nb := cfg.NB
	if nb <= 0 {
		nb = DefaultNB
	}
	tm := ws.Tiles(work.Stage1Tiles, n, nb)
	tm.FromLapack(a)
	sc := stage1For(ws)
	f := &sc.f
	hge, hts := f.Hge, f.Hts
	*f = Factor{N: n, NB: nb, NT: tm.NT, A: tm}
	nt := f.NT
	forms := householder.FormH | householder.FormHT
	if cfg.ValuesOnly {
		forms = householder.FormHT
	}

	// Lay out one buffer for the prepared reflectors: the per-panel sizes are
	// known up front, so it is exact. The list spines (Hge, Hts and its
	// per-panel rows) and the panel offsets are retained across solves.
	np := max(0, nt-1)
	if cap(hge) < np {
		hge = make([]householder.Block, np)
		hts = make([][]householder.Block, np)
	}
	f.Hge, f.Hts = hge[:np], hts[:np]
	r := &sc.r
	panelOff := r.panelOff[:0]
	capP := 0
	for k := 0; k < nt-1; k++ {
		panelOff = append(panelOff, capP)
		m1 := tm.TileRows(k + 1)
		kw := tm.TileCols(k)
		capP += householder.PackedLen(false, m1, min(m1, kw), forms)
		nts := max(0, nt-k-2)
		if cap(f.Hts[k]) < nts {
			f.Hts[k] = make([]householder.Block, nts)
		}
		f.Hts[k] = f.Hts[k][:nts]
		for i := k + 2; i < nt; i++ {
			capP += householder.PackedLen(true, tm.TileRows(i), kw, forms)
		}
	}

	*r = reducer{
		f: f, tm: tm, tc: tc,
		scratch:  ws.WorkerSlabs(work.Stage1Scratch, job.Workers(), scratchLen(nb)),
		named:    job.Traced(),
		forms:    forms,
		packed:   ws.Floats(work.Stage1Packed, capP, false),
		panelOff: panelOff,
	}
	return r
}

// runSeq executes the kernel sequence in submission order on the calling
// goroutine, with a cancellation check per panel. It performs no per-task
// allocations.
func (r *reducer) runSeq(job *sched.Job) {
	nt := r.f.NT
	for k := 0; k < nt-1; k++ {
		if job.Canceled() {
			return
		}
		r.geqrt(k, 0)
		r.syrfb(k, 0)
		for j := k + 2; j < nt; j++ {
			r.ormqrL(k, j, 0)
		}
		for i := k + 2; i < nt; i++ {
			r.tsqrt(k, i, 0)
			for j := k + 1; j < nt; j++ {
				r.tsmqrL(k, i, j, 0)
			}
			r.tsmqrC(k, i, k+1, 0)
			r.tsmqrC(k, i, i, 0)
		}
	}
}

// scheduleLookahead submits runSeq's kernel sequence as tasks with their
// access lists — same kernels, same per-tile submission order; the scheduler
// infers the DAG from that order — under the look-ahead priority scheme:
// panel tasks (GEQRT/TSQRT) at prioPanel, the diagonal SYRFB just under
// them, and every trailing-update task boosted by feedBoost according to the
// nearest panel column among the tiles it writes, out to lookahead panels
// ahead. A task that writes a column-(k+1) copy feeds the next panel
// (distance 1). The transposes that restore symmetry are written by the
// update tasks themselves, so each update's write set includes them; there
// are no separate copy tasks.
//
// Bitwise identity with runSeq holds because priorities only reorder the
// ready queue: which tasks may run concurrently is fixed by the dependences,
// and every per-tile operation sequence is a dependence chain, so no
// floating-point accumulation order can change.
func (r *reducer) scheduleLookahead(job *sched.Job) {
	f, tm, nt := r.f, r.tm, r.f.NT
	for k := 0; k < nt-1; k++ {
		k := k
		job.Submit(sched.Task{
			Name:     r.name("GEQRT", k+1, k),
			Priority: prioPanel,
			Deps: []sched.Dep{
				sched.RW(tm.TileID(k+1, k)), sched.RW(f.resV(k)), sched.RW(f.resR(k)), sched.RW(f.resHge(k)),
			},
			Run: func(w int) { r.geqrt(k, w) },
		})

		// The diagonal update gates the column-(k+1) TSMQR-L chain — just
		// under the panel tasks.
		job.Submit(sched.Task{
			Name:     r.name("SYRFB", k+1, k+1),
			Priority: prioDiag,
			Deps: []sched.Dep{
				sched.RW(tm.TileID(k+1, k+1)), sched.R(f.resV(k)), sched.R(f.resHge(k)),
			},
			Run: func(w int) { r.syrfb(k, w) },
		})
		for j := k + 2; j < nt; j++ {
			j := j
			deps := make([]sched.Dep, 0, 4)
			deps = append(deps, sched.RW(tm.TileID(k+1, j)), sched.R(f.resV(k)), sched.R(f.resHge(k)))
			dist := j - k
			if r.keepColumnCopy(k+1, j) {
				deps = append(deps, sched.RW(tm.TileID(j, k+1)))
				dist = 1
			}
			job.Submit(sched.Task{
				Name:     r.name("ORMQR-L", k+1, j),
				Priority: feedBoost(dist),
				Deps:     deps,
				Run:      func(w int) { r.ormqrL(k, j, w) },
			})
		}

		for i := k + 2; i < nt; i++ {
			i := i
			job.Submit(sched.Task{
				Name:     r.name("TSQRT", i, k),
				Priority: prioPanel,
				Deps: []sched.Dep{
					sched.RW(f.resR(k)), sched.RW(tm.TileID(i, k)), sched.RW(f.resHts(k, i)),
				},
				Run: func(w int) { r.tsqrt(k, i, w) },
			})
			for j := k + 1; j < nt; j++ {
				j := j
				deps := make([]sched.Dep, 0, 6)
				deps = append(deps,
					sched.RW(tm.TileID(k+1, j)), sched.RW(tm.TileID(i, j)),
					sched.R(tm.TileID(i, k)), sched.R(f.resHts(k, i)))
				// Writes column j and, through its transposes, columns i
				// and k+1.
				dist := min(i, j) - k
				if j != k+1 && j != i {
					deps = append(deps, sched.RW(tm.TileID(j, i)))
					if r.keepColumnCopy(i, j) {
						deps = append(deps, sched.RW(tm.TileID(j, k+1)))
						dist = 1
					}
				}
				job.Submit(sched.Task{
					Name:     r.name("TSMQR-L", i, j),
					Priority: feedBoost(dist),
					Deps:     deps,
					Run:      func(w int) { r.tsmqrL(k, i, j, w) },
				})
			}
			for _, row := range [2]int{k + 1, i} {
				row := row
				// Writes tile (row, k+1) — the next panel's column.
				job.Submit(sched.Task{
					Name:     r.name("TSMQR-C", row, i),
					Priority: feedBoost(1),
					Deps: []sched.Dep{
						sched.RW(tm.TileID(row, k+1)), sched.RW(tm.TileID(row, i)),
						sched.R(tm.TileID(i, k)), sched.R(f.resHts(k, i)),
					},
					Run: func(w int) { r.tsmqrC(k, i, row, w) },
				})
			}
		}
	}
}

// extractBand reads the band part out of the reduced tile matrix: the lower
// triangles of the diagonal tiles plus the R triangles of the subdiagonal
// tiles (everything below R is reflector storage, logically zero). The band
// storage comes zeroed from the arena, so only in-band entries are written.
func extractBand(tm *matrix.TileMatrix, nb int, ws *work.Arena) *matrix.SymBand {
	n := tm.N
	b := ws.Band(work.Stage2Band, n, min(nb, max(0, n-1)))
	for j := 0; j < n; j++ {
		jmax := min(n-1, j+b.KD)
		for i := j; i <= jmax; i++ {
			ti, tj := i/nb, j/nb
			if ti == tj {
				b.Set(i, j, tm.At(i, j))
			} else if ti == tj+1 {
				// Subdiagonal tile: only its upper triangle (R) is matrix
				// data.
				ri, ci := i-ti*nb, j-tj*nb
				if ri <= ci {
					b.Set(i, j, tm.At(i, j))
				}
			}
			// ti > tj+1 is reflector storage: zero in B.
		}
	}
	return b
}

// transposeTile writes dst := srcᵀ, where src is an r×c compact column-major
// tile and dst is c×r. It writes dst in memory order, each column gathering
// one row of src: the caller has src hot in cache, and dst is cold.
func transposeTile(src []float64, r, c int, dst []float64) {
	for i := 0; i < r; i++ {
		col := dst[i*c : i*c+c]
		for j := range col {
			col[j] = src[i+j*r]
		}
	}
}

// name labels a task for the scheduler's trace; without a trace nothing reads
// the label and the string is not built.
func (r *reducer) name(kind string, i, j int) string {
	if !r.named {
		return ""
	}
	return kind + "(" + strconv.Itoa(i) + "," + strconv.Itoa(j) + ")"
}
