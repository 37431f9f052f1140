// Package backtransform implements the eigenvector back-transformation of
// the two-stage algorithm — the paper's core new contribution (§6). Given
// the eigenvectors E of the tridiagonal matrix it computes
//
//	Z = Q₁ · (Q₂ · E)
//
// where Q₂ is the awkward one: its reflectors are length-b slivers arranged
// on a shifted lattice (Figure 3b). Applying them one by one is Level-2
// BLAS and memory-bound, so consecutive sweeps at the same chase level are
// aggregated into diamond-shaped blocks and applied with the compact WY
// representation (Level 3), in an order that linearizes the bulge-chasing
// dependence DAG (Figure 3d). Parallelism comes from partitioning E into
// column blocks that never interact (Figure 3c), so each core applies every
// diamond to its own block with no communication.
package backtransform

import (
	"repro/internal/blas"
	"repro/internal/bulge"
	"repro/internal/householder"
	"repro/internal/matrix"
	"repro/internal/trace"
	"repro/internal/work"
)

// defaultGroup picks the diamond width for a chase bandwidth b: b/4, kept in
// [4, 16]. Wider diamonds give the second kernel pass a longer k and cut the
// number of blocks, but the aggregated V spans b+g−1 rows; the prepared
// reflector skips the zeros of that band (blas.Packing's skyline), so the
// executed flops no longer grow by the paper's (b+g−1)/b, only the storage
// does — 2·(b+g−1)·g values per diamond. The sweep recorded in EXPERIMENTS.md
// ("Packed compact-WY engine") is flat within 3 % from g = 12 to 32 at
// b = 48, so the narrowest width on the plateau stays the default; the traced
// flop count (4·rows·k·n, zeros included) is also unchanged that way.
func defaultGroup(b int) int {
	g := b / 4
	if g < 4 {
		g = 4
	}
	if g > 16 {
		g = 16
	}
	return g
}

// diamond is one aggregated block of reflectors: group j covers sweeps
// [j·g, (j+1)·g) at a fixed chase level. Only the prepared form is kept: the
// aggregated V and its T factor live in plan scratch just long enough to be
// packed.
type diamond struct {
	rowStart int // global row of the first reflector's implicit 1
	rows     int // row span of the aggregated V
	k        int // number of reflectors (columns of V)
	h        householder.Block
}

// Plan precomputes the diamond blocks of Q₂ for a chase result, so repeated
// applications (e.g. to different eigenvector sets) skip the aggregation.
// NewPlan is the one place a diamond is prepared (householder.Block, H form
// only — Q₂ is never applied transposed); every column block of every
// application then consumes the same packed operands. A Plan built with a
// workspace arena borrows arena storage (the packed-reflector slab, the block
// list) and is only valid until the arena is recycled.
type Plan struct {
	n       int
	maxK    int // widest diamond
	maxRows int // tallest diamond; with maxK it bounds the apply workspace
	ws      *work.Arena
	// blocks in application order for Q₂·E (valid DAG linearization:
	// sweep-group descending, level ascending within a group).
	blocks []diamond
}

// planCache is the retained per-arena aggregation scratch: the Plan header,
// the (sweep, level) lattice index, the block list backing array and the
// staging area one diamond's V, T and tau are aggregated in before packing.
type planCache struct {
	plan    Plan
	idx     []int32
	blocks  []diamond
	staging []float64
}

// NewPlan builds the diamond decomposition of Q₂ with the given group size
// (≤ 0 picks a bandwidth-dependent default). ws may be nil.
func NewPlan(res *bulge.Result, group int, ws *work.Arena) *Plan {
	if group <= 0 {
		group = defaultGroup(res.B)
	}
	cache, _ := ws.Value(work.BacktransPlan).(*planCache)
	if cache == nil {
		cache = &planCache{} // nil ws: fresh each call, SetValue is a no-op
		ws.SetValue(work.BacktransPlan, cache)
	}
	p := &cache.plan
	*p = Plan{n: res.N, ws: ws}
	if len(res.Refs) == 0 {
		return p
	}

	// Index reflectors on the (sweep, level) lattice.
	maxSweep, maxLevel := 0, 0
	for i := range res.Refs {
		r := &res.Refs[i]
		if r.Sweep > maxSweep {
			maxSweep = r.Sweep
		}
		if r.Level > maxLevel {
			maxLevel = r.Level
		}
	}
	nl := maxLevel + 1
	idxLen := (maxSweep + 1) * nl
	if cap(cache.idx) < idxLen {
		cache.idx = make([]int32, idxLen)
	}
	idx := cache.idx[:idxLen]
	for i := range idx {
		idx[i] = -1
	}
	for i := range res.Refs {
		r := &res.Refs[i]
		idx[r.Sweep*nl+r.Level] = int32(i)
	}
	at := func(s, l int) *bulge.Reflector {
		if i := idx[s*nl+l]; i >= 0 {
			return &res.Refs[i]
		}
		return nil
	}

	// diamondShape measures group j, level l without building it: the row
	// span and reflector count of the aggregated block.
	ng := maxSweep/group + 1
	diamondShape := func(j, l int) (lo, rowStart, rows, k int) {
		lo = j * group
		hi := min(lo+group, maxSweep+1)
		rowStart, rowEnd := -1, 0
		for s2 := lo; s2 < hi; s2++ {
			r := at(s2, l)
			if r == nil {
				continue
			}
			if rowStart < 0 {
				rowStart = r.Row - (r.Sweep - lo)
			}
			if c := r.Sweep - lo; c+1 > k {
				k = c + 1
			}
			if end := r.Row + len(r.V); end+1 > rowEnd {
				rowEnd = end + 1
			}
		}
		if k > 0 {
			rows = rowEnd - rowStart
		}
		return
	}

	// First pass: count blocks and size the packed-reflector slab exactly.
	nBlocks, slabCap := 0, 0
	for j := ng - 1; j >= 0; j-- {
		for l := 0; l < nl; l++ {
			_, _, rows, k := diamondShape(j, l)
			if k == 0 {
				continue
			}
			nBlocks++
			slabCap += householder.PackedLen(false, rows, k, householder.FormH)
			p.maxK = max(p.maxK, k)
			p.maxRows = max(p.maxRows, rows)
		}
	}
	slab := ws.SlabOf(work.BacktransSlab, slabCap)
	if cap(cache.blocks) < nBlocks {
		cache.blocks = make([]diamond, 0, nBlocks)
	}
	nv, nt := p.maxRows*p.maxK, p.maxK*p.maxK
	if need := nv + nt + p.maxK + householder.PrepareWork(p.maxRows, p.maxK); cap(cache.staging) < need {
		cache.staging = make([]float64, need)
	}
	vbuf, tbuf, taubuf := cache.staging[:nv], cache.staging[nv:nv+nt], cache.staging[nv+nt:nv+nt+p.maxK]
	prepWork := cache.staging[nv+nt+p.maxK:]

	// Second pass: build the diamonds in application order for Q₂·E
	// (group index j descending, level ascending).
	blocks := cache.blocks[:0]
	for j := ng - 1; j >= 0; j-- {
		for l := 0; l < nl; l++ {
			lo, rowStart, rows, k := diamondShape(j, l)
			if k == 0 {
				continue
			}
			v, t, tau := vbuf[:rows*k], tbuf[:k*k], taubuf[:k]
			clear(v)
			clear(tau)
			hi := min(lo+group, maxSweep+1)
			for s2 := lo; s2 < hi; s2++ {
				r := at(s2, l)
				if r == nil {
					continue
				}
				c := r.Sweep - lo
				local := r.Row - rowStart
				if local != c {
					// The lattice guarantees a one-row shift per sweep;
					// anything else is a logic error upstream.
					panic("backtransform: reflector off the diamond lattice")
				}
				tau[c] = r.Tau
				copy(v[local+1+c*rows:], r.V)
			}
			householder.Larft(rows, k, v, rows, tau, t, k)
			blocks = append(blocks, diamond{rowStart: rowStart, rows: rows, k: k})
			blocks[len(blocks)-1].h.Prepare(false, rows, k, v, rows, t, k, householder.FormH,
				slab.Take(householder.PackedLen(false, rows, k, householder.FormH)), prepWork)
		}
	}
	cache.blocks = blocks
	p.blocks = blocks
	return p
}

// NumBlocks reports how many diamond blocks the plan holds.
func (p *Plan) NumBlocks() int { return len(p.blocks) }

// Work is the scratch ApplyBlock needs, whatever the block's width.
func (p *Plan) Work() int {
	return householder.ApplyWork(blas.Left, p.maxRows, p.maxK, 0)
}

// FlopsPerCol returns the flops Q₂ application spends per eigenvector
// column (the Larfb cost summed over all diamonds). The fused path uses it
// to attribute the Q₂ share of its single wall-clock phase.
func (p *Plan) FlopsPerCol() int64 {
	var f int64
	for i := range p.blocks {
		d := &p.blocks[i]
		f += 4 * int64(d.rows) * int64(d.k)
	}
	return f
}

// ApplyBlock computes E := Q₂·E using the diamond blocks, where e is E or
// any column block of it: the columns never interact (Figure 3c), so the
// fused back-transformation gives each of its tasks one block and the result
// does not depend on the partition. e must have as many rows as the chased
// matrix; work must hold at least Work() floats. tc may be nil.
func (p *Plan) ApplyBlock(e *matrix.Dense, work []float64, tc *trace.Collector) {
	for i := range p.blocks {
		d := &p.blocks[i]
		sub := e.View(d.rowStart, 0, d.rows, e.Cols)
		d.h.Apply(blas.Left, blas.NoTrans, e.Cols, sub.Data, sub.Stride, work)
		tc.AddFlops(trace.KLarfb, 4*int64(d.rows)*int64(e.Cols)*int64(d.k))
	}
}

// ApplyNaive computes E := Q₂·E one reflector at a time in reverse
// generation order — the memory-bound Level-2 reference implementation the
// paper's blocked scheme replaces. It is used to validate the diamond
// decomposition and as the ablation baseline.
func ApplyNaive(res *bulge.Result, e *matrix.Dense, tc *trace.Collector) {
	if e.Rows != res.N {
		panic("backtransform: E row count mismatch")
	}
	work := make([]float64, e.Cols)
	for i := len(res.Refs) - 1; i >= 0; i-- {
		r := &res.Refs[i]
		if r.Tau == 0 {
			continue
		}
		v := make([]float64, len(r.V)+1)
		v[0] = 1
		copy(v[1:], r.V)
		sub := e.View(r.Row, 0, len(v), e.Cols)
		householder.Larf(blas.Left, len(v), e.Cols, v, 1, r.Tau, sub.Data, sub.Stride, work)
		tc.AddFlops(trace.KLarf, 4*int64(len(v))*int64(e.Cols))
	}
}
