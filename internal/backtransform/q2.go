// Package backtransform implements the eigenvector back-transformation of
// the two-stage algorithm — the paper's core new contribution (§6). Given
// the eigenvectors E of the tridiagonal matrix it computes
//
//	Z = Q₁ · (Q₂ · E)
//
// where Q₂ is the awkward one: its reflectors are length-b slivers arranged
// on a shifted lattice (Figure 3b), which the chase keeps at fixed offsets
// (bulge.Result.Steps, Reflector) and NewPlan reads in closed form.
// Applying them one by one is Level-2 BLAS and memory-bound, so consecutive
// sweeps at the same chase level are aggregated into diamond-shaped blocks
// and applied with the compact WY representation (Level 3), in an order that
// linearizes the bulge-chasing dependence DAG (Figure 3d). Parallelism comes
// from partitioning E into column blocks that never interact (Figure 3c), so
// each core applies every diamond to its own block with no communication.
package backtransform

import (
	"repro/internal/band"
	"repro/internal/blas"
	"repro/internal/bulge"
	"repro/internal/householder"
	"repro/internal/matrix"
	"repro/internal/trace"
	"repro/internal/work"
)

// defaultGroup picks the diamond width for a chase bandwidth b: 16, the
// AVX-512 tile's height, capped at b (and at least 4). A g-reflector
// diamond's Vᵀ is the left operand of its first product, packed in row
// panels of the tile's height, so g = 16 fills one panel where a narrower
// diamond pads the rest with zeros; the aggregated V spans b+g−1 rows, whose
// band of zeros the prepared reflector skips (blas.Packing's skyline), so
// the executed flops do not grow by the paper's (b+g−1)/b. On the 16×8 tile
// g = 16 ran the back-transformation fastest and packed the diamonds in the
// least storage at b = 16, 24, 32 and 48 (EXPERIMENTS.md, "A 16×8 AVX-512
// tile"); other bandwidths were not swept. One width serves every kernel
// family, or results would depend on the probe.
func defaultGroup(b int) int {
	return min(max(b, 4), 16)
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
// workspace arena borrows arena storage (the packed reflectors, the block
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
// the block list backing array and the staging area one diamond's V, T and
// tau are aggregated in before packing.
type planCache struct {
	plan    Plan
	blocks  []diamond
	staging []float64
}

// NewPlan builds the diamond decomposition of Q₂ with the given group size
// (≤ 0 picks a bandwidth-dependent default). ws may be nil.
//
// Diamond (j, ℓ) holds level ℓ of the sweeps [j·g, (j+1)·g). The sweeps that
// have level ℓ are a prefix of the group, because Steps does not increase
// with the sweep: k of them. Reflector (s, ℓ) starts at row s + ℓ·b + 1, one
// row below that of sweep s−1, so the diamond starts at row j·g + ℓ·b + 1 and
// its last reflector, which reaches furthest, ends it after k − 1 + b rows or
// at row n.
func NewPlan(res *bulge.Result, group int, ws *work.Arena) *Plan {
	if group <= 0 {
		group = defaultGroup(res.B)
	}
	cache := work.Value[planCache](ws, work.BacktransPlan)
	p := &cache.plan
	*p = Plan{n: res.N, ws: ws}
	if len(res.Tau) == 0 {
		return p
	}
	n, b := res.N, res.B
	nBlocks, packed, maxK, maxRows := layout(n, b, group)
	p.maxK, p.maxRows = maxK, maxRows
	store := ws.Floats(work.BacktransSlab, packed, false)
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
	// (group index j descending, level ascending), each packed at the next
	// offset of the storage.
	blocks := cache.blocks[:0]
	at := 0
	for j := (n - 3) / group; j >= 0; j-- {
		for l := 0; l < res.Steps(0); l++ {
			rowStart, rows, k := diamondShape(n, b, group, j, l)
			if k == 0 {
				continue
			}
			v, t, tau := vbuf[:rows*k], tbuf[:k*k], taubuf[:k]
			clear(v)
			for c := range k {
				var vc []float64
				_, vc, tau[c] = res.Reflector(j*group+c, l)
				copy(v[c+1+c*rows:], vc)
			}
			householder.Larft(rows, k, v, rows, tau, t, k)
			size := householder.PackedLen(false, rows, k, householder.FormH)
			blocks = append(blocks, diamond{rowStart: rowStart, rows: rows, k: k})
			blocks[len(blocks)-1].h.Prepare(false, rows, k, v, rows, t, k, householder.FormH,
				store[at:at+size:at+size], prepWork)
			at += size
		}
	}
	cache.blocks = blocks
	p.blocks = blocks
	return p
}

// diamondShape is diamond (j, ℓ) of a chase of order n and bandwidth b in
// groups of g sweeps: the row of its first reflector's implicit 1, its row
// span, and its reflector count k, 0 for no diamond.
func diamondShape(n, b, g, j, l int) (rowStart, rows, k int) {
	lo := j * g
	for k < min(g, n-2-lo) && bulge.SweepSteps(n, b, lo+k) > l {
		k++
	}
	rowStart = lo + l*b + 1
	return rowStart, min(k-1+b, n-rowStart), k
}

// layout is NewPlan's first pass over the diamonds of a chase of order n and
// bandwidth b in groups of g sweeps: their count, the length of their
// prepared form, and the widest and the tallest. Sweeps 0 … n−3 have
// kernels, sweep 0 the most. It takes O(n) steps: a group's first levels
// are whole diamonds of one shape, counted at once, and only the few below
// them are shaped one by one.
func layout(n, b, g int) (blocks, packed, maxK, maxRows int) {
	add := func(count, rows, k int) {
		blocks += count
		packed += count * householder.PackedLen(false, rows, k, householder.FormH)
		maxK, maxRows = max(maxK, k), max(maxRows, rows)
	}
	for lo := 0; lo < n-2; lo += g {
		// Levels below full have all kf sweeps and their kf − 1 + b rows.
		kf := min(g, n-2-lo)
		full := min(bulge.SweepSteps(n, b, lo+kf-1), (n-lo-kf)/b)
		if full > 0 {
			add(full, kf-1+b, kf)
		}
		for l := full; l < bulge.SweepSteps(n, b, lo); l++ {
			_, rows, k := diamondShape(n, b, g, lo/g, l)
			add(1, rows, k)
		}
	}
	return blocks, packed, maxK, maxRows
}

// Workspace is the float64 storage the back-transformation keeps in its
// arena for a chase of order n and bandwidth b whose stage 1 ran at tile size
// nb, on the given number of workers: the prepared Q₂ diamonds (NewPlan) and
// each worker's scratch for the fused pass (ApplyFused).
func Workspace(n, b, nb, workers int) int {
	_, packed, maxK, maxRows := layout(n, b, defaultGroup(b))
	p, f := Plan{maxK: maxK, maxRows: maxRows}, band.Factor{NB: nb}
	return packed + work.SlabsLen(workers, max(p.Work(), f.Q1Work()))
}

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
// decomposition.
func ApplyNaive(res *bulge.Result, e *matrix.Dense, tc *trace.Collector) {
	if e.Rows != res.N {
		panic("backtransform: E row count mismatch")
	}
	work := make([]float64, e.Cols)
	for s := res.N - 3; s >= 0; s-- {
		for l := res.Steps(s) - 1; l >= 0; l-- {
			row, vs, tau := res.Reflector(s, l)
			if tau == 0 {
				continue
			}
			v := append([]float64{1}, vs...)
			sub := e.View(row, 0, len(v), e.Cols)
			householder.Larf(blas.Left, len(v), e.Cols, v, 1, tau, sub.Data, sub.Stride, work)
			tc.AddFlops(trace.KLarf, 4*int64(len(v))*int64(e.Cols))
		}
	}
}
