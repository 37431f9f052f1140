// Package tune centralizes the small performance heuristics that more than
// one substrate package must agree on. It is a leaf package (no internal
// imports) so that internal/core, internal/band and internal/backtransform
// can all share one default without import cycles.
package tune

// colBlockFloor is the narrowest eigenvector column block worth scheduling:
// two of the block-reflector engine's 16-column slabs. Below this a block
// re-reads every prepared reflector for too little work and task overhead
// dominates.
const colBlockFloor = 32

// colBlockMin is the hard lower bound (degenerate problems aside, a block is
// never empty).
const colBlockMin = 1

// blocksPerWorker is the target task surplus of the back-transformation:
// enough blocks per worker that the dynamic scheduler can load-balance the
// tail, few enough that each block still amortizes the full Q₂/Q₁ operator
// stream it applies.
const blocksPerWorker = 4

// ColBlock picks the eigenvector column-block width shared by the Q₂ and Q₁
// appliers (and the fused single-pass back-transformation): cols is the
// number of eigenvector columns being updated, nb the stage-1 tile size /
// bandwidth, workers the executing pool width. Sequential runs get a
// cache-friendly max(64, nb); parallel runs shrink the block until every
// worker owns at least blocksPerWorker blocks, but never below the floor.
// With reflectors packed once instead of per block the width is no longer a
// kernel-efficiency knob: the sweep recorded in EXPERIMENTS.md ("Packed
// compact-WY engine") is flat from 32 to 256 columns at n = 1024, so the
// constants only balance task count against the block's cache footprint
// (n × 64 doubles is 512 KiB at n = 1024, inside L2).
func ColBlock(cols, nb, workers int) int {
	cb := 64
	if nb > cb {
		cb = nb
	}
	if workers > 1 && cols > 0 {
		if per := (cols + blocksPerWorker*workers - 1) / (blocksPerWorker * workers); per < cb {
			cb = per
		}
		if cb < colBlockFloor {
			cb = colBlockFloor
		}
	}
	if cols > 0 && cb > cols {
		cb = cols
	}
	if cb < colBlockMin {
		cb = colBlockMin
	}
	return cb
}
