package backtransform

// colBlockFloor is the narrowest eigenvector column block worth scheduling:
// two of the block-reflector engine's 16-column slabs. Below this a block
// re-reads every prepared reflector for too little work and task overhead
// dominates.
const colBlockFloor = 32

// blocksPerWorker is the target task surplus of the back-transformation:
// enough blocks per worker that the dynamic scheduler can load-balance the
// tail, few enough that each block still amortizes the full Q₂/Q₁ operator
// stream it applies.
const blocksPerWorker = 4

// defaultColBlock picks the eigenvector column-block width of the fused
// back-transformation when the caller leaves it unset: cols is the number of
// eigenvector columns being updated, nb the stage-1 tile size / bandwidth,
// workers the executing pool width. Sequential runs get a cache-friendly
// max(64, nb); parallel runs shrink the block until every worker owns at
// least blocksPerWorker blocks, but never below the floor. With reflectors
// packed once instead of per block the width is no longer a kernel-efficiency
// knob: the sweeps recorded in EXPERIMENTS.md ("Packed compact-WY engine",
// "Autotuner deletion") are flat from 32 to 256 columns at n = 1024, so the
// constants only balance task count against the block's cache footprint
// (n × 64 doubles is 512 KiB at n = 1024, inside L2).
func defaultColBlock(cols, nb, workers int) int {
	cb := max(64, nb)
	if workers > 1 && cols > 0 {
		per := (cols + blocksPerWorker*workers - 1) / (blocksPerWorker * workers)
		cb = max(min(cb, per), colBlockFloor)
	}
	if cols > 0 {
		cb = min(cb, cols)
	}
	return max(cb, 1)
}
