// Package trace provides the lightweight accounting layer used to
// regenerate the paper's Tables 1–2 and Figure 1 from measured data: flop
// counters per kernel class and wall-clock timers per solver phase. All
// counters are atomic so kernels running under the task scheduler can report
// concurrently; the cost is a few nanoseconds per kernel invocation, far
// below kernel granularity.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kernel classes whose flops are tracked separately. The split mirrors the
// paper's discussion: Level 3 (compute-bound) versus Level 2/1
// (memory-bound) work determines the achievable rate of each phase.
const (
	KGemm  = "gemm"  // general matrix multiply (Level 3)
	KSyrk  = "syr2k" // symmetric rank-2k update (Level 3)
	KTrmm  = "trmm"  // triangular multiply (Level 3)
	KSymv  = "symv"  // symmetric matrix-vector (Level 2, memory-bound)
	KGemv  = "gemv"  // general matrix-vector (Level 2, memory-bound)
	KLarf  = "larf"  // unblocked reflector application (Level 2)
	KLarfb = "larfb" // blocked reflector application (Level 3)
	KOther = "other" // Level 1 and scalar work
)

// Phase names used by the drivers.
const (
	PhaseReduction = "reduction"  // dense → tridiagonal (both stages)
	PhaseStage1    = "stage1"     // dense → band
	PhaseStage2    = "stage2"     // band → tridiagonal (bulge chasing)
	PhaseEigT      = "eig_t"      // tridiagonal eigensolver
	PhaseUpdateQ2  = "update_q2"  // Q2 flop share of back_trans (attribution only)
	PhaseUpdateQ1  = "update_q1"  // Q1 flop share of back_trans (attribution only)
	PhaseBacktrans = "back_trans" // total back-transformation (both pipelines)

	// PhaseBatchWait is the time a batch item spent blocked in SolveBatch's
	// admission gate (concurrency slots + memory-budget reservation) before
	// its first phase ran. It is recorded into the item's own collector, so
	// per-item traces separate queueing delay from compute — without it,
	// admission pressure would be invisible in the per-phase breakdown and
	// look like a slow stage 1.
	PhaseBatchWait = "batch_wait"

	// Attribution-only sub-phases of the stage-1 reduction. The stage runs
	// under one wall-clock phase (PhaseStage1); the reducer credits the busy
	// time of its kernels here, split by task class, plus the idle
	// worker-time of the scheduled run — which is how the look-ahead
	// restructure proves the panel factorization left the critical path
	// (look-ahead shrinks stall without changing panel/update work).
	PhaseStage1Panel  = "stage1_panel"  // GEQRT/TSQRT/SYRFB (panel factorization chain)
	PhaseStage1Update = "stage1_update" // trailing-update kernels and the transposes they write
	// PhaseStage1Stall is workers·wall − busy for the stage: the worker-time
	// spent idle waiting for dependences (plus scheduler overhead). On an
	// oversubscribed host it also absorbs time-sharing noise, so compare
	// stall between runs of the same width, not across widths.
	PhaseStage1Stall = "stage1_stall"

	// Attribution-only sub-phases of the tridiagonal stage. eig_t runs
	// under one wall-clock phase; the solvers credit coarse flop estimates
	// of their kernels here via AttributeFlops (the same side-channel the
	// fused back-transformation uses), so the D&C recurse/merge and
	// bisection/inverse-iteration shares of the phase stay reconstructible
	// even when the stage executes as one task DAG.
	PhaseEigTRecurse = "eig_t_recurse" // QR base cases / sequential subtrees
	PhaseEigTMerge   = "eig_t_merge"   // secular solves + rank-one update GEMM
	PhaseEigTBisect  = "eig_t_bisect"  // Sturm-count bisection (StebzSched)
	PhaseEigTStein   = "eig_t_stein"   // inverse iteration + cluster MGS
)

// Collector accumulates flops per kernel class and durations per phase. The
// zero value is ready to use. A nil *Collector is valid everywhere and
// records nothing, so instrumented code needs no conditionals.
type Collector struct {
	mu     sync.Mutex
	flops  map[string]*int64
	attr   map[string]*int64
	phases map[string]time.Duration
}

// New returns an empty collector.
func New() *Collector {
	return &Collector{flops: make(map[string]*int64), attr: make(map[string]*int64), phases: make(map[string]time.Duration)}
}

// AddFlops records n floating-point operations under the kernel class.
func (c *Collector) AddFlops(kernel string, n int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.flops == nil {
		c.flops = make(map[string]*int64)
	}
	p, ok := c.flops[kernel]
	if !ok {
		p = new(int64)
		c.flops[kernel] = p
	}
	c.mu.Unlock()
	atomic.AddInt64(p, n)
}

// AttributeFlops credits n flops to a named phase. It is the accounting
// side-channel of fused phases: the fused back-transformation runs under one
// wall-clock phase but attributes its work to PhaseUpdateQ2/PhaseUpdateQ1 so
// phase breakdowns (Figure 1) can split the fused time by flop share.
// Attributed flops are bookkeeping only — they never add to TotalFlops (the
// kernels already counted them by class).
func (c *Collector) AttributeFlops(phase string, n int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.attr == nil {
		c.attr = make(map[string]*int64)
	}
	p, ok := c.attr[phase]
	if !ok {
		p = new(int64)
		c.attr[phase] = p
	}
	c.mu.Unlock()
	atomic.AddInt64(p, n)
}

// AttributedFlops returns the flops credited to a phase via AttributeFlops.
func (c *Collector) AttributedFlops(phase string) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.attr[phase]; ok {
		return atomic.LoadInt64(p)
	}
	return 0
}

// Flops returns the recorded count for a kernel class.
func (c *Collector) Flops(kernel string) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.flops[kernel]; ok {
		return atomic.LoadInt64(p)
	}
	return 0
}

// TotalFlops sums all kernel classes.
func (c *Collector) TotalFlops() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var t int64
	for _, p := range c.flops {
		t += atomic.LoadInt64(p)
	}
	return t
}

// Phase runs fn and adds its wall time to the named phase.
func (c *Collector) Phase(name string, fn func()) {
	if c == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	d := time.Since(start)
	c.mu.Lock()
	c.phases[name] += d
	c.mu.Unlock()
}

// AddPhase adds a duration to a phase directly.
func (c *Collector) AddPhase(name string, d time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.phases[name] += d
	c.mu.Unlock()
}

// PhaseTime returns the accumulated time of a phase.
func (c *Collector) PhaseTime(name string) time.Duration {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.phases[name]
}

// Phases returns a copy of all phase durations.
func (c *Collector) Phases() map[string]time.Duration {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]time.Duration, len(c.phases))
	for k, v := range c.phases {
		out[k] = v
	}
	return out
}

// Merge adds src's flop counters, attributed flops and phase durations into
// c. It is how the batch layer gives every co-scheduled solve its own
// collector (so per-solve timings stay attributable) while the Solver's
// caller-supplied collector still sees the aggregate. src is snapshotted
// under its own lock; concurrent recording into src during the merge may or
// may not be included.
func (c *Collector) Merge(src *Collector) {
	if c == nil || src == nil || c == src {
		return
	}
	src.mu.Lock()
	flops := make(map[string]int64, len(src.flops))
	for k, p := range src.flops {
		flops[k] = atomic.LoadInt64(p)
	}
	attr := make(map[string]int64, len(src.attr))
	for k, p := range src.attr {
		attr[k] = atomic.LoadInt64(p)
	}
	phases := make(map[string]time.Duration, len(src.phases))
	for k, v := range src.phases {
		phases[k] = v
	}
	src.mu.Unlock()
	for k, v := range flops {
		c.AddFlops(k, v)
	}
	for k, v := range attr {
		c.AttributeFlops(k, v)
	}
	for k, v := range phases {
		c.AddPhase(k, v)
	}
}

// Reset clears all counters and phases.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flops = make(map[string]*int64)
	c.attr = make(map[string]*int64)
	c.phases = make(map[string]time.Duration)
}
