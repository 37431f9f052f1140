package eigen

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/sched"
	"repro/internal/trace"
)

// batchFanout is the matrix order at or above which a batch item fans out
// into per-tile tasks on the shared scheduler. Below it the item's whole
// solve runs sequentially on the goroutine SolveBatch gave it: for small
// problems the per-tile DAG has too little work per task to amortize
// dependence tracking, and several whole solves side by side parallelize
// better. Tests lower it to force the fan-out shape.
var batchFanout = 512

// BatchItem describes one independent eigenproblem in a SolveBatch call.
// The zero value of the optional fields requests a full eigendecomposition
// with solver-allocated vectors, matching Solver.Eig.
type BatchItem struct {
	// A is the symmetric input matrix.
	A *Matrix
	// Dst, when non-nil, receives the eigenvectors in place (as in EigTo).
	// It must be n×k where k is the number of requested pairs (n for the
	// full spectrum), and must not be combined with ValuesOnly.
	Dst *Matrix
	// ValuesOnly skips the eigenvector computation.
	ValuesOnly bool
	// IL, IU select eigenpairs il..iu (1-based, ascending, inclusive) as in
	// EigRange; both zero means the full spectrum.
	IL, IU int
}

// BatchResult is the outcome of one BatchItem. Exactly one of Err or the
// value fields is meaningful: on error Values and Vectors are nil.
type BatchResult struct {
	// Values are the computed eigenvalues in ascending order.
	Values []float64
	// Vectors holds the matching eigenvectors (nil for ValuesOnly items; the
	// Dst matrix when one was supplied).
	Vectors *Matrix
	// Err is the item's error: validation errors (*NotFiniteError,
	// *RangeError, shape errors), ErrNoConvergence, the context error, or
	// ErrClosed. An item's failure never affects the other items.
	Err error
	// Trace holds the item's own phase timings and flop counts when the
	// Solver was built with a Collector (which also receives the merged
	// totals); nil otherwise.
	Trace *trace.Collector
}

// SolveBatch solves many independent eigenproblems concurrently over the
// Solver's shared scheduler and workspace pool, returning one BatchResult
// per item (index-aligned with items). Results are bitwise identical to
// solving each item alone on the same Solver.
//
// Admission control bounds the resource footprint: at most
// Options.BatchConcurrency items (default: the scheduler width) are in
// flight, and when Options.MemoryBudget is set, items wait until their
// estimated workspace footprint fits under it. The gate is per-Solver, not
// per-call: concurrent SolveBatch calls (for example one per network job in
// a serving layer) share the same slots and budget, so the Solver's
// footprint is bounded no matter how many callers feed it. Every item runs
// on its own goroutine: an admitted item of order below 512 solves there
// sequentially, exactly as on a sequential Solver, so distinct small items
// run side by side; a larger one fans out into the usual per-tile task DAG
// on the shared scheduler. On a sequential Solver (Workers ≤ 1) the default
// gate admits one item at a time.
//
// SolveBatch never fails as a whole: per-item errors (invalid shapes,
// non-finite entries, non-convergence, cancellation) land in the matching
// BatchResult.Err and leave the Solver and every other item untouched.
func (s *Solver) SolveBatch(ctx context.Context, items []BatchItem) []BatchResult {
	out := make([]BatchResult, len(items))
	if len(items) == 0 {
		return out
	}
	s.mu.Lock()
	closed, scheduler := s.closed, s.sched
	s.mu.Unlock()
	if closed {
		for i := range out {
			out[i].Err = ErrClosed
		}
		return out
	}

	if ctx != nil {
		// Wake gate waiters when the context dies so they can return its
		// error instead of blocking on slots that canceled items still hold.
		stop := context.AfterFunc(ctx, s.gate.broadcast)
		defer stop()
	}

	var wg sync.WaitGroup
	for i := range items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = s.batchSolve(ctx, &items[i], scheduler)
		}(i)
	}
	wg.Wait()
	return out
}

// batchSolve validates, admits, and runs one batch item.
func (s *Solver) batchSolve(ctx context.Context, it *BatchItem, scheduler *sched.Scheduler) BatchResult {
	if err := validateBatchItem(it); err != nil {
		return BatchResult{Err: err}
	}
	n := it.A.r
	vectors := !it.ValuesOnly

	// Per-item collector: the item's own trace is reported in the result and
	// merged into the Solver-level collector, so concurrent items do not
	// interleave their phase timings.
	var tc *trace.Collector
	if s.opts.Collector != nil {
		tc = trace.New()
	}

	// Admission runs against the Solver's persistent gate (BatchConcurrency
	// slots + MemoryBudget bytes, shared by every concurrent SolveBatch
	// call).
	cost := s.EstimateWorkspaceBytes(n, vectors)
	waitStart := time.Now()
	if err := s.gate.acquire(ctx, cost); err != nil {
		return BatchResult{Err: err}
	}
	tc.AddPhase(trace.PhaseBatchWait, time.Since(waitStart))
	defer s.gate.release(cost)

	if n < batchFanout {
		scheduler = nil // a small item solves inline on this goroutine
	}
	res, err := s.runSolve(ctx, scheduler, tc, it.A, it.Dst, vectors, it.IL, it.IU)

	r := BatchResult{Err: err}
	if err == nil {
		r.Values = res.Values
		r.Vectors = res.Vectors
	}
	if tc != nil {
		s.opts.Collector.Merge(tc)
		r.Trace = tc
	}
	return r
}

// validateBatchItem rejects malformed items before any work is admitted.
func validateBatchItem(it *BatchItem) error {
	if it.A == nil {
		return fmt.Errorf("eigen: batch item has a nil matrix")
	}
	if it.A.r != it.A.c {
		return fmt.Errorf("eigen: matrix must be square, got %d×%d", it.A.r, it.A.c)
	}
	// The range check is independent of how results are returned: it used to
	// live inside the Dst branch, so a values-only or nil-Dst item with an
	// invalid range passed validation, burned an admission slot, and only
	// failed later inside the pipeline. Every item fails fast here instead.
	n := it.A.r
	k := n
	if it.IL != 0 || it.IU != 0 {
		if it.IL < 1 || it.IU > n || it.IL > it.IU {
			return &RangeError{IL: it.IL, IU: it.IU, N: n}
		}
		k = it.IU - it.IL + 1
	}
	if it.Dst != nil {
		if it.ValuesOnly {
			return fmt.Errorf("eigen: batch item sets both Dst and ValuesOnly")
		}
		if it.Dst.r != n || it.Dst.c != k {
			return fmt.Errorf("eigen: batch destination is %d×%d, want %d×%d", it.Dst.r, it.Dst.c, n, k)
		}
	}
	return nil
}

// batchGate is the admission controller for SolveBatch: a counted slot pool
// plus an optional byte budget. A solve needs one slot and (when a budget is
// set) its estimated workspace bytes; costs above the budget are clamped to
// it, so oversized problems run alone rather than deadlocking. One instance
// lives on each Solver (shared by every SolveBatch call, see NewSolver).
type batchGate struct {
	mu     sync.Mutex
	cond   *sync.Cond
	slots  int
	budget int64 // 0 = unlimited
	avail  int64 // remaining bytes under the budget
}

func newBatchGate(slots int, budget int64) *batchGate {
	g := &batchGate{slots: slots, budget: budget, avail: budget}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// acquire blocks until a slot (and budget headroom) is available or ctx is
// done.
func (g *batchGate) acquire(ctx context.Context, cost int64) error {
	if g.budget > 0 && cost > g.budget {
		cost = g.budget
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if g.slots > 0 && (g.budget == 0 || g.avail >= cost) {
			g.slots--
			if g.budget > 0 {
				g.avail -= cost
			}
			return nil
		}
		g.cond.Wait()
	}
}

// release returns a slot and budget bytes taken by acquire.
func (g *batchGate) release(cost int64) {
	if g.budget > 0 && cost > g.budget {
		cost = g.budget
	}
	g.mu.Lock()
	g.slots++
	if g.budget > 0 {
		g.avail += cost
	}
	g.mu.Unlock()
	g.cond.Broadcast()
}

// broadcast wakes all acquire waiters (used on context cancellation).
func (g *batchGate) broadcast() {
	g.mu.Lock()
	g.mu.Unlock() //nolint:staticcheck // empty critical section orders the wakeup
	g.cond.Broadcast()
}
