package tridiag

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/trace"
)

// parTestWorkers are the scheduler widths the bitwise-identity tests sweep:
// degenerate (1), even, a power of two, and an odd width that does not
// divide typical task counts.
var parTestWorkers = []int{1, 2, 4, 7}

// parShapes are the tridiagonal families exercising distinct D&C regimes.
func parShapes(t *testing.T) map[string]struct{ d, e []float64 } {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	shapes := make(map[string]struct{ d, e []float64 })
	d, e := randTridiag(rng, 300)
	shapes["random300"] = struct{ d, e []float64 }{d, e}
	d, e = laplacian121(257)
	shapes["laplacian257"] = struct{ d, e []float64 }{d, e}
	d, e = wilkinson(21)
	shapes["wilkinson21"] = struct{ d, e []float64 }{d, e}
	d, e = wilkinson(201)
	shapes["wilkinson201"] = struct{ d, e []float64 }{d, e}
	// Rank-one perturbed identity: almost every merge eigenvalue deflates,
	// hitting the k≈0 merge path (empty GEMM tiles, pure deflation copies).
	n := 220
	d = make([]float64, n)
	e = make([]float64, n-1)
	for i := range d {
		d[i] = 1
	}
	e[n/2] = 1e-8
	e[3] = 0.5
	shapes["deflate220"] = struct{ d, e []float64 }{d, e}
	// Exact zeros in e: decoupled merges interleaved with rank-one ones.
	d, e = randTridiag(rng, 190)
	e[50], e[95], e[140] = 0, 0, 0
	shapes["decoupled190"] = struct{ d, e []float64 }{d, e}
	// A GOE tridiagonal times 2^±1000: its largest entry lies outside
	// [ssfmin, ssfmax], so StebzSched and SteinSched solve a copy scaled by
	// a power of two (see scaledPath).
	for _, s := range []int{1000, -1000} {
		d, e = goeTridiag(rng, 150)
		for i := range d {
			d[i] = math.Ldexp(d[i], s)
		}
		for i := range e {
			e[i] = math.Ldexp(e[i], s)
		}
		shapes[fmt.Sprintf("goe150*2^%d", s)] = struct{ d, e []float64 }{d, e}
	}
	return shapes
}

// scaledPath reports whether StebzSched and SteinSched solve (d, e) scaled
// by a power of two rather than as given.
func scaledPath(d, e []float64) bool { return sterfScale(d, e) != 0 }

// stedcOneLeaf is the reference of the D&C bitwise tests: StedcSched inline
// with the whole problem as one leaf, which is the plain recursion.
func stedcOneLeaf(d, e []float64) ([]float64, *matrix.Dense, error) {
	defer func(c int) { dcParCutoff = c }(dcParCutoff)
	dcParCutoff = len(d)
	return stedc(d, e)
}

func sameMat(a, b *matrix.Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			// Bitwise: distinguishes ±0 and would catch any NaN drift.
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

func sameVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestStedcSchedBitwiseIdentity pins the tentpole determinism claim: the
// task-DAG D&C produces bitwise identical eigenvalues AND eigenvectors to
// the plain recursion (stedcOneLeaf), at every worker count, on every shape —
// including the inline (nil-job) path, which must also match.
func TestStedcSchedBitwiseIdentity(t *testing.T) {
	for name, sh := range parShapes(t) {
		refVals, refQ, err := stedcOneLeaf(sh.d, sh.e)
		if err != nil {
			t.Fatalf("%s: one-leaf StedcSched failed: %v", name, err)
		}
		// Inline path (no scheduler).
		ws := NewWorkSet(1)
		vals, q, err := StedcSched(sh.d, sh.e, ws, nil, 0, nil)
		if err != nil {
			t.Fatalf("%s: inline StedcSched failed: %v", name, err)
		}
		if !sameVec(vals, refVals) || !sameMat(q, refQ) {
			t.Errorf("%s: inline StedcSched differs from the one-leaf solve", name)
		}
		for _, workers := range parTestWorkers {
			s := sched.New(workers)
			set := NewWorkSet(workers)
			// Two solves per set: the second runs in warm (reused) planes,
			// catching stale-buffer contamination.
			for pass := 0; pass < 2; pass++ {
				job := s.NewJob(nil)
				vals, q, err := StedcSched(sh.d, sh.e, set, job, 0, nil)
				if err != nil {
					t.Fatalf("%s workers=%d pass=%d: %v", name, workers, pass, err)
				}
				if !sameVec(vals, refVals) {
					t.Errorf("%s workers=%d pass=%d: eigenvalues differ", name, workers, pass)
				}
				if !sameMat(q, refQ) {
					t.Errorf("%s workers=%d pass=%d: eigenvectors differ", name, workers, pass)
				}
			}
			s.Shutdown()
		}
	}
}

// TestStedcSchedCutoffNeutral verifies the granularity tunable never leaks
// into the numbers: any dcParCutoff yields bitwise identical results.
func TestStedcSchedCutoffNeutral(t *testing.T) {
	defer func(c int) { dcParCutoff = c }(dcParCutoff)
	rng := rand.New(rand.NewSource(7))
	d, e := randTridiag(rng, 310)
	refVals, refQ, err := stedcOneLeaf(d, e)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.New(3)
	defer s.Shutdown()
	for _, cutoff := range []int{8, 33, 64, 150, 1000} {
		dcParCutoff = cutoff
		set := NewWorkSet(3)
		vals, q, err := StedcSched(d, e, set, s.NewJob(nil), 0, nil)
		if err != nil {
			t.Fatalf("cutoff=%d: %v", cutoff, err)
		}
		if !sameVec(vals, refVals) || !sameMat(q, refQ) {
			t.Errorf("cutoff=%d: results differ from the one-leaf solve", cutoff)
		}
	}
}

// stebzNaive is the pre-sharing reference: one independent bisection per
// eigenvalue, restarted from the global bracket. It is the algorithm the
// shared-count stebzInto replaced and must still reproduce bitwise; it also
// reports its Sturm-count total so the test can pin the work reduction.
func stebzNaive(d, e []float64, il, iu int) (out []float64, counts int) {
	lo0, hi0 := stebzBracket(d, e)
	out = make([]float64, iu-il+1)
	for idx := il; idx <= iu; idx++ {
		lo, hi := lo0, hi0
		for iter := 0; iter < stebzMaxDepth; iter++ {
			mid := 0.5 * (lo + hi)
			if mid <= lo || mid >= hi {
				break
			}
			if c := SturmCount(d, e, mid); c >= idx {
				hi = mid
			} else {
				lo = mid
			}
			counts++
			if stebzDone(lo, hi) {
				break
			}
		}
		out[idx-il] = 0.5 * (lo + hi)
	}
	return out, counts
}

// TestStebzSharedCountsBitwise pins that bracket sharing is a pure work
// optimization: eigenvalues are bitwise identical to the naive
// one-at-a-time bisection, while the Sturm-count total drops by a large
// factor (each count near the root serves many eigenvalues). The naive
// reference bisects T as given, so the shapes StebzSched scales are left out.
func TestStebzSharedCountsBitwise(t *testing.T) {
	for name, sh := range parShapes(t) {
		if scaledPath(sh.d, sh.e) {
			continue
		}
		n := len(sh.d)
		want, naive := stebzNaive(sh.d, sh.e, 1, n)
		got := stebz(sh.d, sh.e, 1, n)
		if !sameVec(got, want) {
			t.Errorf("%s: shared-count StebzSched differs from naive bisection", name)
		}
		wk := NewWorkSet(1).Seq()
		out := make([]float64, n)
		shared := wk.stebzInto(sh.d, sh.e, 1, n, out, 1)
		if !sameVec(out, want) {
			t.Errorf("%s: pooled stebzInto differs from naive bisection", name)
		}
		// The saving is the shared top of the bisection tree — about log₂n of
		// the ~53 per-eigenvalue halvings for well-separated spectra (≈15%
		// here), and far more when eigenvalues cluster (deflate220's
		// near-identical spectrum shares almost every count). Pin a ≥5%
		// reduction so a regression to per-eigenvalue restarts fails loudly.
		if shared*20 > naive*19 {
			t.Errorf("%s: expected ≥5%% Sturm-count reduction, naive=%d shared=%d", name, naive, shared)
		}
		// Subset solves must agree with the corresponding full-solve slice.
		il, iu := n/3+1, 2*n/3
		sub := stebz(sh.d, sh.e, il, iu)
		if !sameVec(sub, want[il-1:iu]) {
			t.Errorf("%s: subset StebzSched differs from full-spectrum slice", name)
		}
	}
}

// TestStebzSchedBitwiseIdentity: chunk-parallel bisection ≡ one unchunked
// stebzInto over the whole range on one Work, inline and at every worker
// count, full spectrum and subsets. stebzInto bisects T as given, so on the
// shapes StebzSched scales the reference is the inline StebzSched.
func TestStebzSchedBitwiseIdentity(t *testing.T) {
	for name, sh := range parShapes(t) {
		n := len(sh.d)
		ranges := [][2]int{{1, n}, {1, 1}, {n/2 - 5, n/2 + 5}, {2, n - 1}}
		for _, r := range ranges {
			got := stebz(sh.d, sh.e, r[0], r[1])
			want := got
			if !scaledPath(sh.d, sh.e) {
				want = make([]float64, r[1]-r[0]+1)
				NewWorkSet(1).Seq().stebzInto(sh.d, sh.e, r[0], r[1], want, r[0])
				if !sameVec(got, want) {
					t.Errorf("%s [%d,%d]: inline StebzSched differs", name, r[0], r[1])
				}
			}
			for _, workers := range parTestWorkers {
				s := sched.New(workers)
				set := NewWorkSet(workers)
				got := StebzSched(sh.d, sh.e, r[0], r[1], set, s.NewJob(nil), nil)
				s.Shutdown()
				if !sameVec(got, want) {
					t.Errorf("%s [%d,%d] workers=%d: parallel Stebz differs", name, r[0], r[1], workers)
				}
			}
		}
	}
}

// TestSteinSchedBitwiseIdentity: cluster-parallel inverse iteration ≡ the
// inline cluster loop at every worker count. Wilkinson matrices supply
// tight pairs (multi-eigenvalue clusters); the random shapes mostly
// singleton clusters.
func TestSteinSchedBitwiseIdentity(t *testing.T) {
	for name, sh := range parShapes(t) {
		n := len(sh.d)
		w := stebz(sh.d, sh.e, 1, n)
		refZ, err := stein(sh.d, sh.e, w)
		if err != nil {
			t.Fatalf("%s: inline SteinSched failed: %v", name, err)
		}
		for _, workers := range parTestWorkers {
			s := sched.New(workers)
			set := NewWorkSet(workers)
			for pass := 0; pass < 2; pass++ {
				z, err := SteinSched(sh.d, sh.e, w, set, s.NewJob(nil), nil)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
				if !sameMat(z, refZ) {
					t.Errorf("%s workers=%d pass=%d: parallel Stein differs", name, workers, pass)
				}
			}
			s.Shutdown()
		}
	}
}

// TestStedcSchedNoConvergence forces the QL leaf iteration to fail inside a
// parallel solve: the error latch must surface ErrNoConvergence once, every
// sibling task must drain without deadlock, and the scheduler and set must
// stay usable for a subsequent healthy solve.
func TestStedcSchedNoConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d, e := randTridiag(rng, 280)
	refVals, refQ, err := stedcOneLeaf(d, e)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.New(4)
	defer s.Shutdown()
	set := NewWorkSet(4)

	saved := MaxIterQL
	MaxIterQL = 0
	_, _, err = StedcSched(d, e, set, s.NewJob(nil), 0, nil)
	MaxIterQL = saved
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("forced failure: got %v, want ErrNoConvergence", err)
	}

	// Same WorkSet and scheduler, healthy settings: still bitwise correct.
	vals, q, err := StedcSched(d, e, set, s.NewJob(nil), 0, nil)
	if err != nil {
		t.Fatalf("solve after forced failure: %v", err)
	}
	if !sameVec(vals, refVals) || !sameMat(q, refQ) {
		t.Error("solve after forced failure differs from the one-leaf solve")
	}
}

// TestSteinSchedNoConvergence: the cluster error latch. A shift of −Inf
// makes the factorization pivots +Inf, so every solve returns an
// exactly-zero iterate and the restart budget runs out deterministically;
// the healthy second cluster must still complete while the latch is set.
// (A finite shift no longer does it: d = w = ±MaxFloat64, which once
// overflowed the pivots, is now solved scaled by a power of two.)
func TestSteinSchedNoConvergence(t *testing.T) {
	d := []float64{1, 1}
	e := []float64{0}
	w := []float64{math.Inf(-1), 0}
	s := sched.New(3)
	defer s.Shutdown()
	set := NewWorkSet(3)
	if _, err := SteinSched(d, e, w, set, s.NewJob(nil), nil); !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("got %v, want ErrNoConvergence", err)
	}
}

// TestStedcSchedCancellation: canceling mid-solve must unwind cleanly (no
// deadlock, no race — this test is most valuable under -race) and leave the
// scheduler reusable. A pre-canceled context must fail deterministically.
func TestStedcSchedCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d, e := randTridiag(rng, 350)
	refVals, refQ, err := stedcOneLeaf(d, e)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.New(4)
	defer s.Shutdown()
	set := NewWorkSet(4)

	// Pre-canceled: deterministic error, nothing runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := StedcSched(d, e, set, s.NewJob(ctx), 0, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled solve: got %v, want context.Canceled", err)
	}

	// Mid-flight: cancel from another goroutine at staggered delays. Either
	// the solve loses the race and reports ctx.Err(), or it wins and must be
	// bitwise correct.
	for _, delay := range []time.Duration{0, 50 * time.Microsecond, 500 * time.Microsecond} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		vals, q, err := StedcSched(d, e, set, s.NewJob(ctx), 0, nil)
		switch {
		case err == nil:
			if !sameVec(vals, refVals) || !sameMat(q, refQ) {
				t.Errorf("delay=%v: completed solve differs from reference", delay)
			}
		case errors.Is(err, context.Canceled):
			// Expected loss (TestStedcSchedCancelThenReuse checks the set after one).
		default:
			t.Errorf("delay=%v: unexpected error %v", delay, err)
		}
		cancel()
	}

	// The same set and scheduler still solve correctly afterwards.
	vals, q, err := StedcSched(d, e, set, s.NewJob(nil), 0, nil)
	if err != nil {
		t.Fatalf("solve after cancellations: %v", err)
	}
	if !sameVec(vals, refVals) || !sameMat(q, refQ) {
		t.Error("solve after cancellations differs from reference")
	}
}

// TestSchedFlopAttribution: the eig_t sub-phases must be attributed (side
// channel only — AttributedFlops never contributes to TotalFlops), and the
// merge's attribution must say what ran: the same flops from the inline path
// and from two workers, the secular share computed from the evaluations the
// root finder made, and the GEMM share from the nonzero range the grouped left
// factor leaves the kernels — n·k² per merge where the halves survive evenly,
// not the 2·n·k² of a dense product.
func TestSchedFlopAttribution(t *testing.T) {
	defer func(c int) { dcParCutoff = c }(dcParCutoff)
	dcParCutoff = dcBaseSize // every merge is attributed as a merge
	rng := rand.New(rand.NewSource(31))
	d, e := goeTridiag(rng, 512)
	s := sched.New(2)
	defer s.Shutdown()
	set := NewWorkSet(2)
	tc := trace.New()
	if _, _, err := StedcSched(d, e, set, s.NewJob(nil), 0, tc); err != nil {
		t.Fatal(err)
	}
	if tc.AttributedFlops(trace.PhaseEigTRecurse) <= 0 {
		t.Error("no recurse flops attributed")
	}
	merge := tc.AttributedFlops(trace.PhaseEigTMerge)
	c := countMerges(set)
	if merge != c.secular+c.gemm {
		t.Errorf("merge flops attributed: %d, want %d secular + %d GEMM", merge, c.secular, c.gemm)
	}
	t.Logf("merge GEMM %d flops = %.3f of Σ n·k², secular %d flops, %d roots, %.2f evaluations per root, at most %d",
		c.gemm, float64(c.gemm)/float64(c.nk2), c.secular, c.roots, float64(c.evals)/float64(c.roots), c.maxIters)
	if lo, hi := 0.9*float64(c.nk2), 1.1*float64(c.nk2); float64(c.gemm) < lo || float64(c.gemm) > hi {
		t.Errorf("GEMM share %d is not within 10%% of Σ n·k² = %d", c.gemm, c.nk2)
	}
	if perRoot := float64(c.evals) / float64(c.roots); perRoot < 2 || perRoot > 8 {
		t.Errorf("%.2f evaluations per root attributed, want 2–8", perRoot)
	}
	seqTC := trace.New()
	seqSet := NewWorkSet(1)
	if _, _, err := StedcSched(d, e, seqSet, nil, 0, seqTC); err != nil {
		t.Fatal(err)
	}
	for _, ph := range []string{trace.PhaseEigTRecurse, trace.PhaseEigTMerge} {
		if a, b := seqTC.AttributedFlops(ph), tc.AttributedFlops(ph); a != b {
			t.Errorf("%s: inline attributes %d flops, two workers %d", ph, a, b)
		}
	}

	w := StebzSched(d, e, 1, len(d), set, s.NewJob(nil), tc)
	if tc.AttributedFlops(trace.PhaseEigTBisect) <= 0 {
		t.Error("no bisect flops attributed")
	}
	if _, err := SteinSched(d, e, w, set, s.NewJob(nil), tc); err != nil {
		t.Fatal(err)
	}
	if tc.AttributedFlops(trace.PhaseEigTStein) <= 0 {
		t.Error("no stein flops attributed")
	}
}

func BenchmarkStebzShared(b *testing.B) {
	d, e := laplacian121(1000)
	wk := NewWorkSet(1).Seq()
	out := make([]float64, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wk.stebzInto(d, e, 1, 1000, out, 1)
	}
}

func BenchmarkStebzNaive(b *testing.B) {
	d, e := laplacian121(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stebzNaive(d, e, 1, 1000)
	}
}
