package eigen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/band"
	"repro/internal/blas"
	"repro/internal/bulge"
	"repro/internal/onestage"
	"repro/internal/testmat"
	"repro/internal/trace"
)

// TestSolverReuseMatchesOneShot runs several different problems through one
// Solver and checks each against the one-shot entry point.
func TestSolverReuseMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewSolver(&Options{NB: 8})
	defer s.Close()
	for _, n := range []int{5, 24, 33, 24, 5} { // revisit sizes to hit recycled arenas
		a := randSymMatrix(rng, n)
		got, err := s.Eig(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want, err := Eig(a, &Options{NB: 8})
		if err != nil {
			t.Fatalf("n=%d one-shot: %v", n, err)
		}
		if len(got.Values) != len(want.Values) {
			t.Fatalf("n=%d: %d values, want %d", n, len(got.Values), len(want.Values))
		}
		for i := range got.Values {
			if math.Abs(got.Values[i]-want.Values[i]) > 1e-12 {
				t.Fatalf("n=%d value %d: %g vs %g", n, i, got.Values[i], want.Values[i])
			}
		}
		if _, err := testmat.Check(asDense(a), got.Values, asDense(got.Vectors), checkTol); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestSolverConcurrent hammers one shared Solver from many goroutines and, in
// parallel, independent Solvers — the -race test for the arena pool, the
// shared scheduler, and the header caching. All four pipeline combinations
// (two-stage/one-stage × vectors/values-only) run concurrently.
func TestSolverConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 48
	a := randSymMatrix(rng, n)
	want, err := Eig(a, &Options{NB: 8})
	if err != nil {
		t.Fatal(err)
	}

	shared := NewSolver(&Options{NB: 8, Workers: 4})
	defer shared.Close()

	check := func(vals []float64) {
		for i := range vals {
			if math.Abs(vals[i]-want.Values[i]) > 1e-9 {
				t.Errorf("value %d: %g vs %g", i, vals[i], want.Values[i])
				return
			}
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var s *Solver
			if g%2 == 0 {
				s = shared
			} else {
				s = NewSolver(&Options{NB: 8, Algorithm: Algorithm(g % 2 * int(OneStage))})
				defer s.Close()
			}
			for it := 0; it < 3; it++ {
				if (g+it)%2 == 0 {
					res, err := s.Eig(a)
					if err != nil {
						t.Error(err)
						return
					}
					check(res.Values)
				} else {
					vals, err := s.EigValues(a)
					if err != nil {
						t.Error(err)
						return
					}
					check(vals)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSolverConcurrentOneStage runs the one-stage pipeline concurrently on a
// shared Solver (it ignores the scheduler but shares the arena pool).
func TestSolverConcurrentOneStage(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randSymMatrix(rng, 32)
	s := NewSolver(&Options{NB: 8, Algorithm: OneStage})
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Eig(a)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := testmat.Check(asDense(a), res.Values, asDense(res.Vectors), checkTol); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestSolverCancellation covers a context canceled before the solve and one
// canceled mid-solve; both must return the context's error (or, in the racy
// mid-solve case, possibly finish first) and leave the Solver usable.
func TestSolverCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randSymMatrix(rng, 64)

	for _, workers := range []int{1, 4} {
		s := NewSolver(&Options{NB: 8, Workers: workers})

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := s.EigCtx(ctx, a); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d pre-canceled: got %v, want context.Canceled", workers, err)
		}

		// Cancel concurrently with the solve: either the cancellation wins
		// (context error) or the solve finishes first (valid result) — both
		// are correct; anything else (panic, deadlock, garbage) is not.
		ctx2, cancel2 := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			res, err := s.EigCtx(ctx2, a)
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("workers=%d mid-solve: unexpected error %v", workers, err)
			}
			if err == nil {
				if _, err := testmat.Check(asDense(a), res.Values, asDense(res.Vectors), checkTol); err != nil {
					t.Errorf("workers=%d mid-solve: %v", workers, err)
				}
			}
		}()
		cancel2()
		<-done

		// The Solver must still work after a canceled solve.
		res, err := s.Eig(a)
		if err != nil {
			t.Fatalf("workers=%d post-cancel solve: %v", workers, err)
		}
		if _, err := testmat.Check(asDense(a), res.Values, asDense(res.Vectors), checkTol); err != nil {
			t.Fatalf("workers=%d post-cancel solve: %v", workers, err)
		}
		s.Close()
	}
}

// TestSolverCancelDuringBacktrans aims the cancellation at the fused
// back-transformation specifically: it waits until the tridiagonal
// eigensolve phase has been recorded (the phase immediately before the
// fused sweep) and cancels then, so with high probability the fused tasks
// are in flight when the context dies. Run under -race this also checks
// the worker-slab sharing discipline during teardown. Either outcome —
// context error or a completed, correct solve — is acceptable; the Solver
// must stay usable afterwards.
func TestSolverCancelDuringBacktrans(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := randSymMatrix(rng, 96)

	for _, workers := range []int{1, 4} {
		tc := trace.New()
		s := NewSolver(&Options{NB: 8, Workers: workers, Collector: tc})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			res, err := s.EigCtx(ctx, a)
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("workers=%d: unexpected error %v", workers, err)
			}
			if err == nil {
				if _, err := testmat.Check(asDense(a), res.Values, asDense(res.Vectors), checkTol); err != nil {
					t.Errorf("workers=%d mid-solve: %v", workers, err)
				}
			}
		}()
		// The tridiagonal phase is timed just before the fused sweep starts.
	wait:
		for tc.PhaseTime(trace.PhaseEigT) == 0 {
			select {
			case <-done:
				break wait
			default:
				runtime.Gosched()
			}
		}
		cancel()
		<-done

		res, err := s.Eig(a)
		if err != nil {
			t.Fatalf("workers=%d post-cancel solve: %v", workers, err)
		}
		if _, err := testmat.Check(asDense(a), res.Values, asDense(res.Vectors), checkTol); err != nil {
			t.Fatalf("workers=%d post-cancel solve: %v", workers, err)
		}
		s.Close()
	}
}

func TestSolverClose(t *testing.T) {
	a := NewMatrix(2)
	a.SetSym(0, 0, 1)
	a.SetSym(1, 1, 2)
	s := NewSolver(&Options{Workers: 2})
	if _, err := s.Eig(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if _, err := s.Eig(a); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
	if _, err := s.EigValues(a); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

// TestSymmetryCheck pins the input validation every solve runs: an asymmetric
// matrix is rejected before any factorization work, by both algorithms.
func TestSymmetryCheck(t *testing.T) {
	bad := NewMatrix(3)
	bad.Set(0, 1, 1)
	bad.Set(1, 0, 5)
	for _, alg := range []Algorithm{TwoStage, OneStage} {
		if _, err := Eig(bad, &Options{Algorithm: alg}); err == nil {
			t.Fatalf("alg=%v: asymmetric matrix accepted", alg)
		}
	}
}

// TestEigTo checks the in-place entry point: the vectors land in dst, the
// result aliases dst, and everything matches the allocating path.
func TestEigTo(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := 30
	a := randSymMatrix(rng, n)
	want, err := Eig(a, nil)
	if err != nil {
		t.Fatal(err)
	}

	s := NewSolver(nil)
	defer s.Close()
	dst := NewMatrix(n)
	vals, err := s.EigTo(context.Background(), a, dst)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if math.Abs(vals[i]-want.Values[i]) > 1e-12 {
			t.Fatalf("value %d: %g vs %g", i, vals[i], want.Values[i])
		}
	}
	if _, err := testmat.Check(asDense(a), vals, asDense(dst), checkTol); err != nil {
		t.Fatal(err)
	}

	if _, err := s.EigTo(context.Background(), a, nil); err == nil {
		t.Fatal("nil destination accepted")
	}
	if _, err := s.EigTo(context.Background(), a, NewMatrix(n+1)); err == nil {
		t.Fatal("mis-sized destination accepted")
	}
}

// TestEigValuesSkipsBacktransform verifies the values-only fast path end to
// end: neither update phase runs and the blocked-reflector flop count drops
// to the stage-1 reduction's share (the Q₂/Q₁ applications never happen).
func TestEigValuesSkipsBacktransform(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randSymMatrix(rng, 40)
	tcFull := trace.New()
	if _, err := Eig(a, &Options{NB: 8, Collector: tcFull}); err != nil {
		t.Fatal(err)
	}
	tc := trace.New()
	if _, err := EigValues(a, &Options{NB: 8, Collector: tc}); err != nil {
		t.Fatal(err)
	}
	if vo, full := tc.Flops(trace.KLarfb), tcFull.Flops(trace.KLarfb); vo >= full {
		t.Fatalf("values-only solve performed %d Larfb flops, vectors solve %d", vo, full)
	}
	if _, ok := tc.Phases()[trace.PhaseBacktrans]; ok {
		t.Fatal("values-only solve ran the back-transformation")
	}
}

// TestEigValuesRangeNonBI pins the satellite fix: a values-only range
// request with DC/QR must not accumulate eigenvectors (it runs the
// rotation-free Sterf path) yet still return the right slice of the
// spectrum.
func TestEigValuesRangeNonBI(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	n := 32
	a := randSymMatrix(rng, n)
	full, err := Eig(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{DivideAndConquer, QRIteration} {
		tc := trace.New()
		vals, err := EigValuesRange(a, 3, 12, &Options{Method: m, NB: 8, Collector: tc})
		if err != nil {
			t.Fatalf("method %d: %v", m, err)
		}
		if len(vals) != 10 {
			t.Fatalf("method %d: %d values", m, len(vals))
		}
		for i := range vals {
			if math.Abs(vals[i]-full.Values[i+2]) > 1e-9 {
				t.Fatalf("method %d value %d: %g vs %g", m, i, vals[i], full.Values[i+2])
			}
		}
		// No eigenvector work: the back-transformation phase may not appear.
		if _, ok := tc.Phases()[trace.PhaseBacktrans]; ok {
			t.Fatalf("method %d: values-only range ran the back-transformation", m)
		}
	}
}

// TestSolveBitwiseAcrossKernels is the solver-level half of the kernel
// contract: on whichever kernels the CPU probe selects on this host (the
// AVX-512 or AVX2/FMA assembly wherever blas.GemmKernel() names one), a whole
// solve — two-stage with vectors, values only, and the one-stage reference,
// on the parallel path — returns the bits of the portable twins, GEMM and
// Level-1/2 alike. Besides a GOE matrix the inputs include a block-diagonal
// one (whose zero blocks the GEMM skyline skips), a GOE scaled by 2¹⁰⁰⁰ and
// by 2⁻¹⁰⁰⁰, and one with subnormal entries.
func TestSolveBitwiseAcrossKernels(t *testing.T) {
	t.Logf("blas.GemmKernel() = %s", blas.GemmKernel())
	const n = 131
	goe := func() *Matrix { return randSymMatrix(rand.New(rand.NewSource(23)), n) }
	scaled := func(e int) *Matrix {
		a := goe()
		for i := range a.data {
			a.data[i] = math.Ldexp(a.data[i], e)
		}
		return a
	}
	blockDiag := goe()
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if i/44 != j/44 { // diagonal blocks of order 44, 44 and 43
				blockDiag.Set(i, j, 0)
			}
		}
	}
	subnormal := goe()
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			if (i+3*j)%5 == 0 {
				subnormal.SetSym(i, j, math.Ldexp(subnormal.At(i, j), -1060))
			}
		}
	}
	inputs := []struct {
		name string
		a    *Matrix
	}{
		{"GOE", goe()}, {"block-diagonal", blockDiag},
		{"GOE·2^1000", scaled(1000)}, {"GOE·2^-1000", scaled(-1000)},
		{"subnormal entries", subnormal},
	}
	type outcome struct{ vals, vecs, valsOnly, oneVals, oneVecs []float64 }
	solve := func(a *Matrix) outcome {
		var o outcome
		o.vals, o.vecs = solveOnce(t, a, &Options{Workers: 2})
		var err error
		if o.valsOnly, err = EigValues(a, &Options{Workers: 2}); err != nil {
			t.Fatalf("EigValues: %v", err)
		}
		o.oneVals, o.oneVecs = solveOnce(t, a, &Options{Workers: 2, Algorithm: OneStage})
		return o
	}
	got := make([]outcome, len(inputs))
	for i, in := range inputs {
		got[i] = solve(in.a)
	}
	defer blas.UseAsm(blas.UseAsm(false))
	for i, in := range inputs {
		want := solve(in.a)
		for _, cmp := range []struct {
			what      string
			got, want []float64
		}{
			{"Eig values", got[i].vals, want.vals}, {"Eig vectors", got[i].vecs, want.vecs},
			{"EigValues", got[i].valsOnly, want.valsOnly},
			{"OneStage values", got[i].oneVals, want.oneVals}, {"OneStage vectors", got[i].oneVecs, want.oneVecs},
		} {
			if !slices.Equal(cmp.got, cmp.want) {
				t.Errorf("%s: %s differ between the probe's kernels and the portable ones", in.name, cmp.what)
			}
		}
	}
}

// TestSolveBitwiseAcrossWorkers: at a size whose band is the default 48 wide
// (so the chase runs whole Level-2 kernels on full blocks), at N₂, where a
// solve on two or more workers runs the chase as two streams, and for the
// one-stage reduction above N₁, where such a solve splits its symv and
// rank-2k calls in two, a full solve and a values-only solve return the same
// bits sequentially and on 2 and 4 workers, and again when repeated on the
// same Solver — the order of operations inside a Level-1/2 kernel is fixed,
// and nothing else about the arithmetic depends on the schedule.
func TestSolveBitwiseAcrossWorkers(t *testing.T) {
	for _, tc := range []struct {
		n   int
		alg Algorithm
	}{{256, TwoStage}, {bulge.TwoStreamOrder, TwoStage}, {2*onestage.SplitOrder + 3, OneStage}} {
		n := tc.n
		a := randSymMatrix(rand.New(rand.NewSource(29)), n)
		reps := 2
		if n > 256 {
			reps = 1
		}
		var refVals, refVecs, refOnly []float64
		for _, w := range []int{1, 2, 4} {
			s := NewSolver(&Options{Workers: w, Algorithm: tc.alg})
			for rep := 0; rep < reps; rep++ {
				res, err := s.Eig(a)
				if err != nil {
					t.Fatalf("n=%d %v workers=%d: Eig: %v", n, tc.alg, w, err)
				}
				only, err := s.EigValues(a)
				if err != nil {
					t.Fatalf("n=%d %v workers=%d: EigValues: %v", n, tc.alg, w, err)
				}
				if refVals == nil {
					refVals, refVecs, refOnly = res.Values, res.Vectors.data, only
					continue
				}
				if !slices.Equal(res.Values, refVals) || !slices.Equal(res.Vectors.data, refVecs) {
					t.Errorf("n=%d %v workers=%d repetition %d: Eig differs from the first sequential solve", n, tc.alg, w, rep)
				}
				if !slices.Equal(only, refOnly) {
					t.Errorf("n=%d %v workers=%d repetition %d: EigValues differs from the first sequential solve", n, tc.alg, w, rep)
				}
			}
			s.Close()
		}
	}
}

// TestSolverMoreLargeSolvesThanWorkers runs three Eig calls at N₂ at once on
// one two-worker Solver, so that a two-stream chase can find both workers
// busy, its second stream queued behind another solve's; and the same for
// three one-stage calls at 2·NC, above N₁, whose split reductions' and
// back-transformations' helper tasks can queue the same way. Every call must
// finish, with the bits of a sequential solve.
func TestSolverMoreLargeSolvesThanWorkers(t *testing.T) {
	for _, tc := range []struct {
		n   int
		alg Algorithm
	}{{bulge.TwoStreamOrder, TwoStage}, {2 * blas.DefaultNC, OneStage}} {
		a := randSymMatrix(rand.New(rand.NewSource(30)), tc.n)
		want, err := Eig(a, &Options{Algorithm: tc.alg})
		if err != nil {
			t.Fatal(err)
		}
		s := NewSolver(&Options{Workers: 2, Algorithm: tc.alg})
		var wg sync.WaitGroup
		errs := make([]error, 3)
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := s.Eig(a)
				if err == nil && (!slices.Equal(res.Values, want.Values) || !slices.Equal(res.Vectors.data, want.Vectors.data)) {
					err = errors.New("differs from the sequential solve")
				}
				errs[i] = err
			}()
		}
		wg.Wait()
		s.Close()
		for i, err := range errs {
			if err != nil {
				t.Errorf("%v call %d: %v", tc.alg, i, err)
			}
		}
	}
}

// cancelAfter is a context whose Err reports cancellation from its calls-th
// call on: the one-stage reduction checks its job once per panel, so a solve
// on it is canceled a few panels into the reduction.
type cancelAfter struct {
	context.Context
	calls atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSolverCancelDuringSytrd cancels a one-stage solve on two workers while
// its split reduction runs, the reduction's task in flight: the solve
// returns the cancellation, and the Solver then solves the same matrix with
// the bits of a sequential solve.
func TestSolverCancelDuringSytrd(t *testing.T) {
	a := randSymMatrix(rand.New(rand.NewSource(31)), 2*onestage.SplitOrder)
	want, err := Eig(a, &Options{Algorithm: OneStage})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(&Options{Workers: 2, Algorithm: OneStage})
	defer s.Close()
	for _, calls := range []int32{4, 8} {
		ctx := &cancelAfter{Context: context.Background()}
		ctx.calls.Store(calls)
		if _, err := s.EigCtx(ctx, a); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled after %d checks: error %v", calls, err)
		}
	}
	res, err := s.Eig(a)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Values, want.Values) || !slices.Equal(res.Vectors.data, want.Vectors.data) {
		t.Fatal("solve after the cancellation differs from the sequential solve")
	}
	if _, err := testmat.Check(asDense(a), res.Values, asDense(res.Vectors), checkTol); err != nil {
		t.Fatal(err)
	}
}

// solveOnce runs one full eigensolve and returns values and the flattened
// eigenvector matrix.
func solveOnce(t *testing.T, a *Matrix, opts *Options) ([]float64, []float64) {
	t.Helper()
	res, err := Eig(a, opts)
	if err != nil {
		t.Fatalf("Eig: %v", err)
	}
	return res.Values, res.Vectors.data
}

// TestNewSolverIgnoresTuneProfileEnv: construction reads no file. A
// well-formed profile of the deleted autotuner's last schema (v3) at the path
// $EIGEN_TUNE_PROFILE used to name, asking for nb = 16 and a different GEMM
// blocking, changes nothing: the solve returns the bits of the built-in tile
// size with the variable unset.
func TestNewSolverIgnoresTuneProfileEnv(t *testing.T) {
	a := randSymMatrix(rand.New(rand.NewSource(31)), 200)
	path := filepath.Join(t.TempDir(), "tune.json")
	profile := fmt.Sprintf(`{"version": 3, "goos": %q, "goarch": %q, "num_cpu": %d,
		"gemm": {"mc": 96, "kc": 128, "nc": 256}, "nb": 16}`, runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
	if err := os.WriteFile(path, []byte(profile), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv("EIGEN_TUNE_PROFILE", path)
	gotVals, gotVecs := solveOnce(t, a, &Options{Workers: 2})

	os.Unsetenv("EIGEN_TUNE_PROFILE")
	wantVals, wantVecs := solveOnce(t, a, &Options{Workers: 2, NB: band.DefaultNB})
	if !slices.Equal(gotVals, wantVals) || !slices.Equal(gotVecs, wantVecs) {
		t.Fatal("a profile at $EIGEN_TUNE_PROFILE changed the solve")
	}
}
