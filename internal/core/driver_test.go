package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/testmat"
	"repro/internal/trace"
	"repro/internal/work"
)

// checkTol bounds every testmat.Check and SpectrumError score in this file,
// in units of n·ε·‖A‖.
const checkTol = 50

// diffRun is one solve of the differential table: an input through one
// pipeline and one method.
type diffRun struct {
	label    string
	pipeline string
	a        *matrix.Dense
	spec     []float64 // the planted spectrum, nil when it is not known
	res      *Result
	err      error
}

// differential is the differential table of the solver, solved once and
// shared by the three tests below: each input goes through {two-stage,
// one-stage} × {D&C, BI, QR}, one slice of six runs per input.
var differential = sync.OnceValue(func() [][]diffRun {
	rng := rand.New(rand.NewSource(1))
	// The wide inputs span three full tiles and a ragged fourth at NB 16.
	const wide = 56
	par := Options{NB: 16, Workers: 2}
	var table [][]diffRun
	for _, in := range []struct {
		name string
		o    Options
		spec []float64     // the planted spectrum, or
		a    *matrix.Dense // the matrix itself when its spectrum is not known
	}{
		{name: "uniform", o: Options{NB: 8}, spec: testmat.UniformSpectrum(60, -3, 7)},
		{name: "gaussian", o: par, a: testmat.RandomSym(rng, wide)},
		{name: "geometric", o: par, spec: testmat.GeometricSpectrum(wide, 1e-3, 1e3)},
		{name: "clustered", o: par, spec: testmat.ClusteredSpectrum(wide, 5, 1e-9)},
		{name: "laplacian", o: par, a: testmat.GraphLaplacian(rng, wide, 6)},
		{name: "wilkinson", o: par, a: testmat.Wilkinson(57)},
		{name: "glued wilkinson", o: par, a: testmat.GluedWilkinson(21, 3, 1e-8)},
	} {
		a := in.a
		if in.spec != nil {
			a = testmat.WithSpectrum(rng, in.spec)
			slices.Sort(in.spec)
		}
		var runs []diffRun
		for _, p := range pipelines {
			for _, m := range []Method{MethodDC, MethodBI, MethodQR} {
				o := in.o
				o.Method, o.Vectors = m, true
				res, err := p.solve(context.Background(), a, o)
				runs = append(runs, diffRun{
					label: fmt.Sprintf("%s %s %v", in.name, p.name, m), pipeline: p.name,
					a: a, spec: in.spec, res: res, err: err,
				})
			}
		}
		table = append(table, runs)
	}
	return table
})

// checkPipeline requires every result of one pipeline in the differential
// table to pass testmat.Check and to meet its planted spectrum.
func checkPipeline(t *testing.T, pipeline string) {
	for _, runs := range differential() {
		for _, r := range runs {
			if r.pipeline != pipeline {
				continue
			}
			if r.err != nil {
				t.Errorf("%s: %v", r.label, r.err)
				continue
			}
			if _, err := testmat.Check(r.a, r.res.Values, r.res.Vectors, checkTol); err != nil {
				t.Errorf("%s: %v", r.label, err)
			}
			if r.spec != nil {
				if e := testmat.SpectrumError(r.res.Values, r.spec); !(e <= checkTol) {
					t.Errorf("%s: %.3g n·ε·‖A‖ from the planted spectrum", r.label, e)
				}
			}
		}
	}
}

func TestTwoStageAllMethodsPlantedSpectrum(t *testing.T) { checkPipeline(t, "two-stage") }

func TestOneStageAllMethodsPlantedSpectrum(t *testing.T) { checkPipeline(t, "one-stage") }

// TestTwoStageMatchesOneStage: on every input of the differential table the
// six spectra, both pipelines by all three methods, agree pairwise.
func TestTwoStageMatchesOneStage(t *testing.T) {
	for _, runs := range differential() {
		for i, ri := range runs {
			if ri.err != nil {
				t.Fatalf("%s: %v", ri.label, ri.err)
			}
			for _, rj := range runs[i+1:] {
				if rj.err != nil {
					continue // reported when it is ri
				}
				if e := testmat.SpectrumError(ri.res.Values, rj.res.Values); !(e <= checkTol) {
					t.Errorf("%s and %s disagree by %.3g n·ε·‖A‖", ri.label, rj.label, e)
				}
			}
		}
	}
}

// pipelines are the two drivers every differential test runs.
var pipelines = []struct {
	name  string
	solve func(context.Context, *matrix.Dense, Options) (*Result, error)
}{{"two-stage", SyevTwoStage}, {"one-stage", SyevOneStage}}

// TestEstimateCoversArena: the admission estimate is what a solve leaves in a
// fresh arena, up to 64 bytes per row of A: on both pipelines, every method
// (the D&C alone above n = 256), with vectors and values only, on one worker
// and two, at every NB, under the probed GEMM kernels and, to n = 131, the
// portable ones, whose packed layouts pad differently (they take seconds at
// n = 300). Each row logs its slots, and the test first logs the slots of
// larger solves, from the sizes alone.
func TestEstimateCoversArena(t *testing.T) {
	slotNames := [...]string{"stage1", "stage2", "tridiag", "backtrans"}
	for _, n := range []int{1024, 2048, 4096, 8192} {
		for _, p := range pipelines {
			for _, vectors := range []bool{true, false} {
				o := Options{Vectors: vectors, Workers: 2}
				slots := workspaceSlots(n, o, p.name == "one-stage")
				nn := float64(n * n)
				t.Logf("%s n=%d vectors=%v W=2: %s %.2f, %s %.2f, %s %.2f, %s %.2f n²; %.2f GiB",
					p.name, n, vectors, slotNames[0], float64(slots[0])/nn, slotNames[1], float64(slots[1])/nn,
					slotNames[2], float64(slots[2])/nn, slotNames[3], float64(slots[3])/nn,
					float64(EstimateWorkspaceBytes(n, o, p.name == "one-stage"))/(1<<30))
			}
		}
	}
	every := []int{16, 24, 32, 48, 64}
	type row struct{ n, nbs []int }
	check := func(family string, rows ...row) {
		for _, r := range rows {
			for _, n := range r.n {
				a := testmat.RandomSym(rand.New(rand.NewSource(int64(n))), n)
				methods := []Method{MethodDC}
				if n <= 256 {
					methods = append(methods, MethodBI, MethodQR)
				}
				for _, nb := range r.nbs {
					for _, p := range pipelines {
						for _, m := range methods {
							for _, vectors := range []bool{true, false} {
								for _, workers := range []int{1, 2} {
									arena := work.NewArena()
									o := Options{NB: nb, Method: m, Vectors: vectors, Workers: workers, Arena: arena}
									if _, err := p.solve(context.Background(), a, o); err != nil {
										t.Fatal(err)
									}
									got := arena.Bytes()
									est := EstimateWorkspaceBytes(n, o, p.name == "one-stage")
									label := fmt.Sprintf("%s %s n=%d NB=%d %v vectors=%v W=%d", family, p.name, n, nb, m, vectors, workers)
									t.Logf("%s: arena %d bytes, estimate +%d; slots %v floats", label, got, est-got,
										workspaceSlots(n, o, p.name == "one-stage"))
									if est < got || est-got > 64*int64(n) {
										t.Errorf("%s: estimate %d bytes, arena %d bytes: want 0 ≤ estimate − arena ≤ %d", label, est, got, 64*n)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	check(blas.GemmKernel(), row{[]int{64, 131, 300}, every}, row{[]int{1024}, []int{24, 48}})
	defer blas.UseAsm(blas.UseAsm(false))
	check("portable", row{[]int{64, 131}, every})
}

// TestPreparedReflectorsNaNFilled fills the slots the prepared reflectors
// are packed into, stage1.packed and backtrans.slab, with NaN before one
// solve and with the ramp 0, 1, 2, … before a second on the same arena, at
// W ∈ {1, 2}, with vectors and values only: the eigenpairs must be bitwise
// those of a fresh arena. Every prepared block writes the whole of its fixed
// range, so no reader may see storage left from before. (A packed skyline
// header read from NaN, like one read from zeros, is an empty range; read
// from the ramp it is not.)
func TestPreparedReflectorsNaNFilled(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, tc := range []struct{ n, nb int }{{200, 0}, {131, 16}} {
		a := testmat.RandomSym(rng, tc.n)
		for _, workers := range []int{1, 2} {
			for _, vectors := range []bool{true, false} {
				o := Options{Method: MethodDC, NB: tc.nb, Vectors: vectors, Workers: workers}
				want, err := SyevTwoStage(context.Background(), a, o)
				if err != nil {
					t.Fatal(err)
				}
				o.Arena = work.NewArena()
				for rep, fill := range []func(i int) float64{
					func(int) float64 { return math.NaN() },
					func(i int) float64 { return float64(i) },
				} {
					for _, k := range []work.Key{work.Stage1Packed, work.BacktransSlab} {
						buf := o.Arena.Floats(k, 3*tc.n*tc.n, false)
						buf = buf[:cap(buf)]
						for i := range buf {
							buf[i] = fill(i)
						}
					}
					got, err := SyevTwoStage(context.Background(), a, o)
					if err != nil {
						t.Fatal(err)
					}
					requireSameResult(t, fmt.Sprintf("n=%d nb=%d W=%d vectors=%v solve %d", tc.n, tc.nb, workers, vectors, rep), got, want)
				}
			}
		}
	}
}

func TestTwoStageParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := testmat.RandomSym(rng, 48)
	seq, err := SyevTwoStage(context.Background(), a, Options{Method: MethodDC, Vectors: true, NB: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := SyevTwoStage(context.Background(), a, Options{Method: MethodDC, Vectors: true, NB: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The reductions are bitwise deterministic under the scheduler; the
	// tridiagonal solve is sequential either way, so values must agree to
	// the last bit and vectors too.
	for i := range seq.Values {
		if seq.Values[i] != par.Values[i] {
			t.Fatalf("parallel eigenvalue %d differs", i)
		}
	}
	if !par.Vectors.Equalish(seq.Vectors, 0) {
		t.Fatal("parallel vectors differ from sequential")
	}
}

func TestSubsetBI(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 60
	a := testmat.RandomSym(rng, n)
	full, err := SyevTwoStage(context.Background(), a, Options{Method: MethodDC, Vectors: true, NB: 8})
	if err != nil {
		t.Fatal(err)
	}
	// 20% of the spectrum — the paper's Figure 4d scenario.
	il, iu := 1, n/5
	sub, err := SyevTwoStage(context.Background(), a, Options{Method: MethodBI, Vectors: true, NB: 8, IL: il, IU: iu})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Values) != iu {
		t.Fatalf("subset returned %d values, want %d", len(sub.Values), iu)
	}
	if e := testmat.SpectrumError(sub.Values, full.Values[:iu]); !(e <= checkTol) {
		t.Fatalf("subset spectrum error %.1f nε", e)
	}
	if _, err := testmat.Check(a, sub.Values, sub.Vectors, checkTol); err != nil {
		t.Fatal(err)
	}
	if sub.Vectors.Cols != iu {
		t.Fatalf("subset vectors have %d columns", sub.Vectors.Cols)
	}
}

func TestSubsetSliceMethods(t *testing.T) {
	// DC and QR compute everything and return the requested slice.
	rng := rand.New(rand.NewSource(6))
	n := 40
	a := testmat.RandomSym(rng, n)
	full, err := SyevOneStage(context.Background(), a, Options{Method: MethodDC, Vectors: true, NB: 8})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := SyevOneStage(context.Background(), a, Options{Method: MethodDC, Vectors: true, NB: 8, IL: 11, IU: 20})
	if err != nil {
		t.Fatal(err)
	}
	if e := testmat.SpectrumError(sub.Values, full.Values[10:20]); e > 1 {
		t.Fatalf("slice mismatch: %.2f", e)
	}
	if _, err := testmat.Check(a, sub.Values, sub.Vectors, checkTol); err != nil {
		t.Fatal(err)
	}
}

func TestValuesOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := testmat.RandomSym(rng, 50)
	for _, m := range []Method{MethodDC, MethodBI, MethodQR} {
		r1, err := SyevTwoStage(context.Background(), a, Options{Method: m, NB: 8})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Vectors != nil {
			t.Fatalf("%v: vectors returned without being requested", m)
		}
		r2, err := SyevTwoStage(context.Background(), a, Options{Method: m, Vectors: true, NB: 8})
		if err != nil {
			t.Fatal(err)
		}
		if e := testmat.SpectrumError(r1.Values, r2.Values); !(e <= checkTol) {
			t.Fatalf("%v: values-only disagrees with full solve: %.1f nε", m, e)
		}
	}
}

func TestClusteredSpectrumOrthogonality(t *testing.T) {
	// Tight clusters stress D&C deflation and BI reorthogonalization
	// through the whole two-stage pipeline.
	rng := rand.New(rand.NewSource(8))
	spec := testmat.ClusteredSpectrum(48, 4, 1e-10)
	a := testmat.WithSpectrum(rng, spec)
	for _, m := range []Method{MethodDC, MethodBI} {
		res, err := SyevTwoStage(context.Background(), a, Options{Method: m, Vectors: true, NB: 8})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if _, err := testmat.Check(a, res.Values, res.Vectors, checkTol); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

func TestPhaseTimings(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := testmat.RandomSym(rng, 64)

	// One back-transformation phase, with the Q₂/Q₁ split preserved as
	// attributed flops.
	tc := trace.New()
	if _, err := SyevTwoStage(context.Background(), a, Options{Method: MethodDC, Vectors: true, NB: 8, Collector: tc}); err != nil {
		t.Fatal(err)
	}
	for _, ph := range []string{trace.PhaseStage1, trace.PhaseStage2, trace.PhaseEigT, trace.PhaseBacktrans} {
		if tc.PhaseTime(ph) <= 0 {
			t.Fatalf("phase %s not timed", ph)
		}
	}
	if tc.PhaseTime(trace.PhaseUpdateQ2) != 0 || tc.PhaseTime(trace.PhaseUpdateQ1) != 0 {
		t.Fatal("the Q2/Q1 attribution names were timed as phases")
	}
	if tc.AttributedFlops(trace.PhaseUpdateQ2) <= 0 || tc.AttributedFlops(trace.PhaseUpdateQ1) <= 0 {
		t.Fatal("fused phase did not attribute the Q2/Q1 flop split")
	}
	if tc.TotalFlops() == 0 {
		t.Fatal("no flops recorded")
	}

}

// TestFusedBacktransBitwiseIdentity pins the fused back-transformation's
// invariant at the driver: one task per column block, on any number of
// workers, produces exactly the eigenvector matrix of the Workers ≤ 1 solve
// of the same matrix (column blocks one after the other, inline) — per column
// the kernel stream is the same. The block-width axis is covered where it is
// chosen (backtransform.TestApplyFusedMatchesTwoPhase).
func TestFusedBacktransBitwiseIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, shape := range []struct{ n, nb int }{
		{40, 8},
		{64, 16},
		{33, 8},
		{50, 12},
		{48, 48}, // single tile column: Q1 sequence is empty
	} {
		a := testmat.RandomSym(rng, shape.n)
		want, err := SyevTwoStage(context.Background(), a, Options{Method: MethodDC, Vectors: true, NB: shape.nb})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := testmat.Check(a, want.Values, want.Vectors, checkTol); err != nil {
			t.Fatalf("n=%d nb=%d: %v", shape.n, shape.nb, err)
		}
		for _, workers := range []int{2, 3, 7} {
			got, err := SyevTwoStage(context.Background(), a, Options{
				Method: MethodDC, Vectors: true, NB: shape.nb, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, fmt.Sprintf("workers=%d n=%d nb=%d", workers, shape.n, shape.nb), got, want)
		}
	}
}

// TestFusedBacktransSubset covers the fused path on a partial-spectrum solve
// (thin E): the paper's f < 1 scenario.
func TestFusedBacktransSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n := 52
	a := testmat.RandomSym(rng, n)
	base := Options{Method: MethodBI, Vectors: true, NB: 8, IL: 3, IU: 17}
	want, err := SyevTwoStage(context.Background(), a, base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testmat.Check(a, want.Values, want.Vectors, checkTol); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3} {
		o := base
		o.Workers = workers
		got, err := SyevTwoStage(context.Background(), a, o)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("subset workers=%d", workers), got, want)
	}
}

func TestDegenerateSizes(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3} {
		a := matrix.NewDense(n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, float64(i+1))
		}
		for _, m := range []Method{MethodDC, MethodBI, MethodQR} {
			res, err := SyevTwoStage(context.Background(), a, Options{Method: m, Vectors: n > 0, NB: 4})
			if err != nil {
				t.Fatalf("n=%d %v: %v", n, m, err)
			}
			if len(res.Values) != n {
				t.Fatalf("n=%d %v: got %d values", n, m, len(res.Values))
			}
			for i := 0; i < n; i++ {
				if math.Abs(res.Values[i]-float64(i+1)) > 1e-12 {
					t.Fatalf("n=%d %v: diagonal eigenvalue wrong", n, m)
				}
			}
		}
	}
}

func TestBadInputs(t *testing.T) {
	a := matrix.NewDense(4, 3)
	if _, err := SyevTwoStage(context.Background(), a, Options{}); err == nil {
		t.Fatal("non-square matrix accepted")
	}
	b := matrix.NewDense(4, 4)
	if _, err := SyevTwoStage(context.Background(), b, Options{IL: 3, IU: 2}); err == nil {
		t.Fatal("inverted index range accepted")
	}
	if _, err := SyevOneStage(context.Background(), b, Options{IL: 0, IU: 9}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestNBRobustness(t *testing.T) {
	// The full pipeline must be correct for awkward nb/n combinations.
	rng := rand.New(rand.NewSource(10))
	for _, tc := range []struct{ n, nb int }{{30, 7}, {33, 32}, {33, 33}, {33, 40}, {16, 1}, {17, 2}} {
		a := testmat.RandomSym(rng, tc.n)
		res, err := SyevTwoStage(context.Background(), a, Options{Method: MethodDC, Vectors: true, NB: tc.nb})
		if err != nil {
			t.Fatalf("n=%d nb=%d: %v", tc.n, tc.nb, err)
		}
		if _, err := testmat.Check(a, res.Values, res.Vectors, checkTol); err != nil {
			t.Fatalf("n=%d nb=%d: %v", tc.n, tc.nb, err)
		}
	}
}

func TestScalingRobustness(t *testing.T) {
	// The pipeline must be scale-invariant: eigenvalues of s·A are s·λ(A),
	// even for extreme s (exercises the Larfg rescaling guards and the
	// deflation thresholds).
	rng := rand.New(rand.NewSource(12))
	base := testmat.RandomSym(rng, 32)
	ref, err := SyevTwoStage(context.Background(), base, Options{Method: MethodDC, Vectors: true, NB: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []float64{1e-100, 1e-8, 1e8, 1e100} {
		a := base.Clone()
		for i := range a.Data {
			a.Data[i] *= s
		}
		res, err := SyevTwoStage(context.Background(), a, Options{Method: MethodDC, Vectors: true, NB: 8})
		if err != nil {
			t.Fatalf("scale %g: %v", s, err)
		}
		for i := range res.Values {
			want := ref.Values[i] * s
			if math.Abs(res.Values[i]-want) > 1e-10*math.Abs(want)+1e-300 {
				t.Fatalf("scale %g: eigenvalue %d = %g, want %g", s, i, res.Values[i], want)
			}
		}
		if _, err := testmat.Check(a, res.Values, res.Vectors, checkTol); err != nil {
			t.Fatalf("scale %g: %v", s, err)
		}
	}
}

// TestScaledInputsAllMethodsAgree solves s·A for a GOE matrix A at scales
// whose tridiagonal entries, or their squares, leave the floating-point
// range, through both pipelines and every method at W = 2: powers of two,
// and two scales that are not (at 1e307 differences of eigenvalues overflow
// in the QR sweep). Each result must pass testmat.Check against s·A at its
// own scale, which also fails any value or vector that is not finite, since
// Check scores s·A by a power of two first. Divided by s, the values must
// lie within checkTol·n·ε·‖A‖ of A's D&C spectrum, and the pairs must pass
// Check against A as well.
func TestScaledInputsAllMethodsAgree(t *testing.T) {
	const n = 60
	base := testmat.RandomSym(rand.New(rand.NewSource(31)), n)
	o := Options{NB: 16, Workers: 2, Vectors: true}
	ref, err := SyevTwoStage(context.Background(), base, o)
	if err != nil {
		t.Fatal(err)
	}
	type scale struct {
		name string
		s    float64
	}
	scales := []scale{{"1e-305", 1e-305}, {"1e307", 1e307}}
	for _, k := range []int{-1000, -500, 500, 1000, 1018} {
		scales = append(scales, scale{fmt.Sprintf("2^%d", k), math.Ldexp(1, k)})
	}
	for _, sc := range scales {
		a := base.Clone()
		for i := range a.Data {
			a.Data[i] *= sc.s
		}
		for _, p := range pipelines {
			for _, m := range []Method{MethodDC, MethodBI, MethodQR} {
				t.Run(fmt.Sprintf("%s/%s/%v", sc.name, p.name, m), func(t *testing.T) {
					o := o
					o.Method = m
					res, err := p.solve(context.Background(), a, o)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := testmat.Check(a, res.Values, res.Vectors, checkTol); err != nil {
						t.Fatalf("against s·A: %v", err)
					}
					unscaled := make([]float64, n)
					for i, v := range res.Values {
						unscaled[i] = v / sc.s
					}
					if e := testmat.SpectrumError(unscaled, ref.Values); !(e <= checkTol) {
						t.Fatalf("values / s off by %.3g nε‖A‖ from A's spectrum", e)
					}
					if _, err := testmat.Check(base, unscaled, res.Vectors, checkTol); err != nil {
						t.Fatalf("against A: %v", err)
					}
				})
			}
		}
	}
}

func TestPipelinePropertyQuick(t *testing.T) {
	// Random (n, nb, method) triples through the full two-stage pipeline:
	// residual and orthogonality always within budget.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		nb := 1 + rng.Intn(n)
		m := []Method{MethodDC, MethodBI, MethodQR}[rng.Intn(3)]
		a := testmat.RandomSym(rng, n)
		res, err := SyevTwoStage(context.Background(), a, Options{Method: m, Vectors: true, NB: nb})
		if err != nil {
			t.Logf("seed %d (n=%d nb=%d %v): %v", seed, n, nb, m, err)
			return false
		}
		_, err = testmat.Check(a, res.Values, res.Vectors, checkTol)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRankDeficientAndSpecialMatrices(t *testing.T) {
	// Rank-1, identity-like and zero matrices through both drivers.
	n := 24
	rank1 := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			rank1.Set(i, j, float64(i+1)*float64(j+1))
		}
	}
	// Rank-1 PSD: one eigenvalue Σ(i+1)², the rest zero.
	var want float64
	for i := 1; i <= n; i++ {
		want += float64(i) * float64(i)
	}
	for _, alg := range []bool{true, false} {
		var res *Result
		var err error
		if alg {
			res, err = SyevTwoStage(context.Background(), rank1, Options{Method: MethodDC, Vectors: true, NB: 6})
		} else {
			res, err = SyevOneStage(context.Background(), rank1, Options{Method: MethodDC, Vectors: true, NB: 6})
		}
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Values[n-1]-want) > 1e-9*want {
			t.Fatalf("rank-1 top eigenvalue %g, want %g", res.Values[n-1], want)
		}
		for i := 0; i < n-1; i++ {
			if math.Abs(res.Values[i]) > 1e-9*want {
				t.Fatalf("rank-1 null eigenvalue %d = %g", i, res.Values[i])
			}
		}
		if _, err := testmat.Check(rank1, res.Values, res.Vectors, checkTol); err != nil {
			t.Fatalf("rank-1: %v", err)
		}
	}
}

// TestParallelTridiagBitwiseIdentity pins the eig_t tentpole invariant: the
// scheduler-parallel tridiagonal stage (D&C task DAG, chunked bisection,
// cluster-parallel inverse iteration) produces exactly the results of the
// sequential stage — for every method, at several worker counts. n exceeds
// the D&C parallel cutoff so the task DAG genuinely engages.
func TestParallelTridiagBitwiseIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 150
	a := testmat.RandomSym(rng, n)
	for _, m := range []Method{MethodDC, MethodBI, MethodQR} {
		seq := Options{Method: m, Vectors: true, NB: 8}
		want, err := SyevTwoStage(context.Background(), a, seq)
		if err != nil {
			t.Fatalf("%v sequential: %v", m, err)
		}
		for _, workers := range []int{2, 4} {
			par := Options{Method: m, Vectors: true, NB: 8, Workers: workers}
			got, err := SyevTwoStage(context.Background(), a, par)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", m, workers, err)
			}
			for i := range want.Values {
				if want.Values[i] != got.Values[i] {
					t.Fatalf("%v workers=%d: eigenvalue %d differs", m, workers, i)
				}
			}
			if !got.Vectors.Equalish(want.Vectors, 0) {
				t.Fatalf("%v workers=%d: vectors differ bitwise from sequential eig_t", m, workers)
			}
		}
		if _, err := testmat.Check(a, want.Values, want.Vectors, checkTol); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

// TestParallelTridiagOneStage: the one-stage driver now routes eig_t over a
// scheduler too; its results must not depend on the worker count either.
func TestParallelTridiagOneStage(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := 140
	a := testmat.RandomSym(rng, n)
	want, err := SyevOneStage(context.Background(), a, Options{Method: MethodDC, Vectors: true, NB: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SyevOneStage(context.Background(), a, Options{Method: MethodDC, Vectors: true, NB: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Values {
		if want.Values[i] != got.Values[i] {
			t.Fatalf("eigenvalue %d differs", i)
		}
	}
	if !got.Vectors.Equalish(want.Vectors, 0) {
		t.Fatal("one-stage parallel eig_t vectors differ bitwise from sequential")
	}
}

// TestParallelTridiagSubset: the BI subset path (bisection chunks + inverse
// iteration clusters on a thin range) under the scheduler.
func TestParallelTridiagSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 130
	a := testmat.RandomSym(rng, n)
	base := Options{Method: MethodBI, Vectors: true, NB: 8, IL: 11, IU: 73}
	want, err := SyevTwoStage(context.Background(), a, base) // no scheduler: sequential eig_t
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Workers = 4
	got, err := SyevTwoStage(context.Background(), a, par)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Values {
		if want.Values[i] != got.Values[i] {
			t.Fatalf("eigenvalue %d differs", i)
		}
	}
	if !got.Vectors.Equalish(want.Vectors, 0) {
		t.Fatal("subset parallel eig_t vectors differ bitwise from sequential")
	}
	if _, err := testmat.Check(a, got.Values, got.Vectors, checkTol); err != nil {
		t.Fatal(err)
	}
}

// TestParallelTridiagAttribution: a parallel DC solve must attribute eig_t
// sub-phase flops (side channel — never part of TotalFlops).
func TestParallelTridiagAttribution(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := testmat.RandomSym(rng, 150)
	tc := trace.New()
	_, err := SyevTwoStage(context.Background(), a, Options{Method: MethodDC, Vectors: true, NB: 8, Workers: 2, Collector: tc})
	if err != nil {
		t.Fatal(err)
	}
	if tc.AttributedFlops(trace.PhaseEigTRecurse) <= 0 || tc.AttributedFlops(trace.PhaseEigTMerge) <= 0 {
		t.Fatal("parallel DC solve did not attribute eig_t sub-phase flops")
	}
}

// TestStage1LookaheadBitwise: the look-ahead stage-1 schedule and a
// sequential solve (stage 1 inline, runSeq) must produce bitwise-identical
// eigensystems at every tested worker count — the priorities only reorder
// the scheduler's ready queue.
func TestStage1LookaheadBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := testmat.RandomSym(rng, 90)
	ref, err := SyevTwoStage(context.Background(), a, Options{Method: MethodDC, Vectors: true, NB: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := func(label string, res *Result) {
		t.Helper()
		for i := range ref.Values {
			if math.Float64bits(ref.Values[i]) != math.Float64bits(res.Values[i]) {
				t.Fatalf("%s: value %d differs", label, i)
			}
		}
		if !ref.Vectors.Equalish(res.Vectors, 0) {
			t.Fatalf("%s: vectors differ", label)
		}
	}
	for _, workers := range []int{2, 3, 4, 5, 6, 7, 8} {
		res, err := SyevTwoStage(context.Background(), a, Options{Method: MethodDC, Vectors: true, NB: 8, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("workers=%d", workers), res)
	}
}

// TestLookaheadSolverBitwise is the whole-solve half of the stage-1
// look-ahead gate (the DAG-level half lives in internal/band): for both solve
// shapes — vectors and values only — every worker count must produce results
// bitwise identical to the sequential solve (stage 1 inline, in submission
// order). The look-ahead priorities only reorder the scheduler's ready
// queue; they never change which floating-point operations run or in what
// per-tile order.
func TestLookaheadSolverBitwise(t *testing.T) {
	a := testmat.RandomSym(rand.New(rand.NewSource(7)), 48)
	for _, vectors := range []bool{true, false} {
		ref, err := SyevTwoStage(context.Background(), a, Options{Method: MethodDC, Vectors: vectors, NB: 8})
		if err != nil {
			t.Fatal(err)
		}
		for w := 1; w <= 8; w++ {
			got, err := SyevTwoStage(context.Background(), a, Options{
				Method: MethodDC, Vectors: vectors, NB: 8, Workers: w,
			})
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, fmt.Sprintf("vectors=%v workers=%d", vectors, w), got, ref)
		}
	}
}

// TestStage1LookaheadAttribution: a scheduled two-stage solve records the
// stage-1 sub-phase split (panel/update busy time plus idle worker-time)
// under the wall-clock PhaseStage1.
func TestStage1LookaheadAttribution(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := testmat.RandomSym(rng, 120)
	tc := trace.New()
	_, err := SyevTwoStage(context.Background(), a, Options{Method: MethodDC, Vectors: true, NB: 8, Workers: 3, Collector: tc})
	if err != nil {
		t.Fatal(err)
	}
	if tc.PhaseTime(trace.PhaseStage1Panel) <= 0 || tc.PhaseTime(trace.PhaseStage1Update) <= 0 {
		t.Fatal("scheduled solve did not attribute stage-1 panel/update time")
	}
	if tc.PhaseTime(trace.PhaseStage1Stall) < 0 {
		t.Fatal("negative stage-1 stall")
	}
	if busy := tc.PhaseTime(trace.PhaseStage1Panel) + tc.PhaseTime(trace.PhaseStage1Update); busy < tc.PhaseTime(trace.PhaseStage1) {
		// 3 workers were held for the whole phase, so total worker-time
		// (busy + stall) must be at least the phase's wall time.
		if busy+tc.PhaseTime(trace.PhaseStage1Stall) < tc.PhaseTime(trace.PhaseStage1) {
			t.Fatal("stage-1 busy+stall below the phase wall time")
		}
	}
}
