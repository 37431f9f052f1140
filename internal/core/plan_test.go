package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/testmat"
	"repro/internal/trace"
	"repro/internal/work"
)

// sameSlice reports exact (bitwise) float equality.
func sameSlice(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// requireSameResult fails unless got matches want bitwise.
func requireSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !sameSlice(got.Values, want.Values) {
		t.Fatalf("%s: eigenvalues differ bitwise", label)
	}
	if (got.Vectors == nil) != (want.Vectors == nil) {
		t.Fatalf("%s: vectors presence mismatch", label)
	}
	if got.Vectors != nil {
		gd := got.Vectors
		wd := want.Vectors
		if gd.Rows != wd.Rows || gd.Cols != wd.Cols {
			t.Fatalf("%s: vectors shape mismatch", label)
		}
		for c := 0; c < gd.Cols; c++ {
			for r := 0; r < gd.Rows; r++ {
				if gd.At(r, c) != wd.At(r, c) {
					t.Fatalf("%s: vectors differ bitwise at (%d,%d)", label, r, c)
				}
			}
		}
	}
}

// TestBuildPlan pins the phase sequence: exactly these four phases (three
// without vectors), whatever else the options say.
func TestBuildPlan(t *testing.T) {
	wantNames := []string{"stage1", "stage2", "eig_t", "back_trans"}
	for _, o := range []Options{
		{},
		{Workers: 4},
		{Method: MethodBI, IL: 2, IU: 5},
		{Method: MethodQR},
	} {
		for _, vectors := range []bool{true, false} {
			o.Vectors = vectors
			want := len(wantNames)
			if !vectors {
				want--
			}
			p := BuildPlan(&o)
			if len(p) != want {
				t.Fatalf("%+v: plan has %d phases, want %d", o, len(p), want)
			}
			for i, ph := range p {
				if ph.Name() != wantNames[i] {
					t.Fatalf("%+v: phase %d is %q, want %q", o, i, ph.Name(), wantNames[i])
				}
			}
		}
	}
}

// TestPhaseNamesTimed holds the Phase contract that Name doubles as the trace
// phase a step's wall time is attributed to: after a vectors solve, the
// Collector has timed every phase of the plan under its name.
func TestPhaseNamesTimed(t *testing.T) {
	a := testmat.RandomSym(rand.New(rand.NewSource(33)), 64)
	for _, workers := range []int{1, 2} {
		tc := trace.New()
		o := Options{Vectors: true, NB: 8, Workers: workers, Collector: tc}
		if _, err := SyevTwoStage(context.Background(), a, o); err != nil {
			t.Fatal(err)
		}
		for _, ph := range BuildPlan(&o) {
			if tc.PhaseTime(ph.Name()) <= 0 {
				t.Errorf("workers=%d: phase %q was not timed under its name (timed: %v)", workers, ph.Name(), tc.Phases())
			}
		}
	}
}

// TestSolveStateSuspendResume is the resumability gate: for every prefix
// length k, run the plan's first k phases, suspend the SolveState, run a full
// unrelated solve in between (proving the suspended state holds all its
// artifacts privately), then resume with the remaining phases. Every split
// point must produce a result bitwise identical to the straight-through
// solve, sequentially and on a scheduler.
func TestSolveStateSuspendResume(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := testmat.WithSpectrum(rng, testmat.UniformSpectrum(48, -4, 6))
	distract := testmat.WithSpectrum(rng, testmat.UniformSpectrum(24, -1, 1))

	for _, workers := range []int{1, 3} {
		o := Options{Vectors: true, NB: 8, Workers: workers}
		want, err := SyevTwoStage(context.Background(), a, o)
		if err != nil {
			t.Fatal(err)
		}

		full := BuildPlan(&o)
		for k := 0; k <= len(full); k++ {
			st, plan, err := NewSolveState(context.Background(), a, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, ph := range plan[:k] {
				if err := ph.Run(context.Background(), st); err != nil {
					t.Fatalf("workers=%d k=%d phase %s: %v", workers, k, ph.Name(), err)
				}
			}
			// Suspended. An unrelated solve runs to completion while the
			// state is parked — it must not disturb the held artifacts.
			if _, err := SyevTwoStage(context.Background(), distract, o); err != nil {
				t.Fatal(err)
			}
			for _, ph := range plan[k:] {
				if err := ph.Run(context.Background(), st); err != nil {
					t.Fatalf("workers=%d k=%d resume phase %s: %v", workers, k, ph.Name(), err)
				}
			}
			requireSameResult(t, "suspend point", st.Result(), want)
			st.Close()
		}
	}
}

// TestSolveStatePhaseContext: every phase honours the ctx it is run with,
// whatever ctx an earlier phase had. Stage1 runs with no ctx or a live one,
// then Stage2 with a canceled one, which it must report, sequentially and on
// a scheduler.
func TestSolveStatePhaseContext(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := testmat.WithSpectrum(rng, testmat.UniformSpectrum(48, -4, 6))
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		for _, first := range []context.Context{nil, context.Background()} {
			st, plan, err := NewSolveState(context.Background(), a, Options{Vectors: true, NB: 8, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if err := plan[0].Run(first, st); err != nil {
				t.Fatalf("workers=%d first ctx %v: %s: %v", workers, first, plan[0].Name(), err)
			}
			if err := plan[1].Run(canceled, st); !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d first ctx %v: %s with a canceled ctx returned %v", workers, first, plan[1].Name(), err)
			}
			st.Close()
		}
	}
}

// TestSolveStateSharedScheduler drives two SolveStates with interleaved
// phases over one caller-owned scheduler and an arena each, and checks both
// land bitwise on the straight-through results.
func TestSolveStateSharedScheduler(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a1 := testmat.WithSpectrum(rng, testmat.UniformSpectrum(40, -2, 5))
	a2 := testmat.WithSpectrum(rng, testmat.UniformSpectrum(56, -6, 3))

	s := sched.New(3)
	defer s.Shutdown()
	mk := func(a *matrix.Dense) (Options, *Result) {
		o := Options{Vectors: true, NB: 8, Sched: s}
		want, err := SyevTwoStage(context.Background(), a, o)
		if err != nil {
			t.Fatal(err)
		}
		return o, want
	}
	o1, want1 := mk(a1)
	o2, want2 := mk(a2)
	o1.Arena, o2.Arena = work.NewArena(), work.NewArena()

	st1, plan1, err := NewSolveState(context.Background(), a1, o1)
	if err != nil {
		t.Fatal(err)
	}
	defer st1.Close()
	st2, plan2, err := NewSolveState(context.Background(), a2, o2)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()

	// Interleave: st1 runs one phase ahead.
	for i := range plan1 {
		if err := plan1[i].Run(context.Background(), st1); err != nil {
			t.Fatalf("st1 %s: %v", plan1[i].Name(), err)
		}
		if i > 0 {
			if err := plan2[i-1].Run(context.Background(), st2); err != nil {
				t.Fatalf("st2 %s: %v", plan2[i-1].Name(), err)
			}
		}
	}
	if err := plan2[len(plan2)-1].Run(context.Background(), st2); err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "interleaved st1", st1.Result(), want1)
	requireSameResult(t, "interleaved st2", st2.Result(), want2)
}

// TestSolveStateTrivial pins the n = 0 fast path: an empty plan whose Result
// is immediately valid.
func TestSolveStateTrivial(t *testing.T) {
	st, plan, err := NewSolveState(context.Background(), &matrix.Dense{Stride: 1}, Options{Vectors: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 0 {
		t.Fatalf("n=0 plan has %d phases", len(plan))
	}
	res := st.Result()
	if res == nil || len(res.Values) != 0 || res.Vectors != nil {
		t.Fatalf("n=0 result = %+v", res)
	}
	st.Close()
}
