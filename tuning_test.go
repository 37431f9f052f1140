package eigen

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/blas"
	"repro/internal/tune"
)

// neutralProfile returns a valid profile that moves every numerically-neutral
// knob off its default: different cache blocking (KC pinned), a kernel name
// as profiles written before run-time dispatch carry one (loaded, never
// applied), and a non-default column block. NB is left unset — it is the one
// knob that legitimately changes the computed basis, so the bitwise gate
// exercises everything else.
func neutralProfile() *tune.Profile {
	p := tune.NewProfile()
	p.Gemm = tune.GemmConfig{MC: 96, KC: tune.RequiredKC, NC: 256, Kernel: "4x4"}
	p.ColBlock = 48
	return p
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

// TestTuneProfileRoundTripSolve is the check.sh round-trip gate: save a
// profile, load it through the Solver's normal construction path (via
// EIGEN_TUNE_PROFILE), and require the solve to be bitwise identical to an
// untuned one.
func TestTuneProfileRoundTripSolve(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tune.json")
	t.Setenv(tune.ProfileEnv, path)
	tune.InvalidateCache()
	t.Cleanup(func() {
		tune.InvalidateCache()
		blas.SetBlocking(blas.DefaultBlocking())
	})

	if err := neutralProfile().Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := tune.Load(path)
	if err != nil {
		t.Fatalf("Load after Save: %v", err)
	}
	if !got.Equal(neutralProfile()) {
		t.Fatalf("profile did not survive the disk round trip: %+v", *got)
	}

	rng := rand.New(rand.NewSource(7))
	a := randSymMatrix(rng, 65)

	// Baseline: tuning disabled, stock blocking.
	blas.SetBlocking(blas.DefaultBlocking())
	vals0, vecs0 := solveOnce(t, a, &Options{DisableTuning: true})

	// Tuned: the profile is picked up from disk at Solver construction.
	tune.InvalidateCache()
	vals1, vecs1 := solveOnce(t, a, nil)
	if cb := blas.CurrentBlocking(); cb.MC != 96 || cb.NC != 256 || cb.Kernel != blas.KernelAuto {
		t.Fatalf("GEMM blocking after the profile: %+v, want its mc/nc under KernelAuto", cb)
	}

	for i := range vals0 {
		if vals0[i] != vals1[i] {
			t.Fatalf("eigenvalue %d differs with profile: %v vs %v", i, vals0[i], vals1[i])
		}
	}
	for i := range vecs0 {
		if vecs0[i] != vecs1[i] {
			t.Fatalf("eigenvector element %d differs with profile: %v vs %v", i, vecs0[i], vecs1[i])
		}
	}
}

// TestTuningStaleKernelNotApplied is the regression test for profiles written
// before the assembly kernel was in the default build: they persist the
// portable tile that won then ("2x4" or "4x4" — the assembly tile was never a
// candidate), and applying it would silently pin the slow path on an AVX2
// host. Such a file must still load, and must leave the kernel at KernelAuto.
func TestTuningStaleKernelNotApplied(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tune.json")
	t.Setenv(tune.ProfileEnv, path)
	tune.InvalidateCache()
	blas.SetBlocking(blas.DefaultBlocking())
	t.Cleanup(func() {
		tune.InvalidateCache()
		blas.SetBlocking(blas.DefaultBlocking())
	})
	stale := fmt.Sprintf(`{"version":%d,"goos":%q,"goarch":%q,"num_cpu":%d,"gemm":{"mc":128,"kc":128,"nc":1024,"kernel":"2x4"},"nb":32}`,
		tune.ProfileVersion, runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := tune.Load(path)
	if err != nil {
		t.Fatalf("a profile carrying a kernel name no longer loads: %v", err)
	}
	if p.Gemm.Kernel != "2x4" {
		t.Fatalf("kernel field parsed as %q, want it preserved", p.Gemm.Kernel)
	}
	s := NewSolver(nil)
	defer s.Close()
	if s.opts.NB != 32 {
		t.Fatalf("profile not picked up from disk: NB=%d", s.opts.NB)
	}
	if cb := blas.CurrentBlocking(); cb.Kernel != blas.KernelAuto || cb.MC != 128 || cb.NC != 1024 {
		t.Fatalf("GEMM blocking after NewSolver: %+v, want mc=128 nc=1024 under KernelAuto", cb)
	}
}

// TestTuningOptionsPrecedence checks the override ladder: explicit Options
// beat the profile, the profile beats defaults, and DisableTuning beats
// everything.
func TestTuningOptionsPrecedence(t *testing.T) {
	t.Cleanup(func() { blas.SetBlocking(blas.DefaultBlocking()) })
	p := neutralProfile()
	p.NB = 40

	s := NewSolver(&Options{Tuning: p})
	defer s.Close()
	if s.opts.NB != 40 || s.opts.ColBlock != 48 {
		t.Errorf("profile defaults not applied: NB=%d ColBlock=%d", s.opts.NB, s.opts.ColBlock)
	}

	s2 := NewSolver(&Options{Tuning: p, NB: 32, ColBlock: 64})
	defer s2.Close()
	if s2.opts.NB != 32 || s2.opts.ColBlock != 64 {
		t.Errorf("explicit options lost to profile: NB=%d ColBlock=%d", s2.opts.NB, s2.opts.ColBlock)
	}

	// The profile's SBR plan fills in only when the caller expressed no
	// multi-sweep preference: explicit fields or the kill-switch pin it.
	psbr := neutralProfile()
	psbr.WideBand = 64
	psbr.BandSweeps = []int{8}
	s4 := NewSolver(&Options{Tuning: psbr})
	defer s4.Close()
	if s4.opts.WideBand != 64 || len(s4.opts.BandSweeps) != 1 || s4.opts.BandSweeps[0] != 8 {
		t.Errorf("profile SBR plan not applied: WideBand=%d BandSweeps=%v", s4.opts.WideBand, s4.opts.BandSweeps)
	}
	s5 := NewSolver(&Options{Tuning: psbr, BandSweeps: []int{16}})
	defer s5.Close()
	if s5.opts.WideBand != 0 || len(s5.opts.BandSweeps) != 1 || s5.opts.BandSweeps[0] != 16 {
		t.Errorf("explicit SBR options lost to profile: WideBand=%d BandSweeps=%v", s5.opts.WideBand, s5.opts.BandSweeps)
	}
	s6 := NewSolver(&Options{Tuning: psbr, DisableMultiSweep: true})
	defer s6.Close()
	if s6.opts.WideBand != 0 || s6.opts.BandSweeps != nil {
		t.Errorf("DisableMultiSweep still applied profile SBR plan: WideBand=%d BandSweeps=%v", s6.opts.WideBand, s6.opts.BandSweeps)
	}

	blas.SetBlocking(blas.DefaultBlocking())
	s3 := NewSolver(&Options{Tuning: p, DisableTuning: true})
	defer s3.Close()
	if s3.opts.NB != 0 || s3.opts.ColBlock != 0 {
		t.Errorf("DisableTuning still applied profile: NB=%d ColBlock=%d", s3.opts.NB, s3.opts.ColBlock)
	}
	if cb := blas.CurrentBlocking(); cb != blas.DefaultBlocking() {
		t.Errorf("DisableTuning still changed blocking: %+v", cb)
	}
}

// TestTuningInvalidProfileIgnored: a hardware-mismatched profile must be
// silently skipped, never break construction.
func TestTuningInvalidProfileIgnored(t *testing.T) {
	t.Cleanup(func() { blas.SetBlocking(blas.DefaultBlocking()) })
	blas.SetBlocking(blas.DefaultBlocking())
	p := neutralProfile()
	p.NumCPU += 3
	p.NB = 40
	s := NewSolver(&Options{Tuning: p})
	defer s.Close()
	if s.opts.NB != 0 {
		t.Errorf("mismatched profile applied NB=%d", s.opts.NB)
	}
	if cb := blas.CurrentBlocking(); cb != blas.DefaultBlocking() {
		t.Errorf("mismatched profile changed blocking: %+v", cb)
	}
}

// TestNewSolverWithoutHomeDir pins container robustness: with $HOME and
// $XDG_CACHE_HOME both unset (minimal containers, systemd DynamicUser,
// scratch images), os.UserCacheDir errors — and the tune-profile auto-load
// must degrade silently instead of failing construction. NewSolver must
// build an untuned solver that solves correctly. Run by name in
// scripts/check.sh.
func TestNewSolverWithoutHomeDir(t *testing.T) {
	// t.Setenv to "" is how Go reaches the UserCacheDir error path: Unix
	// treats an empty $HOME exactly like an unset one.
	t.Setenv("HOME", "")
	t.Setenv("XDG_CACHE_HOME", "")
	t.Setenv(tune.ProfileEnv, "")
	tune.InvalidateCache()
	t.Cleanup(tune.InvalidateCache)

	s := NewSolver(&Options{Workers: 2})
	defer s.Close()
	if s.opts.NB != 0 || s.opts.ColBlock != 0 {
		t.Errorf("HOME-less solver picked up a profile: NB=%d ColBlock=%d", s.opts.NB, s.opts.ColBlock)
	}
	res, err := s.Eig(diagMatrix([]float64{3, 1, 2}))
	if err != nil {
		t.Fatalf("HOME-less solver cannot solve: %v", err)
	}
	if len(res.Values) != 3 || res.Values[0] != 1 || res.Values[2] != 3 {
		t.Fatalf("HOME-less solve wrong: %v", res.Values)
	}
}
