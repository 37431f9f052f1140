package eigen

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/blas"
	"repro/internal/tune"
)

// neutralProfile returns a valid profile that moves every numerically-neutral
// knob off its default: different cache blocking (KC pinned) and a non-default
// column block. NB is left unset — it is the one knob that legitimately
// changes the computed basis, so the bitwise gate exercises everything else.
func neutralProfile() *tune.Profile {
	p := tune.NewProfile()
	p.Gemm = tune.GemmConfig{MC: 96, KC: tune.RequiredKC, NC: 256}
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
	if *got != *neutralProfile() {
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

// TestTuningStaleKernelNotApplied is the regression test for v3 profiles
// written by older builds: they may carry the portable tile that won before
// the assembly kernel was a candidate ("kernel") and a multi-sweep stage-1
// plan ("wide_band", "band_sweeps"). Such a file must still load, install its
// mc/nc under KernelAuto, apply its nb, and solve bitwise like the same
// profile without the three keys.
func TestTuningStaleKernelNotApplied(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tune.json")
	t.Setenv(tune.ProfileEnv, path)
	blas.SetBlocking(blas.DefaultBlocking())
	t.Cleanup(func() {
		tune.InvalidateCache()
		blas.SetBlocking(blas.DefaultBlocking())
	})
	profile := func(kernel, plan string) string {
		return fmt.Sprintf(`{"version":%d,"goos":%q,"goarch":%q,"num_cpu":%d,"gemm":{"mc":128,"kc":128,"nc":1024%s},"nb":32%s}`,
			tune.ProfileVersion, runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), kernel, plan)
	}
	a := randSymMatrix(rand.New(rand.NewSource(11)), 70)
	var vals, vecs [2][]float64
	for i, file := range []string{
		profile(`,"kernel":"2x4"`, `,"wide_band":64,"band_sweeps":[8]`),
		profile("", ""),
	} {
		if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := tune.Load(path); err != nil {
			t.Fatalf("profile %d no longer loads: %v", i, err)
		}
		tune.InvalidateCache()
		blas.SetBlocking(blas.DefaultBlocking())
		s := NewSolver(nil)
		defer s.Close()
		if s.opts.NB != 32 {
			t.Fatalf("profile %d not picked up from disk: NB=%d", i, s.opts.NB)
		}
		if cb := blas.CurrentBlocking(); cb.Kernel != blas.KernelAuto || cb.MC != 128 || cb.NC != 1024 {
			t.Fatalf("GEMM blocking after NewSolver with profile %d: %+v, want mc=128 nc=1024 under KernelAuto", i, cb)
		}
		res, err := s.Eig(a)
		if err != nil {
			t.Fatal(err)
		}
		vals[i], vecs[i] = res.Values, res.Vectors.data
	}
	if !slices.Equal(vals[0], vals[1]) || !slices.Equal(vecs[0], vecs[1]) {
		t.Fatal("the legacy keys changed the solve")
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

// TestTuningInvalidProfileIgnored: a hardware-mismatched profile, or one from
// another schema version, must be silently skipped, never break construction.
func TestTuningInvalidProfileIgnored(t *testing.T) {
	t.Cleanup(func() { blas.SetBlocking(blas.DefaultBlocking()) })
	for name, mut := range map[string]func(*tune.Profile){
		"other machine": func(p *tune.Profile) { p.NumCPU += 3 },
		"schema v2":     func(p *tune.Profile) { p.Version = 2 },
	} {
		blas.SetBlocking(blas.DefaultBlocking())
		p := neutralProfile()
		p.NB = 40
		mut(p)
		s := NewSolver(&Options{Tuning: p})
		if s.opts.NB != 0 || s.opts.ColBlock != 0 {
			t.Errorf("%s: profile applied NB=%d ColBlock=%d", name, s.opts.NB, s.opts.ColBlock)
		}
		if cb := blas.CurrentBlocking(); cb != blas.DefaultBlocking() {
			t.Errorf("%s: profile changed blocking: %+v", name, cb)
		}
		s.Close()
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
