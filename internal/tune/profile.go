package tune

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
)

// ProfileVersion is the one schema version this build reads and writes;
// every other version is rejected by Validate: the meaning of the fields (in
// particular which ones are numerically neutral) is part of the schema, so a
// profile from another schema is worthless rather than approximately right.
// The number is 3 because profiles written since the schema last changed carry
// it; keys older builds wrote under it and this one dropped (gemm.kernel,
// wide_band, band_sweeps) are skipped on load like any unknown JSON key.
const ProfileVersion = 3

// RequiredKC is the one GEMM blocking parameter the schema pins: C is
// accumulated in KC-sized partial sums, so KC is the only blocking value that
// changes the rounding of every Level-3 result. Profiles must either leave it
// unset (0 → the default, which equals RequiredKC) or set it to exactly this
// value; anything else is rejected so that installing a tuned profile can
// never perturb solver output.
const RequiredKC = 128

// ProfileEnv names the environment variable that overrides the default
// on-disk profile location.
const ProfileEnv = "EIGEN_TUNE_PROFILE"

// GemmConfig is the persisted GEMM blocking: the cache block sizes. Zero
// fields mean "keep the built-in default". The kernel family is not part of
// it: blas.KernelAuto picks it at run time.
type GemmConfig struct {
	MC int `json:"mc,omitempty"`
	KC int `json:"kc,omitempty"`
	NC int `json:"nc,omitempty"`
}

// Profile is the persisted result of one cmd/eigtune run: the machine it was
// measured on, the winning knob settings, and the measured machine parameters
// that justify them (for the Eqs. 9–10 cross-check and for humans reading the
// file). All tuning fields are optional; a zero field defers to the built-in
// default for that knob.
//
// Numerics contract: every field a Solver applies automatically is
// numerically neutral — GEMM MC/NC never reorder an accumulation chain (see
// internal/blas), and ColBlock only partitions independent eigenvector
// columns. The two exceptions are KC (pinned by Validate to RequiredKC) and
// NB, which selects a different — equally valid — factorization exactly like
// Options.NB does.
type Profile struct {
	Version int    `json:"version"`
	GOOS    string `json:"goos"`
	GOARCH  string `json:"goarch"`
	NumCPU  int    `json:"num_cpu"`
	// Created is an informational timestamp (RFC 3339); it is not validated.
	Created string `json:"created,omitempty"`

	// Gemm is the Level-3 blocking installed process-wide at Solver
	// construction.
	Gemm GemmConfig `json:"gemm"`
	// NB is the tuned stage-1 tile size / bandwidth (0 = keep the default).
	// Applied only when Options.NB is unset.
	NB int `json:"nb,omitempty"`
	// ColBlock is the tuned eigenvector column-block width (0 = keep the
	// ColBlock heuristic). Applied only when Options.ColBlock is unset.
	ColBlock int `json:"col_block,omitempty"`
	// Lookahead is the tuned stage-1 look-ahead depth (0 = keep the built-in
	// default). Applied only when Options.LookaheadDepth is unset.
	// Numerically neutral: the depth only steers task readiness, never an
	// accumulation order.
	Lookahead int `json:"lookahead,omitempty"`

	// Measured machine parameters (flop/s) and the model's analytic optimum,
	// recorded for the §7.1 cross-check; they are not consumed by the Solver.
	AlphaFlops float64 `json:"alpha_flops,omitempty"`
	BetaFlops  float64 `json:"beta_flops,omitempty"`
	ModelNB    int     `json:"model_nb,omitempty"`
}

// NewProfile returns an empty profile stamped with this build's schema
// version and this machine's identity.
func NewProfile() *Profile {
	return &Profile{
		Version: ProfileVersion,
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		NumCPU:  runtime.NumCPU(),
	}
}

// Validate reports whether the profile may be applied on this machine: the
// schema version must match, the hardware identity must match (a profile
// tuned elsewhere is at best useless and at worst pins pathological blocking),
// KC must be unset or RequiredKC, and the numeric knobs must be non-negative.
func (p *Profile) Validate() error {
	if p == nil {
		return fmt.Errorf("tune: nil profile")
	}
	if p.Version != ProfileVersion {
		return fmt.Errorf("tune: profile schema v%d, this build reads v%d", p.Version, ProfileVersion)
	}
	if p.GOOS != runtime.GOOS || p.GOARCH != runtime.GOARCH {
		return fmt.Errorf("tune: profile tuned for %s/%s, running on %s/%s", p.GOOS, p.GOARCH, runtime.GOOS, runtime.GOARCH)
	}
	if p.NumCPU != runtime.NumCPU() {
		return fmt.Errorf("tune: profile tuned for %d CPUs, machine has %d", p.NumCPU, runtime.NumCPU())
	}
	if p.Gemm.KC != 0 && p.Gemm.KC != RequiredKC {
		return fmt.Errorf("tune: profile gemm kc=%d, schema v%d requires %d (kc changes rounding)", p.Gemm.KC, ProfileVersion, RequiredKC)
	}
	if p.Gemm.MC < 0 || p.Gemm.NC < 0 || p.NB < 0 || p.ColBlock < 0 || p.Lookahead < 0 {
		return fmt.Errorf("tune: negative tuning value in profile")
	}
	return nil
}

// DefaultPath returns where profiles live on this machine: $EIGEN_TUNE_PROFILE
// when set, else <user cache dir>/eigen/tune.json.
func DefaultPath() (string, error) {
	if p := os.Getenv(ProfileEnv); p != "" {
		return p, nil
	}
	dir, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("tune: no cache dir (set %s): %w", ProfileEnv, err)
	}
	return filepath.Join(dir, "eigen", "tune.json"), nil
}

// Load reads and validates a profile. Both I/O and validation failures are
// errors; callers that merely prefer a profile (the Solver) use Cached, which
// maps every failure to "no profile".
func Load(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("tune: parsing %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("tune: rejecting %s: %w", path, err)
	}
	return &p, nil
}

// Save validates the profile and writes it atomically (temp file + rename in
// the destination directory, so a crash or a concurrent reader never sees a
// torn profile). Parent directories are created as needed.
func (p *Profile) Save(path string) error {
	if err := p.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tune-*.json")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// cacheMu guards the once-per-process profile load that Cached serves to
// every Solver construction.
var cacheMu sync.Mutex
var cachedProfile *Profile
var cacheLoaded bool

// Cached returns the machine's persisted profile, loading it from DefaultPath
// on first use, or nil when there is none (missing file, unreadable file,
// schema or hardware mismatch — a Solver must never fail to construct because
// of a stale tuning file). The result is shared; callers must not mutate it.
func Cached() *Profile {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if !cacheLoaded {
		cacheLoaded = true
		if path, err := DefaultPath(); err == nil {
			if p, err := Load(path); err == nil {
				cachedProfile = p
			}
		}
	}
	return cachedProfile
}

// InvalidateCache drops the cached profile so the next Cached call re-reads
// the disk — used after eigtune writes a new profile in-process and by tests
// that repoint EIGEN_TUNE_PROFILE.
func InvalidateCache() {
	cacheMu.Lock()
	cachedProfile = nil
	cacheLoaded = false
	cacheMu.Unlock()
}
