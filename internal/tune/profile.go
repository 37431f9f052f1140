package tune

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
)

// ProfileVersion is the schema version written by this build. Loading
// migrates known older versions forward (see migrate) and rejects the rest:
// the meaning of the fields (in particular which ones are numerically
// neutral) is part of the schema, so a profile from an unknown schema is
// worthless rather than approximately right.
//
// History: v1 was the original (gemm/nb/col_block); v2 added Lookahead, the
// swept stage-1 look-ahead depth; v3 added the multi-sweep SBR plan
// (WideBand + BandSweeps).
const ProfileVersion = 3

// RequiredKC is the one GEMM blocking parameter the schema pins (since v1): C is
// accumulated in KC-sized partial sums, so KC is the only blocking value that
// changes the rounding of every Level-3 result. Profiles must either leave it
// unset (0 → the default, which equals RequiredKC) or set it to exactly this
// value; anything else is rejected so that installing a tuned profile can
// never perturb solver output.
const RequiredKC = 128

// ProfileEnv names the environment variable that overrides the default
// on-disk profile location.
const ProfileEnv = "EIGEN_TUNE_PROFILE"

// kernelNames is the closed set of GEMM kernel spellings the schema
// admits (blas.Kernel's String forms; tune is a leaf package and cannot
// import blas to ask).
var kernelNames = map[string]bool{
	"": true, "auto": true, "2x4": true, "4x4": true, "8x4": true, "seed": true,
}

// GemmConfig is the persisted GEMM blocking: the cache block sizes. Zero
// fields mean "keep the built-in default".
//
// Kernel is what older profiles recorded as the winning accumulator tile. It
// is still parsed and validated, so those files load, but nothing applies it
// and eigtune no longer writes it: the kernel is chosen at run time
// (blas.KernelAuto), and a tile name persisted before the assembly kernel was
// a candidate would pin the slower portable path.
type GemmConfig struct {
	MC     int    `json:"mc,omitempty"`
	KC     int    `json:"kc,omitempty"`
	NC     int    `json:"nc,omitempty"`
	Kernel string `json:"kernel,omitempty"`
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
	// default, which is also what migrated v1 profiles report). Applied only
	// when Options.LookaheadDepth is unset. Numerically neutral: the depth
	// only steers task readiness, never an accumulation order.
	Lookahead int `json:"lookahead,omitempty"`

	// WideBand and BandSweeps are the tuned multi-sweep stage-1 plan (since
	// v3): reduce to bandwidth WideBand first, then narrow through the
	// strictly decreasing BandSweeps bandwidths via successive band reduction
	// before the bulge chase. Both unset (0 / empty) means the classic
	// single-sweep reduction won tuning. Applied only when the caller left
	// Options.WideBand and Options.BandSweeps unset and did not set
	// DisableMultiSweep. Like NB, these select a different — equally valid —
	// factorization rather than perturbing an existing one.
	WideBand   int   `json:"wide_band,omitempty"`
	BandSweeps []int `json:"band_sweeps,omitempty"`

	// Measured machine parameters (flop/s) and the model's analytic optimum,
	// recorded for the §7.1 cross-check; they are not consumed by the Solver.
	AlphaFlops float64 `json:"alpha_flops,omitempty"`
	BetaFlops  float64 `json:"beta_flops,omitempty"`
	ModelNB    int     `json:"model_nb,omitempty"`
}

// Equal reports whether two profiles carry identical settings. Profiles
// stopped being comparable with == when the schema grew a slice field
// (BandSweeps, v3); this is the replacement, used by tests and by callers
// deciding whether a re-tune changed anything.
func (p *Profile) Equal(q *Profile) bool {
	if p == nil || q == nil {
		return p == q
	}
	return p.Version == q.Version && p.GOOS == q.GOOS && p.GOARCH == q.GOARCH &&
		p.NumCPU == q.NumCPU && p.Created == q.Created && p.Gemm == q.Gemm &&
		p.NB == q.NB && p.ColBlock == q.ColBlock && p.Lookahead == q.Lookahead &&
		p.WideBand == q.WideBand && slices.Equal(p.BandSweeps, q.BandSweeps) &&
		p.AlphaFlops == q.AlphaFlops && p.BetaFlops == q.BetaFlops && p.ModelNB == q.ModelNB
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
// KC must be unset or RequiredKC, the kernel name must be known, and the
// numeric knobs must be non-negative.
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
	if !kernelNames[p.Gemm.Kernel] {
		return fmt.Errorf("tune: unknown gemm kernel %q", p.Gemm.Kernel)
	}
	if p.Gemm.MC < 0 || p.Gemm.NC < 0 || p.NB < 0 || p.ColBlock < 0 || p.Lookahead < 0 || p.WideBand < 0 {
		return fmt.Errorf("tune: negative tuning value in profile")
	}
	prev := p.WideBand
	for _, b := range p.BandSweeps {
		if b < 1 {
			return fmt.Errorf("tune: band_sweeps entry %d out of range (must be ≥ 1)", b)
		}
		if prev > 0 && b >= prev {
			return fmt.Errorf("tune: band_sweeps must narrow strictly (got %d after %d)", b, prev)
		}
		prev = b
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
	if err := p.migrate(); err != nil {
		return nil, fmt.Errorf("tune: rejecting %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("tune: rejecting %s: %w", path, err)
	}
	return &p, nil
}

// migrate upgrades a known older on-disk schema to ProfileVersion in place.
// Each hop is semantics-preserving because the fields the next schema added
// did not exist in the older one, and their zero values mean "keep the
// built-in default" — exactly how the older build behaved. That argument
// collapses if an old-versioned file carries a newer field with a non-zero
// value: the file was hand-edited or truncated by a version-unaware writer,
// and silently migrating it would apply settings no schema ever defined for
// it. Such files are rejected here, before migration. Unknown versions are
// left untouched for Validate to reject.
func (p *Profile) migrate() error {
	if p.Version < 2 && p.Lookahead != 0 {
		return fmt.Errorf("tune: profile schema v%d predates the lookahead field but sets lookahead=%d", p.Version, p.Lookahead)
	}
	if p.Version < 3 && (p.WideBand != 0 || len(p.BandSweeps) != 0) {
		return fmt.Errorf("tune: profile schema v%d predates the SBR fields but sets wide_band/band_sweeps", p.Version)
	}
	if p.Version == 1 {
		p.Version = 2
	}
	if p.Version == 2 {
		p.Version = 3
	}
	return nil
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
