package eigen

import (
	"repro/internal/blas"
	"repro/internal/tune"
)

// TuneProfile is the persisted autotuning profile written by cmd/eigtune and
// consumed by Options.Tuning: the machine identity it was measured on plus
// the winning GEMM cache blocking, stage-1 tile size, column-block width and
// stage-1 look-ahead depth.
// Aliased from the internal tune package so external callers can construct,
// load (LoadTuneProfile) and save (its Save method) profiles.
type TuneProfile = tune.Profile

// TuneGemmConfig is the GEMM blocking section of a TuneProfile.
type TuneGemmConfig = tune.GemmConfig

// NewTuneProfile returns an empty profile stamped with this machine's
// identity, ready for its tuning fields to be filled in.
func NewTuneProfile() *TuneProfile { return tune.NewProfile() }

// LoadTuneProfile reads and validates a profile from an explicit path (the
// default path — $EIGEN_TUNE_PROFILE or the user cache dir — is loaded
// automatically at NewSolver; this is for profiles kept elsewhere).
func LoadTuneProfile(path string) (*TuneProfile, error) { return tune.Load(path) }

// DefaultTuneProfilePath reports where this machine's profile lives:
// $EIGEN_TUNE_PROFILE when set, else <user cache dir>/eigen/tune.json.
func DefaultTuneProfilePath() (string, error) { return tune.DefaultPath() }

// applyTuning resolves and applies the tune profile for one Solver
// construction: Options.Tuning when supplied, else the machine's persisted
// profile (tune.Cached), else nothing. It is called before normalize so the
// profile's values pass through the same clamping as user-set ones.
//
// Application is deliberately asymmetric:
//
//   - The GEMM cache blocking (MC/NC) is process-wide (it describes the
//     machine, not a solver) and is installed via blas.SetBlocking. Its fields
//     are numerically neutral — the profile schema pins KC, the only blocking
//     parameter that changes rounding — so installing it never perturbs any
//     concurrent solver's results. The kernel family is not a profile field:
//     blas.KernelAuto picks the assembly tile wherever the CPU has it, and the
//     "kernel" key of a file written before that is skipped on load.
//   - NB, ColBlock and LookaheadDepth are per-solver and only fill fields
//     the caller left unset, so explicit Options always win over the profile.
//
// An invalid profile (schema or hardware mismatch) is ignored, not an error:
// a stale tuning file must never break solver construction. DisableTuning
// skips all of it.
func applyTuning(o *Options) {
	if o.DisableTuning {
		return
	}
	p := o.Tuning
	if p == nil {
		p = tune.Cached()
	}
	if p == nil || p.Validate() != nil {
		return
	}
	if g := p.Gemm; g.MC != 0 || g.NC != 0 || g.KC != 0 {
		blas.SetBlocking(blas.Blocking{MC: g.MC, KC: g.KC, NC: g.NC, Kernel: blas.KernelAuto})
	}
	if o.NB == 0 && p.NB > 0 {
		o.NB = p.NB
	}
	if o.ColBlock == 0 && p.ColBlock > 0 {
		o.ColBlock = p.ColBlock
	}
	if o.LookaheadDepth == 0 && p.Lookahead > 0 {
		o.LookaheadDepth = p.Lookahead
	}
}
