// Command eigtune tunes this machine the way §7.1 of the paper tunes its
// implementation, then persists the result: it measures the machine
// parameters (α, β), sweeps the GEMM cache blocking, the stage-1 tile size n_b
// (cross-checked against the Eqs. 9–10 analytic optimum), the stage-1
// look-ahead depth and the back-transformation column block, and writes the
// winners to the versioned JSON profile that eigen.Solver loads at
// construction ($EIGEN_TUNE_PROFILE or ~/.cache/eigen/tune.json). Both GEMM
// kernels are timed too, as a diagnostic and as the bitwise gate against the
// portable 2×4 tile, but the kernel is not a tuning result: the library picks
// it at run time (the AVX2/FMA assembly tile wherever the CPU has it).
//
//	eigtune -save                 # full sweep, write the profile
//	eigtune -save=false           # report only, write nothing
//	eigtune -o /tmp/tune.json     # write somewhere else
//
// Any measurement failure — a solve that errors, a kernel that is not bitwise
// identical to the portable one, a non-finite rate — aborts with a non-zero
// exit and no profile is written: a tuner must never persist settings it
// could not validate.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/blas"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/tune"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "eigtune:", err)
		os.Exit(1)
	}
}

func parseInts(flagName, s string) ([]int, error) {
	var list []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad -%s value %q", flagName, tok)
		}
		list = append(list, v)
	}
	return list, nil
}

// fastest times every candidate of one knob, reports each under label, and
// returns the quickest; a candidate that measures no time fails the run.
func fastest(stdout io.Writer, label string, candidates []int, secs func(int) float64) (int, error) {
	best, bestSecs := 0, 0.0
	for _, c := range candidates {
		s := secs(c)
		fmt.Fprintf(stdout, "  %s=%-4d %.3fs\n", label, c, s)
		if !(s > 0) {
			return 0, fmt.Errorf("%s=%d measured a non-positive time", label, c)
		}
		if best == 0 || s < bestSecs {
			best, bestSecs = c, s
		}
	}
	return best, nil
}

// run is the whole command: it parses args, measures, prints the report to
// stdout and, unless -save=false, writes the profile.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("eigtune", flag.ContinueOnError)
	var (
		n          = fs.Int("n", 512, "matrix size for the stage-1 nb sweep")
		nbs        = fs.String("nbs", "8,16,24,32,48,64,96", "comma-separated tile sizes to sweep")
		gemmN      = fs.Int("gemm-n", 384, "matrix order for the GEMM blocking sweep")
		colblocks  = fs.String("colblocks", "32,48,64,96,128", "comma-separated column-block widths to sweep")
		lookaheads = fs.String("lookaheads", "1,2,4", "comma-separated stage-1 look-ahead depths to sweep")
		reps       = fs.Int("reps", 2, "repetitions per measurement (best-of; raise on noisy hosts)")
		workers    = fs.Int("workers", 0, "scheduler workers for the nb/colblock sweeps (0 = sequential)")
		save       = fs.Bool("save", true, "persist the winning profile to disk")
		out        = fs.String("o", "", "profile path (default $EIGEN_TUNE_PROFILE or the user cache dir)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	nbList, err := parseInts("nbs", *nbs)
	if err != nil {
		return err
	}
	cbList, err := parseInts("colblocks", *colblocks)
	if err != nil {
		return err
	}
	laList, err := parseInts("lookaheads", *lookaheads)
	if err != nil {
		return err
	}
	if *reps < 1 {
		*reps = 1
	}

	// ---- Machine parameters (§7.1: α from gemm, β from symv) ----
	fmt.Fprintln(stdout, "Measuring machine parameters...")
	params := model.MeasureParams(runtime.NumCPU())
	if !(params.Alpha > 0) || !(params.Beta > 0) ||
		math.IsInf(params.Alpha, 0) || math.IsInf(params.Beta, 0) {
		return fmt.Errorf("machine parameter measurement failed: alpha=%g beta=%g", params.Alpha, params.Beta)
	}
	modelNB := model.OptimalNB(params)
	fmt.Fprintf(stdout, "  alpha (gemm) = %.2f Gflop/s\n", params.Alpha/1e9)
	fmt.Fprintf(stdout, "  beta  (symv) = %.2f Gflop/s\n", params.Beta/1e9)
	fmt.Fprintf(stdout, "  model-optimal nb (Eqs. 9-10): %.0f\n\n", modelNB)

	// ---- GEMM kernel check and cache-blocking sweep ----
	// First both kernels at stock blocking: a diagnostic of what run-time
	// dispatch (kernel "auto") buys on this machine, and the gate that it is
	// bitwise the portable 2×4 tile. Then a block-size grid under the
	// dispatched kernel, whose winner is what the profile records. KC is
	// pinned by the profile schema: it is the one parameter that changes
	// rounding.
	fmt.Fprintf(stdout, "Checking GEMM kernels and sweeping the blocking at n=%d (asm=%v)...\n", *gemmN, blas.AsmActive())
	ga, gb, gref := gemmOperands(*gemmN)
	// bestGemm measures every candidate and returns the fastest; a candidate
	// that is not bitwise equal to the portable kernel, or measures no rate,
	// fails the whole tuning run.
	bestGemm := func(candidates []blas.Blocking) (best blas.Blocking, bestRate float64, err error) {
		for _, bk := range candidates {
			rate, bitwise := gemmRate(*gemmN, bk, *reps, ga, gb, gref)
			fmt.Fprintf(stdout, "  kernel %-4s mc=%-4d nc=%-5d %7.2f Gflop/s  bitwise=%v\n", bk.Kernel, bk.MC, bk.NC, rate, bitwise)
			if !bitwise {
				return best, 0, fmt.Errorf("kernel %s mc=%d nc=%d is not bitwise identical to the portable 2×4 kernel — refusing to tune on a broken kernel", bk.Kernel, bk.MC, bk.NC)
			}
			if !(rate > 0) {
				return best, 0, fmt.Errorf("kernel %s measured a non-positive rate", bk.Kernel)
			}
			if rate > bestRate {
				best, bestRate = bk, rate
			}
		}
		return best, bestRate, nil
	}
	var family []blas.Blocking
	for _, k := range []blas.Kernel{blas.Kernel2x4, blas.KernelAuto} {
		family = append(family, blas.Blocking{MC: blas.DefaultMC, KC: tune.RequiredKC, NC: blas.DefaultNC, Kernel: k})
	}
	if _, _, err := bestGemm(family); err != nil {
		return err
	}
	var grid []blas.Blocking
	for _, mc := range []int{132, 264, 384} { // whole 12-row assembly panels
		for _, nc := range []int{256, 512, 1024} {
			grid = append(grid, blas.Blocking{MC: mc, KC: tune.RequiredKC, NC: nc, Kernel: blas.KernelAuto})
		}
	}
	bestBlock, bestBlockRate, err := bestGemm(grid)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  best: mc=%d nc=%d (%.2f Gflop/s)\n\n", bestBlock.MC, bestBlock.NC, bestBlockRate)

	// ---- Stage-1 tile size sweep, cross-checked against the model ----
	fmt.Fprintf(stdout, "Sweeping stage-1 nb at n=%d...\n", *n)
	a := matFor(*n)
	bestNB, bestNBSecs := 0, 0.0
	for _, nb := range nbList {
		s1, s2, err := reductionSecs(a, nb, *workers)
		if err != nil {
			return fmt.Errorf("nb sweep failed: %w", err)
		}
		fmt.Fprintf(stdout, "  nb=%-4d stage1 %.3fs  stage2 %.3fs  total %.3fs\n", nb, s1, s2, s1+s2)
		if bestNB == 0 || s1+s2 < bestNBSecs {
			bestNB, bestNBSecs = nb, s1+s2
		}
	}
	fmt.Fprintf(stdout, "  empirical best nb: %d (model predicts %.0f", bestNB, modelNB)
	if ratio := float64(bestNB) / modelNB; ratio > 2 || ratio < 0.5 {
		fmt.Fprintf(stdout, " — disagreement >2x; trust the measurement, see EXPERIMENTS.md")
	}
	fmt.Fprintf(stdout, ")\n\n")

	// ---- Stage-1 look-ahead depth sweep ----
	// Every depth is bitwise identical (the knob only steers the ready
	// queue), so only time discriminates. With one worker the depths are
	// indistinguishable; the sweep still runs so the profile records an
	// explicit winner for this machine.
	laSched := sched.New(max(*workers, 2))
	defer laSched.Shutdown()
	fmt.Fprintf(stdout, "Sweeping stage-1 look-ahead depth at n=%d, nb=%d, workers=%d...\n", *n, bestNB, laSched.Workers())
	bestLA, err := fastest(stdout, "lookahead", laList, func(depth int) float64 {
		return stage1Secs(laSched, a, bestNB, depth, *reps)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  empirical best look-ahead depth: %d\n\n", bestLA)

	// ---- Back-transformation column-block sweep ----
	fmt.Fprintf(stdout, "Sweeping back-transformation column block at n=%d, nb=%d...\n", *n, bestNB)
	fx := newBacktransFixture(a, bestNB)
	var cbSched *sched.Scheduler
	if *workers > 1 {
		cbSched = sched.New(*workers)
		defer cbSched.Shutdown()
	}
	bestCB, err := fastest(stdout, "colBlock", cbList, func(cb int) float64 {
		return fx.fusedSecs(cbSched, cb, *reps)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  empirical best colBlock: %d\n\n", bestCB)

	// ---- Persist ----
	p := tune.NewProfile()
	p.Created = time.Now().UTC().Format(time.RFC3339)
	p.Gemm = tune.GemmConfig{MC: bestBlock.MC, KC: tune.RequiredKC, NC: bestBlock.NC}
	p.NB = bestNB
	p.ColBlock = bestCB
	p.Lookahead = bestLA
	p.AlphaFlops = params.Alpha
	p.BetaFlops = params.Beta
	p.ModelNB = int(modelNB + 0.5)
	if err := p.Validate(); err != nil {
		return fmt.Errorf("assembled profile is invalid: %w", err)
	}
	if !*save {
		fmt.Fprintln(stdout, "(-save=false: profile not written)")
		return nil
	}
	path := *out
	if path == "" {
		if path, err = tune.DefaultPath(); err != nil {
			return err
		}
	}
	if err := p.Save(path); err != nil {
		return fmt.Errorf("writing profile: %w", err)
	}
	tune.InvalidateCache()
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}
