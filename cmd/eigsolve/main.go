// Command eigsolve solves a dense symmetric eigenvalue problem from the
// command line. The matrix is either generated (-gen) or read from a
// whitespace-separated text file (-in) containing n and then n² row-major
// entries. It prints the requested eigenvalues and, with -vectors, the
// eigenpairs' scale-free residual and orthogonality scores.
//
// Examples:
//
//	eigsolve -gen random -n 512                 # eigenvalues of a random matrix
//	eigsolve -gen laplacian -n 300 -vectors     # with eigenvectors + residual/orthogonality scores
//	eigsolve -in matrix.txt -range 1:20         # 20 smallest eigenpairs
//	eigsolve -gen random -n 800 -alg onestage   # baseline algorithm
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/matrix"
	"repro/internal/testmat"
	"repro/internal/trace"
)

func main() {
	var (
		gen      = flag.String("gen", "", "generate a matrix: random | laplacian | clustered")
		in       = flag.String("in", "", "read matrix from file (n, then n*n row-major values)")
		n        = flag.Int("n", 256, "matrix size for -gen")
		alg      = flag.String("alg", "twostage", "algorithm: twostage | onestage")
		method   = flag.String("method", "dc", "tridiagonal eigensolver: dc | bi | qr")
		vectors  = flag.Bool("vectors", false, "compute eigenvectors and report their residual and orthogonality")
		rng      = flag.String("range", "", "eigenvalue index range il:iu (1-based)")
		nb       = flag.Int("nb", 0, "tile size / bandwidth (0 = default)")
		workers  = flag.Int("workers", 0, "scheduler workers (0 = sequential)")
		seed     = flag.Int64("seed", 1, "random seed for -gen")
		phases   = flag.Bool("phases", false, "print per-phase timing breakdown")
		maxPrint = flag.Int("print", 10, "print at most this many eigenvalues (0 = all)")
	)
	flag.Parse()

	a, err := loadMatrix(*gen, *in, *n, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eigsolve:", err)
		os.Exit(1)
	}
	rows, _ := a.Dims()

	opts := &eigen.Options{NB: *nb, Workers: *workers}
	switch *alg {
	case "twostage":
		opts.Algorithm = eigen.TwoStage
	case "onestage":
		opts.Algorithm = eigen.OneStage
	default:
		fmt.Fprintln(os.Stderr, "eigsolve: unknown -alg", *alg)
		os.Exit(2)
	}
	switch *method {
	case "dc":
		opts.Method = eigen.DivideAndConquer
	case "bi":
		opts.Method = eigen.BisectionInverseIteration
	case "qr":
		opts.Method = eigen.QRIteration
	default:
		fmt.Fprintln(os.Stderr, "eigsolve: unknown -method", *method)
		os.Exit(2)
	}
	tc := trace.New()
	if *phases {
		opts.Collector = tc
	}

	il, iu := 0, 0
	if *rng != "" {
		if _, err := fmt.Sscanf(*rng, "%d:%d", &il, &iu); err != nil {
			fmt.Fprintln(os.Stderr, "eigsolve: bad -range, want il:iu")
			os.Exit(2)
		}
	}

	start := time.Now()
	var res *eigen.Result
	switch {
	case il > 0 && *vectors:
		res, err = eigen.EigRange(a, il, iu, opts)
	case il > 0:
		var vals []float64
		vals, err = eigen.EigValuesRange(a, il, iu, opts)
		res = &eigen.Result{Values: vals}
	case *vectors:
		res, err = eigen.Eig(a, opts)
	default:
		var vals []float64
		vals, err = eigen.EigValues(a, opts)
		res = &eigen.Result{Values: vals}
	}
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eigsolve:", err)
		os.Exit(1)
	}

	fmt.Printf("n=%d alg=%s method=%s: %d eigenvalue(s) in %v\n",
		rows, *alg, *method, len(res.Values), elapsed.Round(time.Millisecond))
	limit := len(res.Values)
	if *maxPrint > 0 && *maxPrint < limit {
		limit = *maxPrint
	}
	for i := 0; i < limit; i++ {
		fmt.Printf("  lambda[%d] = %.12g\n", i+1, res.Values[i])
	}
	if limit < len(res.Values) {
		fmt.Printf("  ... (%d more)\n", len(res.Values)-limit)
	}
	if *vectors && res.Vectors != nil {
		sc, err := check(a, res)
		fmt.Printf("residual %.3g n·eps·|A|_F, orthogonality %.3g n·eps\n", sc.Residual, sc.Ortho)
		if err != nil {
			fmt.Fprintln(os.Stderr, "eigsolve:", err)
			os.Exit(1)
		}
	}
	if *phases {
		for ph, d := range tc.Phases() {
			fmt.Printf("  phase %-12s %v\n", ph, d.Round(time.Microsecond))
		}
	}
}

func loadMatrix(gen, in string, n int, seed int64) (*eigen.Matrix, error) {
	if in != "" {
		return readMatrix(in)
	}
	r := rand.New(rand.NewSource(seed))
	a := eigen.NewMatrix(n)
	switch gen {
	case "random", "":
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				a.SetSym(i, j, r.NormFloat64())
			}
		}
	case "laplacian":
		// Path-graph Laplacian: analytic eigenvalues 2−2cos(kπ/n).
		for i := 0; i < n; i++ {
			d := 2.0
			if i == 0 || i == n-1 {
				d = 1
			}
			a.Set(i, i, d)
			if i+1 < n {
				a.SetSym(i, i+1, -1)
			}
		}
	case "clustered":
		// Diagonal clusters plus a small random symmetric perturbation.
		for i := 0; i < n; i++ {
			a.Set(i, i, float64(i%5))
			for j := i + 1; j < n; j++ {
				a.SetSym(i, j, 1e-6*r.NormFloat64())
			}
		}
	default:
		return nil, fmt.Errorf("unknown generator %q", gen)
	}
	return a, nil
}

func readMatrix(path string) (*eigen.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	sc.Split(bufio.ScanWords)
	read := func() (string, error) {
		if !sc.Scan() {
			if sc.Err() != nil {
				return "", sc.Err()
			}
			return "", fmt.Errorf("unexpected end of file")
		}
		return sc.Text(), nil
	}
	tok, err := read()
	if err != nil {
		return nil, err
	}
	var n int
	if _, err := fmt.Sscan(tok, &n); err != nil {
		return nil, fmt.Errorf("bad size token %q", tok)
	}
	if n < 0 || (n > 0 && n > math.MaxInt/n) {
		return nil, fmt.Errorf("bad size %d", n)
	}
	// The values grow the slice, so a size token alone cannot allocate.
	var vals []float64
	for len(vals) < n*n {
		tok, err := read()
		if err != nil {
			return nil, fmt.Errorf("after %d values: %w", len(vals), err)
		}
		tok = strings.TrimSpace(tok)
		var v float64
		if _, err := fmt.Sscan(tok, &v); err != nil {
			return nil, fmt.Errorf("bad value %q", tok)
		}
		vals = append(vals, v)
	}
	return eigen.NewMatrixFrom(n, vals), nil
}

// check scores the eigenpairs in res with testmat.Check: the residual
// max‖Az − λz‖₂ in units of n·ε·‖A‖_F and ‖ZᵀZ − I‖ in units of n·ε, each of
// order one for a backward stable solve. Only an unordered spectrum or a NaN
// score is an error.
func check(a *eigen.Matrix, res *eigen.Result) (testmat.Scores, error) {
	return testmat.Check(dense(a), res.Values, dense(res.Vectors), math.Inf(1))
}

// dense copies m into the checker's matrix type.
func dense(m *eigen.Matrix) *matrix.Dense {
	r, c := m.Dims()
	d := matrix.NewDense(r, c)
	for j := 0; j < c; j++ {
		copy(d.Data[j*d.Stride:], m.Col(j))
	}
	return d
}
