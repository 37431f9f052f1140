package eigen

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.txt from this build")

// digestPath is the committed listing TestDigests compares against.
var digestPath = filepath.Join("testdata", "digests.txt")

// digest is the SHA-256 of the bits of the given slices, in order.
func digest(parts ...[]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range parts {
		for _, v := range p {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestDigests lists a SHA-256 of the result bits of each solve in a fixed
// set and compares the listing with testdata/digests.txt, so that a change
// which moves any bit shows as the lines of that file it changes (-update
// rewrites it). The set: Eig (values, and values with vectors), EigValues and
// EigRange(n/4, n/2) at n ∈ {200, 1024}, by both pipelines and by D&C and BI
// (QR at n = 200 only); six SolveBatch items; two-stage EigValues and Eig at
// n = 1536. The n = 200 solves run on one worker and on two and must agree;
// the larger ones run on two. Under the race detector only the n = 200 lines
// and the batch are computed, and compared with their lines of the file.
// The kernels, GOAMD64=v3 and GODEBUG=cpu.fma=off give the same bits
// (TestSolveBitwiseAcrossKernels), so one listing serves every amd64 build;
// other GOARCHes are not known to, and skip.
func TestDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the listing is for amd64")
	}
	var lines []string
	add := func(name string, parts ...[]float64) {
		lines = append(lines, name+" "+digest(parts...))
	}
	ns := []int{200, 1024}
	if raceEnabled {
		ns = ns[:1]
	}
	for _, n := range ns {
		a := randSymMatrix(rand.New(rand.NewSource(int64(n))), n)
		for _, alg := range []Algorithm{TwoStage, OneStage} {
			methods := []Method{DivideAndConquer, BisectionInverseIteration}
			if n <= 200 {
				methods = append(methods, QRIteration)
			}
			for _, m := range methods {
				var first []string
				for _, w := range []int{1, 2} {
					if n > 200 && w == 1 {
						continue
					}
					s := NewSolver(&Options{Algorithm: alg, Method: m, Workers: w})
					label := fmt.Sprintf("n=%d %s %s", n, [...]string{"two-stage", "one-stage"}[alg], [...]string{"D&C", "BI", "QR"}[m])
					var got []string
					eig, err := s.Eig(a)
					if err != nil {
						t.Fatal(err)
					}
					vals, err := s.EigValues(a)
					if err != nil {
						t.Fatal(err)
					}
					sub, err := s.EigRange(a, n/4, n/2)
					if err != nil {
						t.Fatal(err)
					}
					s.Close()
					got = append(got,
						label+" Eig.values "+digest(eig.Values),
						label+" Eig "+digest(eig.Values, eig.Vectors.data),
						label+" EigValues "+digest(vals),
						label+" EigRange "+digest(sub.Values, sub.Vectors.data))
					if first == nil {
						first = got
					} else if strings.Join(got, "\n") != strings.Join(first, "\n") {
						t.Errorf("%s: W = %d gives other bits than W = 1", label, w)
					}
				}
				lines = append(lines, first...)
			}
		}
	}

	s := NewSolver(&Options{Workers: 2})
	rng := rand.New(rand.NewSource(6))
	var items []BatchItem
	for _, n := range []int{100, 300, 600} {
		for _, valuesOnly := range []bool{false, true} {
			items = append(items, BatchItem{A: randSymMatrix(rng, n), ValuesOnly: valuesOnly})
		}
	}
	for i, r := range s.SolveBatch(context.Background(), items) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Vectors == nil {
			add(fmt.Sprintf("batch item %d values", i), r.Values)
		} else {
			add(fmt.Sprintf("batch item %d", i), r.Values, r.Vectors.data)
		}
	}
	if !raceEnabled {
		a := randSymMatrix(rand.New(rand.NewSource(1536)), 1536)
		vals, err := s.EigValues(a)
		if err != nil {
			t.Fatal(err)
		}
		add("n=1536 two-stage D&C EigValues", vals)
		eig, err := s.Eig(a)
		if err != nil {
			t.Fatal(err)
		}
		add("n=1536 two-stage D&C Eig", eig.Values, eig.Vectors.data)
	}
	s.Close()

	listing := strings.Join(lines, "\n") + "\n"
	if *update {
		if raceEnabled {
			t.Fatal("-update needs the whole listing: run it without -race")
		}
		if err := os.WriteFile(digestPath, []byte(listing), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, l := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		key := l[:strings.LastIndexByte(l, ' ')]
		want[key] = l
	}
	if !raceEnabled && len(want) != len(lines) {
		t.Errorf("%s has %d lines, this build lists %d", digestPath, len(want), len(lines))
	}
	for _, l := range lines {
		key := l[:strings.LastIndexByte(l, ' ')]
		if w, ok := want[key]; !ok {
			t.Errorf("%s has no line for %q", digestPath, key)
		} else if w != l {
			t.Errorf("bits moved:\n\tlisted %s\n\tbuilt  %s", w, l)
		}
	}
}
