package model

import (
	"math"
	"testing"
	"testing/quick"
)

// paper's Table 3, AMD Magny-Cours column (β in the paper is listed in MB/s
// but used as a flop rate; values here are only exercised relationally).
var amd = Params{Alpha: 10e9, Beta: 40e6 * 8, P: 12, Gamma: 100}

func TestCrossoverMatchesNumericRoot(t *testing.T) {
	// The closed form (Eq. 6, derived with p' = p) must agree with a
	// numeric root of t1(n) − t2(n). Use a modest compute advantage so the
	// crossover lands at an interesting size.
	p := Params{Alpha: 5e9, Beta: 3e9, P: 2}
	p.PPrime = p.P
	d := 128
	f := 0.5
	nc := Crossover(d, f, p)
	if math.IsInf(nc, 1) {
		t.Fatal("unexpected no-crossover")
	}
	diff := func(n float64) float64 {
		return TimeOneStage(n, f, p) - TimeTwoStage(n, d, f, p)
	}
	// t1 − t2 changes sign at the crossover and is ~zero there.
	if !(diff(nc*0.99) < 0 && diff(nc*1.01) > 0) {
		t.Fatalf("closed-form crossover %.1f is not a sign change of t1−t2: %g %g",
			nc, diff(nc*0.99), diff(nc*1.01))
	}
}

func TestCrossoverNoWin(t *testing.T) {
	// With αp ≈ β (no compute advantage) the two-stage approach never wins
	// at f = 1.
	p := Params{Alpha: 1e9, Beta: 1e9, P: 1}
	if !math.IsInf(Crossover(64, 1.0, p), 1) {
		t.Fatal("expected +Inf crossover when compute rate equals memory rate")
	}
}

func TestAsymptoticSpeedupIsLimit(t *testing.T) {
	p := amd
	p.PPrime = p.P
	f := 0.3
	want := AsymptoticSpeedup(f, p)
	// Ratio approaches the limit from below as the O(n²) bulge term fades.
	gotSmall := TimeOneStage(1e7, f, p) / TimeTwoStage(1e7, 64, f, p)
	gotBig := TimeOneStage(1e10, f, p) / TimeTwoStage(1e10, 64, f, p)
	if !(gotSmall < gotBig && gotBig < want) {
		t.Fatalf("ratios %.4f, %.4f do not approach the limit %.4f from below", gotSmall, gotBig, want)
	}
	if math.Abs(gotBig-want)/want > 1e-2 {
		t.Fatalf("ratio at large n %.4f too far from limit %.4f", gotBig, want)
	}
}

func TestSpeedupDecreasesWithFraction(t *testing.T) {
	// More eigenvectors → more doubled back-transform work → less speedup.
	p := amd
	s1 := AsymptoticSpeedup(0.2, p)
	s2 := AsymptoticSpeedup(1.0, p)
	if s1 <= s2 {
		t.Fatalf("speedup should fall with f: f=0.2 → %.2f, f=1 → %.2f", s1, s2)
	}
}

func TestOptimalNBMinimizes(t *testing.T) {
	p := Params{Alpha: 5e9, Beta: 8e8, Gamma: 200}
	nbStar := OptimalNB(p)
	total := func(nb int) float64 {
		return BulgeComputeTime(1000, nb, p) + BulgeCommTime(1000, nb, p)
	}
	best := total(int(nbStar + 0.5))
	for _, nb := range []int{int(nbStar / 4), int(nbStar / 2), int(2 * nbStar), int(4 * nbStar)} {
		if nb < 1 {
			continue
		}
		if total(nb) < best {
			t.Fatalf("nb=%d beats the model optimum %.1f", nb, nbStar)
		}
	}
}

func TestModelMonotonicityProperty(t *testing.T) {
	// t decreases (weakly) with more cores; one-stage reduction term does
	// not (that is the non-scaling result of §4).
	f := func(seed int64) bool {
		n := float64(1000 + seed%5000)
		if n < 10 {
			n = 10
		}
		p1 := amd
		p1.P = 4
		p2 := amd
		p2.P = 48
		t2a := TimeTwoStage(n, 64, 1, p1)
		t2b := TimeTwoStage(n, 64, 1, p2)
		// More cores never hurt the two-stage model.
		if t2b > t2a {
			return false
		}
		// The one-stage time is dominated by the β term, which cores don't
		// help: the improvement must be bounded by the vector fraction.
		t1a := TimeOneStage(n, 1, p1)
		t1b := TimeOneStage(n, 1, p2)
		floor := 4.0 / 3.0 * n * n * n / amd.Beta
		return t1a >= floor && t1b >= floor
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTable1Shape(t *testing.T) {
	rows := Table1()
	if len(rows) != 3 {
		t.Fatalf("Table1 has %d rows", len(rows))
	}
	for _, r := range rows {
		if r.TRD != 4.0/3 {
			t.Fatalf("%s: TRD coefficient %.3f", r.Routine, r.TRD)
		}
	}
	// Only the QR method pays for explicit Q generation and no update.
	if rows[2].GenQ == 0 || rows[2].UpdateZ != 0 {
		t.Fatal("QR row malformed")
	}
}
