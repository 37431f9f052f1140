package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	// root 0..10 with children 1..4 and 5..9; the first child has a child 2..3.
	spans := []span{
		{ID: 0, Parent: -1, Name: "solve", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "band.reduce", Start: 1, End: 4},
		{ID: 2, Parent: 1, Name: "inner", Start: 2, End: 3},
		{ID: 3, Parent: 0, Name: "tridiag.solve", Start: 5, End: 9},
	}
	self := selfTimes(spans)
	want := map[int]float64{0: 3, 1: 2, 2: 1, 3: 4}
	for id, w := range want {
		if math.Abs(self[id]-w) > 1e-12 {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
}

func TestRecorderParents(t *testing.T) {
	r := newRecorder()
	root := r.begin("solve", -1, 7)
	d := r.in("band.reduce", root, 7, func() {})
	total := r.end(root)
	if len(r.spans) != 2 || r.spans[1].Parent != root || r.spans[1].Solve != 7 {
		t.Fatalf("spans = %+v", r.spans)
	}
	if d < 0 || total < d {
		t.Errorf("child %v must fit in root %v", d, total)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lowerBetter := metricSpec{Name: "solve_s", Unit: "s", Better: lower, Bound: 0.08}
	higherBetter := metricSpec{Name: "throughput_ops_s", Unit: "1/s", Better: higher, Bound: 0.08}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.01}
	noisy := []float64{0.8, 1.0, 1.2, 0.9, 1.1}
	scaled := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	for _, c := range []struct {
		name     string
		spec     metricSpec
		old, new []float64
		want     string
	}{
		{"same", lowerBetter, steady, steady, verdictOK},
		{"5% slower is inside the bound", lowerBetter, steady, scaled(steady, 1.05), verdictOK},
		{"20% slower", lowerBetter, steady, scaled(steady, 1.20), verdictRegressed},
		{"20% faster", lowerBetter, steady, scaled(steady, 0.80), verdictOK},
		{"throughput down 20%", higherBetter, steady, scaled(steady, 0.80), verdictRegressed},
		{"throughput up 20%", higherBetter, steady, scaled(steady, 1.20), verdictOK},
		{"spread wider than the bound", lowerBetter, noisy, scaled(noisy, 1.05), verdictUnresolved},
		{"worse than even a wide spread", lowerBetter, noisy, scaled(noisy, 2), verdictRegressed},
		{"single runs have no spread", lowerBetter, []float64{1}, []float64{1.05}, verdictOK},
	} {
		if got := judge(c.spec, "w", c.old, c.new); got.Verdict != c.want {
			t.Errorf("%s: verdict %q (worse %.3f spread %.3f), want %q", c.name, got.Verdict, got.Worse, got.Spread, c.want)
		}
	}
}

func TestCompareFilesExitCode(t *testing.T) {
	file := func(solve float64) *resultsFile {
		f := &resultsFile{Schema: 1, Scale: "full", Seconds: 10}
		w := workloadResult{Name: "full_dc_1024"}
		for i := 0; i < 5; i++ {
			rec := &runRecord{Workload: w.Name, Metrics: metrics{}}
			rec.Metrics.set("solve_s", solve*(1+0.002*float64(i)))
			rec.Metrics.set("setup_s", 2)
			w.Runs = append(w.Runs, rec)
		}
		f.Workloads = []workloadResult{w}
		return f
	}
	var out bytes.Buffer
	if code := printComparison(file(1.5), file(1.52), &out); code != 0 {
		t.Errorf("self-agreement exit code %d\n%s", code, out.String())
	}
	out.Reset()
	if code := printComparison(file(1.5), file(2.0), &out); code != 1 {
		t.Errorf("a 33%% slowdown must exit 1, got %d", code)
	}
	if !strings.Contains(out.String(), "regressed") || !strings.Contains(out.String(), "of 1.506 s") {
		t.Errorf("row must carry the verdict and the ratio's base:\n%s", out.String())
	}
}
