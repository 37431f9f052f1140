package main

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

func tinyConfig() config {
	neutraliseTuneProfile()
	return config{seed: 1, seconds: 0.05, sc: scales["tiny"], workers: min(runtime.NumCPU(), 4)}
}

// All seven workloads, both passes, at n/8: keeps the benchmark compiling
// and running against the internal APIs it drives, inside `go test ./...`.
func TestSmokeAllWorkloadsTiny(t *testing.T) {
	start := time.Now()
	var out bytes.Buffer
	res, ok := runAll(tinyConfig(), 1, runWorkload, &out)
	if !ok {
		t.Fatalf("tiny run failed:\n%s", out.String())
	}
	if len(res.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads ran, want %d", len(res.Workloads), len(workloadSpecs))
	}
	for _, w := range res.Workloads {
		if len(w.Runs) != 1 || w.Traced == nil {
			t.Fatalf("%s: want one untraced run and a traced pass", w.Name)
		}
		for _, pass := range []struct {
			rec   *runRecord
			specs []metricSpec
		}{{w.Runs[0], endToEndSpecs}, {w.Traced, perLayerSpecs}} {
			if pass.rec.Failed != 0 || pass.rec.Attempted < 1 {
				t.Errorf("%s: %d failed of %d", w.Name, pass.rec.Failed, pass.rec.Attempted)
			}
			if len(pass.rec.Metrics) != len(pass.specs) {
				t.Errorf("%s: %d metrics reported, %d declared", w.Name, len(pass.rec.Metrics), len(pass.specs))
			}
			for _, s := range pass.specs {
				if m, ok := pass.rec.Metrics[s.Name]; !ok || m.Unit != s.Unit {
					t.Errorf("%s: metric %s missing or in unit %q", w.Name, s.Name, m.Unit)
				}
			}
		}
		for _, s := range endToEndSpecs {
			if v := w.Runs[0].Metrics[s.Name].Value; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v must never be 0", w.Name, s.Name, v)
			}
		}
		if len(w.Traced.Spans) == 0 {
			t.Errorf("%s: traced pass kept no spans", w.Name)
		}
	}
	// What each workload bypasses reads zero; what it exercises does not.
	layer := func(workload, metric string) float64 {
		for _, w := range res.Workloads {
			if w.Name == workload {
				return w.Traced.Metrics[metric].Value
			}
		}
		t.Fatalf("no workload %s", workload)
		return 0
	}
	for _, c := range []struct {
		workload, metric string
		zero             bool
	}{
		{"full_dc_1024", "backtransform.apply_s", false},
		{"values_1536", "backtransform.apply_s", true},
		{"onestage_dc_1024", "band.reduce_s", true},
		{"onestage_dc_1024", "onestage.sytrd_s", false},
		{"full_dc_1024_seq", "sched.tasks", true},
		{"batch_mixed_small", "eigen.batch_vs_loop", !parallelClaims()},
		{"service_loopback", "service.req_p50_ms", false},
		{"subset_bi_1024", "tridiag.solve_gflops", false},
	} {
		if v := layer(c.workload, c.metric); (v == 0) != c.zero {
			t.Errorf("%s: %s = %v, want zero=%v", c.workload, c.metric, v, c.zero)
		}
	}
	t.Logf("tiny run of all workloads, both passes: %v (sized to stay under 10s)", time.Since(start))
}

// Counts made by the program repeat exactly: two invocations, same flops.
func TestFlopCountsRepeat(t *testing.T) {
	cfg := tinyConfig()
	cfg.workload, cfg.traced = "full_dc_1024", true
	flops := func() map[string]float64 {
		rec, err := runWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Notes["counts_repeat"] != "true" {
			t.Errorf("counts differ between the traced operations of one run")
		}
		out := map[string]float64{}
		for name, m := range rec.Metrics {
			if strings.HasPrefix(name, "trace.flops_") {
				out[name] = m.Value
			}
		}
		return out
	}
	a, b := flops(), flops()
	if a["trace.flops_total"] == 0 || !reflect.DeepEqual(a, b) {
		t.Errorf("flop counts differ between invocations:\n%v\n%v", a, b)
	}
}

// The last line of a single-workload run is the contract's JSON object.
func TestResultLineContract(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var out bytes.Buffer
		code := realMain([]string{"--workload", "subset_bi_1024", "--seed", "3", "--seconds", "0.05", "--trace", trace, "-scale", "tiny"}, &out, io.Discard)
		if code != 0 {
			t.Fatalf("exit %d:\n%s", code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		keys := make([]string, 0, len(line))
		for k := range line {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
			t.Errorf("keys %v, want %v", keys, want)
		}
		var ms map[string]struct {
			Value *float64 `json:"value"`
			Unit  *string  `json:"unit"`
		}
		if err := json.Unmarshal(line["metrics"], &ms); err != nil {
			t.Fatal(err)
		}
		specs := endToEndSpecs
		if trace == "1" {
			specs = perLayerSpecs
		}
		if len(ms) != len(specs) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(ms), len(specs))
		}
		for _, s := range specs {
			if m, ok := ms[s.Name]; !ok || m.Value == nil || m.Unit == nil || *m.Unit != s.Unit {
				t.Errorf("trace %s: metric %s malformed", trace, s.Name)
			}
		}
	}
}

// A wrong answer must fail the run: -corrupt damages the first result of a
// workload, and the command must count it and exit non-zero.
func TestCorruptedResultFailsTheRun(t *testing.T) {
	for _, w := range []string{"full_dc_1024", "values_1536", "batch_mixed_small", "service_loopback"} {
		var out bytes.Buffer
		code := realMain([]string{"-workload", w, "-seconds", "0.05", "-scale", "tiny", "-corrupt"}, &out, io.Discard)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line struct {
			Correct bool `json:"correct"`
			Failed  int  `json:"failed"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if code == 0 || line.Correct || line.Failed == 0 {
			t.Errorf("%s: corrupted result passed: exit %d correct=%v failed=%d", w, code, line.Correct, line.Failed)
		}
	}
}

func TestUnknownWorkloadPrintsNoResult(t *testing.T) {
	var out bytes.Buffer
	if code := realMain([]string{"-workload", "nope", "-scale", "tiny"}, &out, io.Discard); code == 0 || out.Len() != 0 {
		t.Errorf("exit %d, output %q", code, out.String())
	}
}
