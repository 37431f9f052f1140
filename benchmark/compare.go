package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// compareRow is one (metric, workload) pairing of a comparison.
type compareRow struct {
	Workload, Metric, Unit string
	Old, New               float64 // medians over each file's runs
	Worse                  float64 // share of Old by which New is worse (negative: better)
	Spread                 float64 // the wider of the two files' run-to-run spreads
	Bound                  float64
	Verdict                string
}

// judge compares one end-to-end metric between a parent's runs and a
// change's runs. Within the bound is ok; worse than the bound and than the
// run-to-run spread is regressed; a spread wider than the bound cannot show
// either, and is unresolved rather than unchanged.
func judge(spec metricSpec, workload string, old, new []float64) compareRow {
	r := compareRow{Workload: workload, Metric: spec.Name, Unit: spec.Unit, Bound: spec.Bound,
		Old: median(old), New: median(new), Spread: max(spread(old), spread(new))}
	if r.Old != 0 {
		r.Worse = (r.New - r.Old) / r.Old
		if spec.Better == higher {
			r.Worse = -r.Worse
		}
	}
	switch {
	case r.Worse > max(r.Bound, r.Spread):
		r.Verdict = verdictRegressed
	case r.Spread > r.Bound:
		r.Verdict = verdictUnresolved
	default:
		r.Verdict = verdictOK
	}
	return r
}

// compareResults judges every end-to-end metric × workload present in both
// files, against the bounds BENCHMARK.json fixes (spec.go holds the same
// table; spec_test.go keeps the two equal).
func compareResults(old, new *resultsFile) []compareRow {
	byName := map[string]workloadResult{}
	for _, w := range new.Workloads {
		byName[w.Name] = w
	}
	var rows []compareRow
	for _, ow := range old.Workloads {
		nw, ok := byName[ow.Name]
		if !ok {
			continue
		}
		for _, spec := range endToEndSpecs {
			ov, nv := ow.values(spec.Name), nw.values(spec.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			rows = append(rows, judge(spec, ow.Name, ov, nv))
		}
	}
	return rows
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultsFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per (metric, workload) and returns 1 when any
// row regressed.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := readResults(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	nw, err := readResults(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return printComparison(old, nw, stdout)
}

func printComparison(old, nw *resultsFile, w io.Writer) int {
	oh, nh := old.Host, nw.Host
	oh.GitCommit, nh.GitCommit = "", ""
	if oh != nh || old.Scale != nw.Scale || old.Seconds != nw.Seconds {
		fmt.Fprintln(w, "warning: the two files were measured on different hosts or settings; rows below compare unlike things")
	}
	fmt.Fprintf(w, "parent %s (seed %d, %d runs)  change %s (seed %d, %d runs)\n",
		old.Host.GitCommit, old.Seed, runsOf(old), nw.Host.GitCommit, nw.Seed, runsOf(nw))
	fmt.Fprintf(w, "%-18s %-17s %12s %12s %-22s %8s %6s  %s\n", "workload", "metric", "parent", "change", "change/parent", "spread", "bound", "verdict")
	regressed, unresolved := 0, 0
	for _, r := range compareResults(old, nw) {
		ratio := 0.0
		if r.Old != 0 {
			ratio = r.New / r.Old
		}
		fmt.Fprintf(w, "%-18s %-17s %12.5g %12.5g %-22s %7.1f%% %5.0f%%  %s\n", r.Workload, r.Metric, r.Old, r.New,
			fmt.Sprintf("%.3f of %.4g %s", ratio, r.Old, r.Unit), 100*r.Spread, 100*r.Bound, r.Verdict)
		switch r.Verdict {
		case verdictRegressed:
			regressed++
		case verdictUnresolved:
			unresolved++
		}
	}
	if runsOf(old) < 2 || runsOf(nw) < 2 {
		fmt.Fprintln(w, "note: a file with one run per workload has no run-to-run spread; use -runs 5 or more")
	}
	fmt.Fprintf(w, "%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return 1
	}
	return 0
}

// runsOf is the smallest number of untraced runs any workload of f has.
func runsOf(f *resultsFile) int {
	n := 0
	for i, w := range f.Workloads {
		if i == 0 || len(w.Runs) < n {
			n = len(w.Runs)
		}
	}
	return n
}
