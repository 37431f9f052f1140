// Command benchmark is the repository's one measurement spine: seven named
// workloads, end-to-end metrics measured with tracing off through the public
// API, and a separate traced pass that decomposes the same work by phase,
// kernel class and scheduler from outside the program. BENCHMARK.json at the
// repository root names the command, the workloads, the metrics and their
// regression bounds; README.md in this directory says why each was chosen.
//
//	go run ./benchmark -seed 1                      every workload, both passes
//	go run ./benchmark -workload W -trace 0|1       one run, one JSON line last
//	go run ./benchmark -compare old.json new.json   verdict per metric × workload
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 25

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload and print one JSON result line last (default: all workloads, both passes)")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", defaultSeconds, "timed-region budget of an untraced run, seconds")
	traceOn := fs.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
	scaleName := fs.String("scale", "full", "full, or tiny (every order divided by 8; the smoke test)")
	runs := fs.Int("runs", 1, "untraced runs per workload when running all workloads")
	out := fs.String("out", "", "write the results of all workloads to this JSON file")
	traceOut := fs.String("trace-out", "", "write the traced pass's spans to this JSON file")
	compare := fs.Bool("compare", false, "compare two -out files: -compare old.json new.json")
	corrupt := fs.Bool("corrupt", false, "self-test: damage the first result; the run must then fail")
	detail := fs.Bool("detail", false, "with -workload: also print the full run record (used by the all-workloads mode)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	sc, ok := scales[*scaleName]
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown -scale %q\n", *scaleName)
		return 2
	}
	neutraliseTuneProfile()
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, traced: *traceOn != 0, sc: sc,
		workers: min(runtime.NumCPU(), 4), corrupt: *corrupt}

	if *workload != "" {
		rec, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		printRecord(stdout, rec)
		if *traceOut != "" {
			if err := writeJSON(*traceOut, withSelf(rec.Spans)); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
		if *detail {
			b, _ := json.Marshal(rec)
			fmt.Fprintf(stdout, "%s%s\n", detailPrefix, b)
		}
		fmt.Fprintln(stdout, resultLine(rec))
		if rec.Failed > 0 {
			return 1
		}
		return 0
	}

	res, ok := runAll(cfg, *runs, spawnChild(stderr), stdout)
	if *out != "" {
		if err := writeJSON(*out, res.withoutSpans()); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *traceOut != "" {
		if err := writeJSON(*traceOut, res.spans()); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// neutraliseTuneProfile points the Solver's autotune profile at a path that
// does not exist, so a profile left on the machine cannot change block
// sizes under the benchmark.
func neutraliseTuneProfile() {
	os.Setenv("EIGEN_TUNE_PROFILE", ".benchmark-no-tune-profile")
}

func runWorkload(cfg config) (*runRecord, error) {
	rec := newRecord(cfg)
	var err error
	switch sp, solo := soloSpecs[cfg.workload]; {
	case solo:
		err = runSolo(cfg, sp, rec)
	case cfg.workload == "batch_mixed_small":
		err = runBatch(cfg, rec)
	case cfg.workload == "service_loopback":
		err = runService(cfg, rec)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return rec, nil
}

// resultLine is the contract's last line of output: exactly these keys.
func resultLine(rec *runRecord) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rec.Failed == 0, max(1, rec.Attempted), rec.Failed, map[string]mv{}}
	for name, m := range rec.Metrics {
		line.Metrics[name] = mv{m.Value, m.Unit}
	}
	b, _ := json.Marshal(line)
	return string(b)
}

// printRecord prints every metric of a run by name, with its unit.
func printRecord(w io.Writer, rec *runRecord) {
	pass := "end-to-end (tracing off)"
	if rec.Traced {
		pass = "per-layer (traced pass)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s\n", rec.Workload, rec.Seed, pass)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Metrics[name]
		if m.Refused != "" {
			fmt.Fprintf(w, "  %-32s refused: %s\n", name, m.Refused)
			continue
		}
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	if s := rec.Samples; s != nil {
		fmt.Fprintf(w, "  %-32s n=%d min=%.6g q1=%.6g median=%.6g q3=%.6g s\n", "op seconds", s.N, s.Min, s.Q1, s.Median, s.Q3)
	}
	fmt.Fprintf(w, "  %-32s %14.6g (%d failed of %d attempted)\n", "failed_frac",
		float64(rec.Failed)/float64(max(1, rec.Attempted)), rec.Failed, rec.Attempted)
	notes := make([]string, 0, len(rec.Notes))
	for k := range rec.Notes {
		notes = append(notes, k)
	}
	sort.Strings(notes)
	for _, k := range notes {
		if v := rec.Notes[k]; strings.Contains(v, "\n") {
			fmt.Fprintf(w, "  %s:\n%s", k, v)
		} else {
			fmt.Fprintf(w, "  %s: %s\n", k, v)
		}
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Schema    int              `json:"schema"`
	Host      hostInfo         `json:"host"`
	Seed      int64            `json:"seed"`
	Scale     string           `json:"scale"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name   string       `json:"name"`
	Runs   []*runRecord `json:"runs"`             // untraced, one per -runs
	Traced *runRecord   `json:"traced,omitempty"` // the per-layer pass
}

func (r *resultsFile) withoutSpans() *resultsFile {
	c := *r
	c.Workloads = nil
	for _, w := range r.Workloads {
		if w.Traced != nil {
			t := *w.Traced
			t.Spans = nil
			w.Traced = &t
		}
		c.Workloads = append(c.Workloads, w)
	}
	return &c
}

func (r *resultsFile) spans() map[string][]spanOut {
	out := map[string][]spanOut{}
	for _, w := range r.Workloads {
		if w.Traced != nil {
			out[w.Name] = withSelf(w.Traced.Spans)
		}
	}
	return out
}

// values returns one end-to-end metric's value in every untraced run.
func (w workloadResult) values(metric string) []float64 {
	var v []float64
	for _, r := range w.Runs {
		if m, ok := r.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// runAll runs every workload: runs untraced passes, then the traced pass.
// run executes one (workload, pass); the command runs each in a child
// process so set-up time and peak resident set belong to that workload
// alone, the smoke test runs them in-process.
func runAll(cfg config, runs int, run func(config) (*runRecord, error), w io.Writer) (*resultsFile, bool) {
	res := &resultsFile{Schema: 1, Host: host(cfg.workers), Seed: cfg.seed, Scale: cfg.sc.name, Seconds: cfg.seconds}
	hb, _ := json.Marshal(res.Host)
	fmt.Fprintf(w, "host %s seed %d scale %s\n", hb, cfg.seed, cfg.sc.name)
	ok := true
	for _, spec := range workloadSpecs {
		wr := workloadResult{Name: spec.Name}
		c := cfg
		c.workload = spec.Name
		for pass := 0; pass <= max(1, runs); pass++ {
			c.traced = pass == max(1, runs)
			rec, err := run(c)
			if err != nil {
				fmt.Fprintf(w, "== %s FAILED: %v\n", spec.Name, err)
				ok = false
				continue
			}
			printRecord(w, rec)
			ok = ok && rec.Failed == 0
			if c.traced {
				wr.Traced = rec
			} else {
				wr.Runs = append(wr.Runs, rec)
			}
		}
		res.Workloads = append(res.Workloads, wr)
	}
	return res, ok
}

const detailPrefix = "detail: "

// spawnChild runs one (workload, pass) as a child process of this binary
// and reads its run record back from the detail line.
func spawnChild(stderr io.Writer) func(config) (*runRecord, error) {
	return func(cfg config) (*runRecord, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		trace := "0"
		if cfg.traced {
			trace = "1"
		}
		args := []string{"-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
			"-trace", trace, "-scale", cfg.sc.name, "-detail"}
		if cfg.corrupt {
			args = append(args, "-corrupt")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = stderr
		outBytes, runErr := cmd.Output()
		for _, line := range strings.Split(string(outBytes), "\n") {
			if js, found := strings.CutPrefix(line, detailPrefix); found {
				var rec runRecord
				if err := json.Unmarshal([]byte(js), &rec); err != nil {
					return nil, fmt.Errorf("reading child record: %w", err)
				}
				return &rec, nil // a failed run still has a record; Failed says so
			}
		}
		if runErr == nil {
			runErr = errors.New("child printed no run record")
		}
		return nil, runErr
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
