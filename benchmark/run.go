package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/matrix"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64 // timed-region budget of the untraced pass
	traced   bool
	sc       scale
	workers  int  // W = min(NumCPU, 4)
	corrupt  bool // self-test: damage the first result so the gate must fail
}

// parallelClaims reports whether this host can show a parallel effect at all.
func parallelClaims() bool { return runtime.NumCPU() > 1 }

type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Refused string  `json:"refused,omitempty"`
}

type metrics map[string]metricValue

// set records a metric under its declared unit. An undeclared name is a bug
// in the benchmark, caught by the smoke test.
func (m metrics) set(name string, v float64) {
	spec, ok := findSpec(endToEndSpecs, name)
	if !ok {
		if spec, ok = findSpec(perLayerSpecs, name); !ok {
			panic("benchmark: undeclared metric " + name)
		}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = math.MaxFloat64 // JSON has no NaN; a failed check already counted
	}
	mv := metricValue{Value: v, Unit: spec.Unit}
	if refusedOnOneCPU[name] && !parallelClaims() {
		mv = metricValue{Unit: spec.Unit, Refused: "num_cpu=1"}
	}
	m[name] = mv
}

// runRecord is everything one run of one workload produced.
type runRecord struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   metrics           `json:"metrics"`
	Samples   *sampleStats      `json:"op_seconds,omitempty"`
	Spans     []span            `json:"spans,omitempty"`
	Notes     map[string]string `json:"notes,omitempty"`
}

func newRecord(cfg config) *runRecord {
	return &runRecord{Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.traced, Metrics: metrics{}, Notes: map[string]string{}}
}

// op counts one attempted operation; a non-nil err (an error from the
// program or a failed correctness check) counts it as failed.
func (r *runRecord) op(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		if len(r.Failures) < 8 {
			r.Failures = append(r.Failures, err.Error())
		}
	}
}

// require counts a failed invariant of the benchmark itself (a
// decomposition that does not add up) against the run.
func (r *runRecord) require(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// finish fills the metrics every pass reports and pads the declared metrics
// the workload does not exercise with zeros.
func (r *runRecord) finish(chk *checker) {
	specs := endToEndSpecs
	if r.Traced {
		specs = perLayerSpecs
		r.Metrics.set("check.residual_scaled", chk.residual)
		r.Metrics.set("check.ortho_scaled", chk.ortho)
		r.Metrics.set("check.invariant_scaled", chk.invariant)
		r.Metrics.set("check.failed_frac", float64(r.Failed)/float64(max(1, r.Attempted)))
	}
	for _, s := range specs {
		if _, ok := r.Metrics[s.Name]; !ok {
			r.Metrics.set(s.Name, 0)
		}
	}
}

// medianSetup builds a workload's environment reps times and returns the
// last one with the median set-up time. Earlier ones are discarded, and a
// collection after every build, outside the timing, puts the heap in the
// same state before the timed operations of every run.
func medianSetup[T any](reps int, build func() (T, error), discard func(T)) (env T, seconds float64, err error) {
	var secs []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if env, err = build(); err != nil {
			return env, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i < reps-1 {
			discard(env)
		}
		runtime.GC()
	}
	return env, median(secs), nil
}

// timedOps runs do until the timed region has used seconds (and at least
// minOps times), timing each call alone; verify runs outside the timed
// region. It returns the per-operation seconds.
func timedOps[R any](seconds float64, minOps int, rec *runRecord, do func() (R, error), verify func(i int, r R) error) []float64 {
	var secs []float64
	var total float64
	for i := 0; total < seconds || i < minOps; i++ {
		start := time.Now()
		r, err := do()
		d := time.Since(start).Seconds()
		secs = append(secs, d)
		total += d
		if err == nil {
			err = verify(i, r)
		}
		rec.op(err)
	}
	return secs
}

// reportEndToEnd records the untraced pass's metrics: items is how many
// work items one timed operation completes. The operation time reported is
// the lower quartile of the run's operations, not their median: a busy
// neighbour on the shared host only ever adds time, in bursts of 10–20 s,
// and the quartile is unmoved until three quarters of a run are disturbed
// where the median gives way at half. The median is printed beside it.
func (r *runRecord) reportEndToEnd(setupS float64, secs []float64, items int) {
	st := summarize(secs)
	r.Samples = &st
	r.Metrics.set("setup_s", setupS)
	r.Metrics.set("solve_s", st.Q1)
	r.Metrics.set("throughput_ops_s", float64(items)/st.Q1)
	r.notePeakRSS()
}

// notePeakRSS prints the untraced run's resident-set high-water mark beside
// its metrics; the gated figure is the traced pass's work.peak_rss_mb.
func (r *runRecord) notePeakRSS() { r.Notes["peak_rss_mb"] = fmt.Sprintf("%.1f", peakRSSMB()) }

// referenceOps runs the traced pass's untraced reference operations and
// records what they allocate per operation and the resident-set high-water
// mark of set-up plus these operations. It runs before the roofline
// allocates its out-of-cache matrix and before the numerical check, so the
// figures are the program's and not the benchmark's.
func (r *runRecord) referenceOps(run func() []float64) []float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	secs := run()
	runtime.ReadMemStats(&after)
	r.Metrics.set("work.peak_rss_mb", peakRSSMB())
	ops := float64(max(1, len(secs)))
	r.Metrics.set("work.allocs_per_op", float64(after.Mallocs-before.Mallocs)/ops)
	r.Metrics.set("work.alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/ops/1e6)
	return secs
}

// firstThenSame is the repetition gate: the first result is kept, every
// later one must equal it bit for bit, and verifyFirst then checks the kept
// one from first principles, so the last operation is as correct as the
// first. The numerical check runs after the timed operations so that what
// it allocates is not in the run's peak resident set.
type firstThenSame struct {
	ref     []float64
	nvals   int
	corrupt bool
}

func (g *firstThenSame) check(i int, r result) error {
	if i == 0 {
		if g.corrupt && len(r.vals) > 0 {
			k := len(r.vals) / 2
			r.vals[k] += 1 + math.Abs(r.vals[k])
		}
		g.ref, g.nvals = r.flat(), len(r.vals)
		return nil
	}
	if !sameBits(g.ref, r) {
		return fmt.Errorf("repetition %d differs bitwise from the first", i)
	}
	return nil
}

func (g *firstThenSame) verifyFirst(chk *checker, a *matrix.Dense) error {
	if g.ref == nil {
		return errors.New("no operation completed, nothing to verify")
	}
	return chk.verify(a, g.ref[:g.nvals], g.ref[g.nvals:])
}
