package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	eigen "repro"
	"repro/client"
	"repro/internal/service"
)

// serviceBlocks × (pool × kinds) is the schedule length: about 800 requests.
const serviceBlocks = 30

// serviceEnv is a set-up service_loopback: an in-process server on a
// loopback listener, its Solver and store, a client, the request schedule,
// and for every (matrix, kind) the direct Solver result and time that HTTP
// responses are checked and rated against.
type serviceEnv struct {
	pool   []input
	sched  []request
	s      *eigen.Solver
	store  *service.MemStore
	srv    *service.Server
	hs     *httptest.Server
	cl     *client.Client
	ref    [][]float64 // flattened direct result per (matrix, kind)
	direct []float64   // direct call seconds per (matrix, kind)
}

func (e *serviceEnv) slot(rq request) int { return rq.in*requestKinds + rq.kind }

func (e *serviceEnv) close() {
	e.hs.Close()
	e.srv.Close()
	e.store.Close()
	e.s.Close()
}

// directSolve is the request's problem as a direct Solver call.
func (e *serviceEnv) directSolve(rq request) (result, error) {
	a := e.pool[rq.in].a
	n, _ := a.Dims()
	switch il, iu := rangeOf(rq.kind, n); {
	case rq.kind == 1:
		vals, err := e.s.EigValues(a)
		return result{vals: vals}, err
	case iu > 0:
		res, err := e.s.EigRange(a, il, iu)
		if err != nil {
			return result{}, err
		}
		return result{res.Values, res.Vectors}, nil
	default:
		res, err := e.s.Eig(a)
		if err != nil {
			return result{}, err
		}
		return result{res.Values, res.Vectors}, nil
	}
}

func (e *serviceEnv) submitOptions(rq request) *client.SubmitOptions {
	n, _ := e.pool[rq.in].a.Dims()
	il, iu := rangeOf(rq.kind, n)
	return &client.SubmitOptions{ValuesOnly: rq.kind == 1, IL: il, IU: iu}
}

// payloadBytes is the computed size of a request's matrix going up and its
// result coming down, as base64 float64 bits (values as JSON numbers).
func (e *serviceEnv) payloadBytes(rq request) float64 {
	n, _ := e.pool[rq.in].a.Dims()
	b64 := func(floats int) int { return (8*floats + 2) / 3 * 4 }
	k := n
	if _, iu := rangeOf(rq.kind, n); iu > 0 {
		k = iu
	}
	down := 19 * k // a float64 prints as about 19 JSON bytes
	if rq.kind != 1 {
		down += b64(n * k)
	}
	return float64(b64(n*n) + down)
}

func buildService(cfg config, chk *checker) (*serviceEnv, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	e := &serviceEnv{pool: servicePool(rng, cfg.sc)}
	e.sched = serviceSchedule(rng, len(e.pool), serviceBlocks)
	e.s = eigen.NewSolver(&eigen.Options{Workers: cfg.workers})
	e.store = service.NewMemStore(service.DefaultTTL)
	srv, err := service.New(service.Config{Solver: e.s, Store: e.store})
	if err != nil {
		e.store.Close()
		e.s.Close()
		return nil, err
	}
	e.srv = srv
	e.hs = httptest.NewServer(srv)
	e.cl = client.New(e.hs.URL, "")
	e.ref = make([][]float64, len(e.pool)*requestKinds)
	e.direct = make([]float64, len(e.pool)*requestKinds)
	// The direct calls double as the Solver's warm-up; one HTTP request per
	// slot then warms the server, the connections and the store.
	for _, rq := range e.sched[:len(e.ref)] {
		start := time.Now()
		r, err := e.directSolve(rq)
		e.direct[e.slot(rq)] = time.Since(start).Seconds()
		if err == nil {
			flat := r.flat()
			e.ref[e.slot(rq)] = flat
			err = chk.verify(e.pool[rq.in].ad, flat[:len(r.vals)], flat[len(r.vals):])
		}
		if err == nil {
			_, err = e.cl.Solve(context.Background(), e.pool[rq.in].a, e.submitOptions(rq))
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up request (n=%d kind=%d): %w", e.pool[rq.in].ad.Rows, rq.kind, err)
		}
	}
	return e, nil
}

// reqSample is one completed request of a load.
type reqSample struct {
	rq      request
	latency float64 // client-observed submit → result, seconds
	err     error
	// From the job record, traced loads only.
	queue, run float64
}

// load drives the closed loop: callers goroutines each send their next
// request only when the previous one has returned, taking requests from
// the shared schedule in order. Requests are handed out until both reqs of
// them have been and seconds have passed; the ones in flight then finish.
// It returns the samples and the wall time.
func (e *serviceEnv) load(callers int, seconds float64, reqs int, do func(i int, rq request) reqSample) ([]reqSample, float64) {
	var next atomic.Int64
	var mu sync.Mutex
	var samples []reqSample
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < max(1, callers); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= reqs && time.Since(start).Seconds() >= seconds {
					return
				}
				s := do(i, e.sched[i%len(e.sched)])
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start).Seconds()
}

// viaSolve is the untraced request: client.Solve, checked bit for bit
// against the direct result after its latency has been taken.
func (e *serviceEnv) viaSolve(corruptFirst bool) func(int, request) reqSample {
	return func(i int, rq request) reqSample {
		s := reqSample{rq: rq}
		start := time.Now()
		res, err := e.cl.Solve(context.Background(), e.pool[rq.in].a, e.submitOptions(rq))
		s.latency = time.Since(start).Seconds()
		if err == nil {
			if corruptFirst && i == 0 {
				res.Values[0]--
			}
			if !sameBits(e.ref[e.slot(rq)], result{res.Values, res.Vectors}) {
				err = fmt.Errorf("request %d: HTTP result differs bitwise from the direct Solver call", i)
			}
		}
		s.err = err
		return s
	}
}

// viaSteps is the traced request: the same three calls client.Solve makes,
// each inside a span, keeping the job record's timestamps.
func (e *serviceEnv) viaSteps(spans *recorder) func(int, request) reqSample {
	return func(i int, rq request) reqSample {
		ctx := context.Background()
		s := reqSample{rq: rq}
		root := spans.begin("request", -1, i)
		var job *client.Job
		var res *client.Result
		var err error
		spans.in("client.submit", root, i, func() { job, err = e.cl.Submit(ctx, e.pool[rq.in].a, e.submitOptions(rq)) })
		if err == nil {
			spans.in("client.wait", root, i, func() { job, err = e.cl.Wait(ctx, job.ID) })
		}
		if err == nil {
			spans.in("client.result", root, i, func() { res, err = e.cl.Result(ctx, job.ID) })
		}
		s.latency = spans.end(root)
		if err == nil {
			s.queue = job.Started.Sub(job.Created).Seconds()
			s.run = job.Finished.Sub(job.Started).Seconds()
			if !sameBits(e.ref[e.slot(rq)], result{res.Values, res.Vectors}) {
				err = fmt.Errorf("request %d: traced HTTP result differs bitwise from the direct Solver call", i)
			}
		}
		s.err = err
		return s
	}
}

func column(samples []reqSample, f func(reqSample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

func latencies(samples []reqSample) []float64 {
	return column(samples, func(s reqSample) float64 { return s.latency })
}

func runService(cfg config, rec *runRecord) error {
	chk := &checker{}
	if cfg.traced {
		return runServiceTraced(cfg, rec, chk)
	}
	env, setupS, err := medianSetup(cfg.sc.setupReps,
		func() (*serviceEnv, error) { return buildService(cfg, chk) },
		(*serviceEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	// At least one block of the schedule, so every (matrix, kind) is seen.
	samples, wall := env.load(cfg.workers, cfg.seconds, len(env.ref), env.viaSolve(cfg.corrupt))
	for _, s := range samples {
		rec.op(s.err)
	}
	lat := latencies(samples)
	st := summarize(lat)
	rec.Samples = &st
	rec.Metrics.set("setup_s", setupS)
	rec.Metrics.set("solve_s", st.Median)
	rec.Metrics.set("throughput_ops_s", float64(len(samples))/wall)
	rec.notePeakRSS()
	if p90, ok := percentile(lat, 90); ok {
		rec.Notes["req_p90_ms"] = fmt.Sprintf("%.3f (n=%d)", p90*1e3, len(lat))
	}
	rec.finish(chk)
	return nil
}

func runServiceTraced(cfg config, rec *runRecord, chk *checker) error {
	env, err := buildService(cfg, chk)
	if err != nil {
		return err
	}
	defer env.close()
	var plain []reqSample
	rec.referenceOps(func() []float64 {
		plain, _ = env.load(cfg.workers, 0, cfg.sc.tracedReqs, env.viaSolve(cfg.corrupt))
		return latencies(plain)
	})
	spans := newRecorder()
	roof := measureRoofline(cfg.sc, spans)
	roof.emit(rec)
	traced, _ := env.load(cfg.workers, 0, cfg.sc.tracedReqs, env.viaSteps(spans))
	var httpS, directS, bytes float64
	for _, s := range plain {
		rec.op(s.err)
		httpS += s.latency
		directS += env.direct[env.slot(s.rq)]
		bytes += env.payloadBytes(s.rq)
	}
	for _, s := range traced {
		rec.op(s.err)
	}
	m := rec.Metrics
	p50 := median(latencies(plain))
	m.set("service.req_p50_ms", p50*1e3)
	if p90, ok := percentile(latencies(plain), 90); ok {
		m.set("service.req_p90_ms", p90*1e3)
	}
	m.set("service.direct_ratio", httpS/directS)
	m.set("service.bytes_per_req", bytes/float64(len(plain)))
	m.set("trace.overhead_frac", median(latencies(traced))/p50-1)
	m.set("service.queue_ms_p50", 1e3*median(column(traced, func(s reqSample) float64 { return s.queue })))
	m.set("service.run_ms_p50", 1e3*median(column(traced, func(s reqSample) float64 { return s.run })))
	m.set("service.transport_ms_p50", 1e3*median(column(traced, func(s reqSample) float64 { return s.latency - s.queue - s.run })))
	rec.Spans = spans.spans
	rec.finish(chk)
	return nil
}
