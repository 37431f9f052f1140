// Command eigserve runs the eigensolver as a long-lived HTTP service: a
// JSON job API (submit / poll / long-poll / result / cancel) over one shared
// eigen.Solver, with static API-key auth and a pluggable job store.
//
// Examples:
//
//	eigserve -addr :8080 -api-key s3cret
//	eigserve -addr :8080 -api-key s3cret -workers 8 \
//	         -memory-budget 1073741824 -batch-concurrency 4
//	eigserve -addr :8080 -api-key s3cret -store disk -store-path /var/lib/eigserve/jobs.jsonl
//
// Jobs are admitted through the Solver's own gate (BatchConcurrency slots +
// MemoryBudget byte reservations); requests whose workspace estimate exceeds
// the entire budget are refused with HTTP 413 rather than queued. The API
// key may also be supplied via $EIGSERVE_API_KEY (comma-separated for
// several); -insecure runs without authentication for trusted networks.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	eigen "repro"
	"repro/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "eigserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", runtime.NumCPU(), "solver worker count (1 = sequential)")
		memBudget   = flag.Int64("memory-budget", 0, "workspace byte budget for concurrent jobs (0 = unlimited; over-budget requests are refused with 413)")
		batchConc   = flag.Int("batch-concurrency", 0, "max jobs in flight (0 = worker count)")
		nb          = flag.Int("nb", 0, "tile size/bandwidth override (0 = default)")
		apiKey      = flag.String("api-key", "", "static API key (comma-separated for several; also $EIGSERVE_API_KEY)")
		insecure    = flag.Bool("insecure", false, "serve without authentication (trusted networks only)")
		storeKind   = flag.String("store", "mem", "job store backend: mem | disk")
		storePath   = flag.String("store-path", "", "journal path for -store disk (default: eigserve-jobs.jsonl in the working directory)")
		ttl         = flag.Duration("ttl", service.DefaultTTL, "how long the mem store keeps finished jobs")
		maxWait     = flag.Duration("max-wait", service.DefaultMaxWait, "long-poll cap for ?wait=")
		maxBody     = flag.Int64("max-body", service.DefaultMaxBodyBytes, "request body byte cap")
		quiet       = flag.Bool("quiet", false, "suppress per-job logging")
		gracePeriod = flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight HTTP requests")
	)
	flag.Parse()

	keys := splitKeys(*apiKey)
	if len(keys) == 0 {
		keys = splitKeys(os.Getenv("EIGSERVE_API_KEY"))
	}
	if len(keys) == 0 && !*insecure {
		return errors.New("no API key configured; set -api-key / $EIGSERVE_API_KEY or pass -insecure explicitly")
	}

	var store service.Store
	switch *storeKind {
	case "mem":
		store = service.NewMemStore(*ttl)
	case "disk":
		path := *storePath
		if path == "" {
			path = "eigserve-jobs.jsonl"
		}
		var err error
		if store, err = service.NewDiskStore(path); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -store %q (want mem or disk)", *storeKind)
	}
	defer store.Close()

	solver := eigen.NewSolver(&eigen.Options{
		Workers:          *workers,
		NB:               *nb,
		MemoryBudget:     *memBudget,
		BatchConcurrency: *batchConc,
	})
	defer solver.Close()

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	svc, err := service.New(service.Config{
		Solver:       solver,
		Store:        store,
		APIKeys:      keys,
		MaxWait:      *maxWait,
		MaxBodyBytes: *maxBody,
		Logf:         logf,
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("eigserve: listening on %s (workers=%d, store=%s, auth=%v)",
			*addr, *workers, *storeKind, len(keys) > 0)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("eigserve: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), *gracePeriod)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("eigserve: forced shutdown: %v", err)
	}
	// Cancel in-flight jobs and wait for their terminal records to persist.
	return svc.Close()
}

func splitKeys(s string) []string {
	var keys []string
	for _, k := range strings.Split(s, ",") {
		if k = strings.TrimSpace(k); k != "" {
			keys = append(keys, k)
		}
	}
	return keys
}
