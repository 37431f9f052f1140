GO ?= go

.PHONY: all build vet test race check bench bench-compare bench-reuse bench-backtrans bench-batch bench-pipeline bench-tridiag bench-stage1 bench-kernels bench-sbr tune

all: check

build:
	$(GO) build ./...

vet: build
	$(GO) vet ./...

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full pre-merge gate: build, vet, and the race-enabled test suite.
check:
	./scripts/check.sh

# The measurement spine (benchmark/README.md): every workload, both passes,
# five runs each; results land in BENCH_OUT. Compare two such files — e.g. one
# written from a checkout of the parent commit and one from the change — with
#   make bench-compare OLD=old.json NEW=new.json
BENCH_OUT ?= new.json
bench:
	$(GO) run ./benchmark -seed 1 -runs 5 -out $(BENCH_OUT)

bench-compare:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make bench-compare OLD=old.json NEW=new.json"; exit 2; }
	$(GO) run ./benchmark -compare $(OLD) $(NEW)

# The reusable-Solver experiment (steady-state allocations vs one-shot).
bench-reuse:
	$(GO) run ./cmd/eigbench -exp reuse
	$(GO) test -run '^$$' -bench 'BenchmarkSolverReuse|BenchmarkEigOneShot' -benchmem .

# The fused-vs-legacy back-transformation comparison; records the measured
# points in BENCH_backtrans.json alongside the printed table.
bench-backtrans:
	$(GO) run ./cmd/eigbench -exp backtrans -out BENCH_backtrans.json

# Concurrent batch solving vs a sequential loop over the same Solver; records
# the measured points (with machine context) in BENCH_batch.json.
bench-batch:
	$(GO) run ./cmd/eigbench -exp batch -out BENCH_batch.json

# The phase-pipelined batch executor vs whole-solve batch mode, with the
# bitwise-identity check between the two modes run in-bench; records the
# measured points (with machine context) in BENCH_pipeline.json.
bench-pipeline:
	$(GO) run ./cmd/eigbench -exp pipeline -out BENCH_pipeline.json

# The parallel tridiagonal stage vs its sequential form (D&C and BI), with
# the bitwise-identity check and trace-attributed sub-phase splits; records
# the measured points (with machine context) in BENCH_tridiag.json.
bench-tridiag:
	$(GO) run ./cmd/eigbench -exp tridiag -out BENCH_tridiag.json
	$(GO) test -run '^$$' -bench 'BenchmarkStebz' ./internal/tridiag

# The stage-1 look-ahead reduction vs the sequenced (flat-priority) scheme,
# with the bitwise-identity check and the trace-attributed panel/update/stall
# split; records the measured points (with machine context) in
# BENCH_stage1.json.
bench-stage1:
	$(GO) run -tags blasasm ./cmd/eigbench -exp stage1 -out BENCH_stage1.json

# The GEMM kernel rework: per-kernel Dgemm Gflop/s (seed baseline vs the
# packed kernels, assembly included via the build tag) and end-to-end Eig
# wall time, with bitwise gates; records BENCH_kernels.json.
bench-kernels:
	$(GO) run -tags blasasm ./cmd/eigbench -exp kernels -out BENCH_kernels.json

# The multi-sweep SBR stage 1 vs the direct single-sweep reduction:
# end-to-end Eig wall-clock per plan (direct, 64->8, 128->32->8) with the
# eigenvalue-drift gate; records the measured points (with machine context)
# in BENCH_sbr.json.
bench-sbr:
	$(GO) run -tags blasasm ./cmd/eigbench -exp sbr -out BENCH_sbr.json

# Tune this machine and persist the profile eigen.Solver loads at
# construction ($EIGEN_TUNE_PROFILE or the user cache dir).
tune:
	$(GO) run -tags blasasm ./cmd/eigtune -save
