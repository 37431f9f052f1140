#!/bin/sh
# Pre-merge gate: everything must build, vet clean, and pass the test suite
# under the race detector (the Solver is documented as safe for concurrent
# use, so -race is part of the baseline, not an extra).
set -eux

go build ./...
go vet ./...
go test -race ./...

# The fused back-transformation's concurrency surface, exercised explicitly:
# worker-slab sharing, mid-phase cancellation, and the bitwise identity of the
# fused and two-phase paths. Redundant with the full -race sweep above, but
# kept as a named gate so a future test-pruning pass cannot silently drop it.
go test -race -run 'TestApplyFused|TestFusedBacktrans|TestSolverCancelDuringBacktrans' ./internal/backtransform ./internal/core .

# The concurrent-batch surface, exercised explicitly under -race: a mixed-size
# batch sharing one scheduler, with one injected non-convergent problem and one
# NaN problem (typed, item-local errors; no cross-item poisoning), plus the
# validation and degenerate-shape bugfix tests.
go test -race -run 'TestSolveBatch|TestBatchIsolationMixed|TestNotFiniteError|TestNoConvergencePropagation|TestOptionsClamp|TestDegenerateShapes' .

# The pipelined batch executor, exercised explicitly under -race: bitwise
# identity of the phase-interleaved pipeline against solo solves across worker
# counts and both execution shapes (phase-as-one-task and per-tile fan-out),
# the PipelineDepth/DisablePipeline knobs, mid-pipeline cancellation, an
# injected non-convergent item, the re-entrant-call refusal, and the
# suspend/resume round-trip of the underlying phase plan.
go test -race -run 'TestSolveBatchPipeline|TestSolveBatchReentrant|TestPipeline|TestSolveState|TestBuildPlan' ./internal/core .

# The parallel tridiagonal stage, exercised explicitly under -race: bitwise
# identity of the D&C task DAG / chunked bisection / cluster-parallel inverse
# iteration against their sequential forms, injected forced non-convergence
# (MaxIterQL=0 leaves, infinite-pivot Stein clusters) through the error latch,
# mid-solve cancellation, and the driver-level worker sweeps.
go test -race -run 'TestStedcSched|TestStebzSched|TestSteinSched|TestSchedAffinity|TestParallelTridiag' ./internal/tridiag ./internal/core

# The stage-1 look-ahead reduction, exercised explicitly under -race: bitwise
# identity of the look-ahead and sequenced schedules against the sequential
# reference across worker counts and depths, depth clamping, mid-stage-1
# cancellation, and the solver-level knob/kill-switch sweeps.
go test -race -run 'TestReduceLookahead|TestLookahead|TestStage1' ./internal/band ./internal/core .

# The packed compact-WY engine every blocked reflector application runs on
# (householder.Block over blas.Packing), as a named gate under -race: the
# property test against the explicitly formed H over ragged shapes, sides,
# forms and both reflector shapes; bitwise invariance of each result column
# under any column split and kernel family (what keeps parallel ≡ sequential
# in stage 1 and both back-transformations); zero allocations per apply; and
# the packed product's bitwise agreement with Dgemm. The blasasm run puts the
# same tests on the interleaved panel layout.
go test -race -run 'TestBlock|TestGemmPackedA' ./internal/householder ./internal/blas
go test -tags blasasm ./internal/householder

# The GEMM kernel rework, under BOTH build-tag configurations: the portable
# kernels (default build) and the assembly kernel (-tags blasasm, inert on
# non-AVX2 hosts where it falls back to the portable 8x4). The suite pins the
# packed kernels against naiveGemm on fringe shapes and checks every kernel —
# including the assembly one when active — bitwise against the frozen seed
# kernel.
go test ./internal/blas
go test -tags blasasm ./internal/blas

# The multi-sweep SBR stage 1, exercised explicitly under -race: bitwise
# determinism of every sweep plan across worker counts {1,2,4,7}, the
# DisableMultiSweep kill-switch restoring the exact single-sweep
# factorization bitwise, per-sweep phase suspend/resume, the correctness
# budgets through both back-transformation paths, the sbr package's
# scheduled-vs-sequential identity, and the pipelined batch with per-sweep
# phases interleaved.
go test -race -run 'TestSBR|TestMultiSweep|TestChaseBanded' ./internal/sbr ./internal/core ./internal/bulge .

# The tune-profile round trip (save -> load at Solver construction ->
# bitwise-identical solve), the Options override/kill-switch ladder, the
# schema/hardware validation that rejects stale or foreign profiles, and the
# v1/v2 -> v3 schema migration: old profiles load with the newer fields
# defaulting sanely, and version-inconsistent files (an old version claiming
# a newer schema's field, e.g. v1 with lookahead set) are rejected instead of
# silently migrated.
go test -run 'TestTuneProfileRoundTripSolve|TestTuning' .
go test ./internal/tune
go test -run 'TestProfileMigration' ./internal/tune

# The eigensolver service, exercised explicitly under -race: the HTTP handler
# ladder (auth, validation 4xx, typed error->status mapping incl. the
# NaN->400/not_finite contract), both job stores (TTL eviction, disk-journal
# restart/torn-tail recovery), and the client integration suite against a real
# loopback server — submit/poll/result bitwise-equal to a direct Solver.Eig,
# mid-solve cancel freeing its admission slot, over-budget 413 refusal, and
# concurrent clients sharing one solver gate. Plus the admission-gate clamp
# and the no-Dst range-validation regressions at the batch layer.
go build ./cmd/eigserve
go test -race ./internal/service ./client
go test -race -run 'TestBatchRangeValidatedWithoutDst|TestBatchGateOverBudgetClamp|TestSolveBatchOversizedItemsRunAlone|TestSolverGateSharedAcrossBatchCalls' .

# Container robustness: Solver construction (tune-profile auto-load) must
# degrade silently when $HOME / $XDG_CACHE_HOME are unset, as in minimal
# containers.
go test -run 'TestNewSolverWithoutHomeDir' .
go test -run 'TestDefaultPathWithoutHomeDir' ./internal/tune
