#!/bin/sh
# Pre-merge gate: everything must build, vet clean (asmdecl included: the
# AVX-512 and AVX2/FMA GEMM kernels and the AVX2/FMA Level-1/2 kernels are part
# of the default amd64 build), and pass the test suite under the race detector
# (the Solver is documented as safe for concurrent use, so -race is part of the
# baseline, not an extra). There is one build configuration and one kernel
# switch, the CPU probe: the race pass runs the assembly kernels the host has
# and their memory-safety tests — internal/blas's tests on every GEMM family
# the CPU runs, older ones pinned through an unexported hook — and the tests
# that compare them with the portable twins (which they reach with
# blas.UseAsm(false)) log the kernel in use rather than skip. Below them,
# internal/blas implements only the call shapes the solver makes; the
# level-kernels gate keeps the test that every other shape panics. The named
# gates at the end keep the tests each surface depends on, the eigsolve input
# reader's refusals among them, and the closing size line counts, besides
# lines, options and targets, the package variables a caller can set.
set -eu

set -x
go build ./...
go vet ./...
go test -race ./...

# Which GEMM micro-kernel the CPU probe chose here: avx512, avx2 or portable.
go test -count=1 -v -run '^TestProbeWithoutAVX2$' ./internal/blas | grep 'GemmKernel() ='

# The files that replace the assembly off amd64 — the GEMM stubs and the
# portable twins of the Level-1/2 kernels — are compiled by nothing above:
# cross-compile them and their nearest callers (pure Go, needs no network or C
# toolchain).
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/blas ./internal/householder ./internal/bulge

# The portable twins compute every fused multiply-add with math.FMA, which the
# compiler emits as a run-time-checked VFMADD231SD by default, as a bare one at
# GOAMD64=v3, and as a call to Go's software FMA where the CPU has none
# (GODEBUG=cpu.fma=off simulates that CPU; the probe of the assembly kernels
# does not read GODEBUG, so the assembly still runs). All three must give the
# assembly's bits — kernel by kernel, and for a whole solve (order 131, two-
# stage, values only and one-stage) on the portable twins throughout.
GOAMD64=v3 go test ./internal/blas ./internal/householder
GODEBUG=cpu.fma=off go test -run 'AsmBitwisePortable|FusedRulePin|ProbeWithoutAVX2|TestSolveBitwiseAcrossKernels' ./internal/blas .

# The submit handler is where hostile input arrives: fuzz its payload decoding
# and the whole handler (body decoding, trailing data, status mapping) past
# their seed corpora (which plain `go test` already runs).
go test -run '^$' -fuzz FuzzSubmitDecode -fuzztime 10s ./internal/service
go test -run '^$' -fuzz FuzzSubmitHandler -fuzztime 10s ./internal/service
set +x

# Named gates. The race pass above already ran every test; what a later
# test-pruning pass could do is silently drop or rename one of the tests a
# surface depends on. So each row names a surface, the tests that guard it and
# the packages they live in, and the lint fails unless every alternative of
# the regex is the prefix of a test that `go test -list` finds there.
# (-race only so the listing reuses the test binaries the pass above built.)
status=0
while read -r name regex pkgs; do
	# shellcheck disable=SC2086 # pkgs is a list
	listed=$(go test -race -list "$regex" $pkgs)
	for alt in $(echo "$regex" | tr '|' ' '); do
		if ! echo "$listed" | grep -q "^$alt"; then
			echo "check.sh: gate '$name': no test named $alt* in $pkgs" >&2
			status=1
		fi
	done
done <<'EOF'
fused-backtransform  TestApplyFused|TestFusedBacktrans|TestSolverCancelDuringBacktrans  ./internal/backtransform ./internal/core .
batch                TestSolveBatch|TestSolveBatchMatchesSolo|TestSolveBatchFanout|TestSolveBatchCancel|TestSolveBatchCloseMidFlight|TestSolveBatchSmallItemsNeedNoWorker|TestSolveBatchConcurrentCalls|TestSolveBatchTraceAttribution|TestBatchIsolationMixed|TestNotFiniteError|TestNoConvergencePropagation|TestOptionsClamp|TestDegenerateShapes|TestBatchRangeValidatedWithoutDst|TestBatchGateOverBudgetClamp|TestSolveBatchOversizedItemsRunAlone|TestSolverGateSharedAcrossBatchCalls|TestNewSolverIgnoresTuneProfileEnv  .
phase-plan           TestSolveState|TestBuildPlan|TestPhaseNamesTimed  ./internal/core
tridiag              TestStedcSched|TestStebzSched|TestSteinSched|TestParallelTridiag|TestSecularRoot|TestStedcHard|TestStedcScalingExact|TestSterfHard|TestWorkSetRetention|TestStedcSchedCancelThenReuse|TestDCRegionsFit  ./internal/tridiag ./internal/core
workspace            TestEstimateCoversArena|TestBatchGateOverBudgetClamp|TestSolveBatchOversizedItemsRunAlone|TestOverBudgetRefused|TestDigests  ./internal/core . ./client
stage1-lookahead     TestReduceLookahead|TestReduceMatchesMirrorReference|TestReduceTaskCount|TestLookaheadSolverBitwise|TestStage1  ./internal/band ./internal/core
sched                TestSchedRandomDAGDrains|TestHelper  ./internal/sched
packed-engine        TestBlock|TestGemmPackedA|TestGemmPackedAUnpackedPanics|TestAsmKernelCanaries|TestAsmKernelBoundsAssertions|TestProbeWithoutAVX2|TestDgemmKernelsBitwiseIdentical|TestGemmAsmBitwisePortable|TestFusedRulePin|TestSolveBitwiseAcrossKernels|BenchmarkGemmKernels  ./internal/householder ./internal/blas .
level-kernels        TestLevel1AsmBitwisePortable|TestLevel2AsmBitwisePortable|TestLevelCanaries|TestFusedRulePin|TestUnsupportedShapesPanic|TestDsymvRowsSplitBitwise|TestDtrmvMatchesRowLoop  ./internal/blas
one-stage            TestSytrd|TestApplyQ|TestParallelTridiagOneStage|TestSytrdJobBitwise|TestSytrdJobCancel|TestSytrdJobTaskQueued|TestSolverCancelDuringSytrd|TestLarftMatchesRowLoop  ./internal/onestage ./internal/householder ./internal/core .
hard-inputs          TestScaledInputsAllMethodsAgree|TestSpectrumErrorScaled|TestResidualScaled  ./internal/core ./internal/testmat
cli                  TestReadMatrixErrors  ./cmd/eigsolve
inputs-untouched     TestInputsUntouched  .
bulge                TestChaseBanded|TestReflectorLattice|TestChaseCancel|TestChaseTwoStreams|TestSolveBitwiseAcrossWorkers|TestSolverMoreLargeSolvesThanWorkers  ./internal/bulge .
q2-diamonds          TestDiamondMatchesNaive|TestApplyNaiveMatchesDense|TestPlan|BenchmarkBacktransform  ./internal/backtransform
input-scan           TestNotFiniteError|TestEigRejectsNonSymmetric|TestScanInputWorkersHeld  .
service              TestServerAuth|TestServerSubmitValidation|FuzzSubmitDecode|FuzzSubmitHandler|TestServerJobEndpoints|TestServerNaNPayloadMapsTo400|TestErrorMapping|TestMemStore|TestDiskStore|FuzzDiskStoreReplay|TestRoundTripBitwise|TestCancelMidSolveFreesSlot|TestOverBudgetRefused|TestConcurrentClients  ./internal/service ./client
EOF

# The size figures ROADMAP.md tracks under "Size", printed for the next
# re-anchor to read; nothing here is gated. A settable package variable is an
# exported var outside benchmark/ that is not an Err* sentinel, declared alone
# (`var X`) or as a line of a `var (` block.
options() { awk '/^type Options struct \{/ {f = 1; next} f && /^}/ {exit} f && $0 ~ "^\t" pat "[A-Za-z0-9]* " {n++} END {print n + 0}' pat="$1" eigen.go; }
settable() { find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs awk '/^var \(/ {b = 1; next} b && /^\)/ {b = 0; next} b && /^\t[A-Z]/ && !/^\tErr/ {n++} /^var [A-Z]/ && !/^var Err/ {n++} END {print n + 0}'; }
echo "size: $(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l) non-test Go lines outside benchmark/, $(options '[A-Z]') eigen.Options fields, $(options Disable) Disable* fields, $(grep -c '^[a-z][a-z-]*:' Makefile) Makefile targets, $(settable) settable package variables"
exit $status
