package main

import (
	"math/rand"

	eigen "repro"
	"repro/internal/matrix"
	"repro/internal/testmat"
)

// scale sizes a run. "full" is what BENCHMARK.json measures; "tiny" divides
// every order by 8 and does a handful of operations, so `go test` can keep
// the benchmark compiling and running against the internal APIs it uses.
type scale struct {
	name        string
	div         int // every matrix order is divided by this
	minOps      int // timed operations per run, whatever -seconds says
	setupReps   int // set-ups per run; setup_s is their median
	tracedOps   int // operations of the traced pass
	batchItems  int
	poolPerSize int // distinct service matrices per order
	tracedReqs  int // service requests of the traced pass
	gemmN       int // α: Dgemm order
	symvCapB    int64
}

var scales = map[string]scale{
	"full": {name: "full", div: 1, minOps: 3, setupReps: 3, tracedOps: 3, batchItems: 96, poolPerSize: 3, tracedReqs: 216, gemmN: 512, symvCapB: 1 << 30},
	"tiny": {name: "tiny", div: 8, minOps: 2, setupReps: 2, tracedOps: 2, batchItems: 12, poolPerSize: 1, tracedReqs: 18, gemmN: 64, symvCapB: 1 << 20},
}

// input is one generated problem, in the public form the Solver takes and
// the internal form the traced pass and the checks take. Both share values.
type input struct {
	a  *eigen.Matrix
	ad *matrix.Dense
}

func newInput(ad *matrix.Dense) input {
	// A symmetric matrix reads the same row-major as column-major.
	return input{a: eigen.NewMatrixFrom(ad.Rows, ad.Data), ad: ad}
}

// goe draws an n×n symmetric matrix with N(0,1) entries.
func goe(rng *rand.Rand, n int) input { return newInput(testmat.RandomSym(rng, n)) }

// batchSizes and the three matrix classes cycle over the items of
// batch_mixed_small. The clustered class is there because it makes divide &
// conquer deflate, the input property eig_t's cost depends on most.
var batchSizes = []int{64, 128, 256}

func mixedItems(rng *rand.Rand, sc scale) []input {
	items := make([]input, sc.batchItems)
	for i := range items {
		n := max(4, batchSizes[i%3]/sc.div)
		switch (i / 3) % 3 {
		case 0:
			items[i] = goe(rng, n)
		case 1:
			items[i] = newInput(testmat.GraphLaplacian(rng, n, 8))
		default:
			items[i] = newInput(testmat.WithSpectrum(rng, testmat.ClusteredSpectrum(n, 8, 1e-10)))
		}
	}
	return items
}

// request is one entry of the service schedule: which pooled matrix, and
// which of the three job kinds.
type request struct {
	in   int // index into the pool
	kind int // 0 full, 1 values only, 2 lowest 10 % of the pairs
}

const requestKinds = 3

// rangeOf returns the eigenpair range of a request kind for order n (0, 0
// is the full spectrum).
func rangeOf(kind, n int) (il, iu int) {
	if kind == 2 {
		return 1, max(1, n/10)
	}
	return 0, 0
}

// servicePool draws the distinct matrices service_loopback cycles over.
func servicePool(rng *rand.Rand, sc scale) []input {
	var pool []input
	for _, n := range batchSizes {
		for k := 0; k < sc.poolPerSize; k++ {
			pool = append(pool, goe(rng, max(4, n/sc.div)))
		}
	}
	return pool
}

// serviceSchedule is the seeded request order: shuffled blocks that each
// hold every (matrix, kind) pairing once, so any prefix long enough to
// measure has the same mix. About 800 requests at full scale.
func serviceSchedule(rng *rand.Rand, pool int, blocks int) []request {
	var sched []request
	for b := 0; b < blocks; b++ {
		block := make([]request, 0, pool*requestKinds)
		for in := 0; in < pool; in++ {
			for kind := 0; kind < requestKinds; kind++ {
				block = append(block, request{in, kind})
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		sched = append(sched, block...)
	}
	return sched
}
