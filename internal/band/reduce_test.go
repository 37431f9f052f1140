package band

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/testmat"
)

// mirrorReference runs the tile reduction with symmetry restored the plain
// way: runSeq's kernel order, and after the left updates of each step every
// transpose the algorithm defines, read or not — (j, k+1) after each
// ORMQR-L, and (row, k+1) and (row, i) for every row outside the pair after
// TS step i. The update kernels' own transposes land earlier and are
// overwritten here with the same bits.
func mirrorReference(a *matrix.Dense, nb int) *Factor {
	r := newReducer(a, Config{NB: nb}, nil, nil, nil)
	nt := r.f.NT
	for k := 0; k < nt-1; k++ {
		r.geqrt(k, 0)
		r.syrfb(k, 0)
		for j := k + 2; j < nt; j++ {
			r.ormqrL(k, j, 0)
			r.transpose(k+1, j)
		}
		for i := k + 2; i < nt; i++ {
			r.tsqrt(k, i, 0)
			for j := k + 1; j < nt; j++ {
				r.tsmqrL(k, i, j, 0)
			}
			r.tsmqrC(k, i, k+1, 0)
			r.tsmqrC(k, i, i, 0)
			for row := k + 1; row < nt; row++ {
				if row != k+1 && row != i {
					r.transpose(k+1, row)
					r.transpose(i, row)
				}
			}
		}
	}
	r.f.Band = extractBand(r.tm, nb, nil)
	return r.f
}

// TestReduceMatchesMirrorReference pins the dead-store analysis behind the
// fused transposes: the reduction, inline and scheduled at every width, is
// bitwise the reference that writes every mirror tile, over every tile of A,
// every prepared reflector and the band — square grids and a ragged last tile.
func TestReduceMatchesMirrorReference(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	widths := []int{1, 2, 4, 7}
	scheds := make([]*sched.Scheduler, len(widths))
	for x, w := range widths {
		scheds[x] = sched.New(w)
		defer scheds[x].Shutdown()
	}
	for _, nb := range []int{4, 5, 8} {
		for _, n := range []int{nb, 2 * nb, 3 * nb, 7 * nb, 6*nb + 3} {
			a := testmat.RandomSym(rng, n)
			ref := mirrorReference(a.Clone(), nb)
			got := Reduce(a.Clone(), Config{NB: nb}, nil, nil, nil)
			factorsIdentical(t, fmt.Sprintf("nb=%d n=%d inline", nb, n), ref, got)
			for x, s := range scheds {
				got := Reduce(a.Clone(), Config{NB: nb}, s.NewJob(nil), nil, nil)
				factorsIdentical(t, fmt.Sprintf("nb=%d n=%d workers=%d", nb, n, widths[x]), ref, got)
			}
		}
	}
}

// TestReduceTaskCount pins the size of the stage-1 DAG: panel k submits
// GEQRT, SYRFB, m ORMQR-L, m TSQRT, m(m+1) TSMQR-L and 2m TSMQR-C tasks,
// m = nt−k−2, and no copy tasks.
func TestReduceTaskCount(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	nb := 4
	for _, nt := range []int{1, 2, 3, 7, 32} {
		s := sched.New(2, sched.WithTrace())
		Reduce(testmat.RandomSym(rng, nt*nb), Config{NB: nb}, s.NewJob(nil), nil, nil)
		events := s.Trace()
		s.Shutdown()
		want := 0
		for k := 0; k < nt-1; k++ {
			m := nt - k - 2
			want += 2 + 5*m + m*m
		}
		if nt == 32 && want != 11842 {
			t.Fatalf("nt=32: formula gives %d tasks, want 11842", want)
		}
		if len(events) != want {
			t.Fatalf("nt=%d: %d stage-1 tasks, want %d", nt, len(events), want)
		}
		for _, ev := range events {
			if strings.HasPrefix(ev.Name, "MIRROR") {
				t.Fatalf("nt=%d: copy task %s submitted", nt, ev.Name)
			}
		}
	}
}
