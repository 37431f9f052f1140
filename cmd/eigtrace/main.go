// Command eigtrace runs the two-stage reduction under the tracing scheduler
// and prints an execution profile: per-kernel task counts and times, plus an
// ASCII Gantt chart of the workers — a terminal rendition of the DAG
// execution the paper's runtime produces.
//
//	eigtrace -n 256 -nb 32 -workers 4
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/band"
	"repro/internal/bulge"
	"repro/internal/matrix"
	"repro/internal/sched"
)

func main() {
	var (
		n       = flag.Int("n", 256, "matrix size")
		nb      = flag.Int("nb", 32, "tile size / bandwidth")
		workers = flag.Int("workers", 4, "scheduler workers")
		width   = flag.Int("width", 100, "Gantt chart width in characters")
	)
	flag.Parse()

	rng := rand.New(rand.NewSource(1))
	a := matrix.NewDense(*n, *n)
	for j := 0; j < *n; j++ {
		for i := j; i < *n; i++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}

	s := sched.New(*workers, sched.WithTrace())
	start := time.Now()
	f := band.Reduce(a, band.Config{NB: *nb}, s.NewJob(nil), nil, nil)
	stage1 := time.Since(start)
	bulge.Chase(f.Band, s.NewJob(nil), true, nil, nil)
	total := time.Since(start)
	events := s.Trace()
	s.Shutdown()

	fmt.Printf("n=%d nb=%d workers=%d: stage1 %v, stage1+2 %v, %d tasks\n\n",
		*n, *nb, *workers, stage1.Round(time.Millisecond), total.Round(time.Millisecond), len(events))

	// Aggregate by kernel class (task-name prefix).
	type agg struct {
		count int
		total time.Duration
	}
	byClass := map[string]*agg{}
	for _, ev := range events {
		cls := className(ev.Name)
		if byClass[cls] == nil {
			byClass[cls] = &agg{}
		}
		byClass[cls].count++
		byClass[cls].total += ev.End - ev.Start
	}
	var classes []string
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return byClass[classes[i]].total > byClass[classes[j]].total })
	fmt.Println("kernel class     tasks      busy time")
	for _, c := range classes {
		fmt.Printf("%-15s %6d %14v\n", c, byClass[c].count, byClass[c].total.Round(time.Microsecond))
	}

	// Gantt: one row per worker, one glyph per time bin (the class that was
	// running at the bin's midpoint; '.' = idle).
	var horizon time.Duration
	for _, ev := range events {
		if ev.End > horizon {
			horizon = ev.End
		}
	}
	if horizon == 0 {
		return
	}
	glyphs := map[string]byte{}
	avail := []byte("GTQLMCSHBR123456789")
	for i, c := range classes {
		if i < len(avail) {
			glyphs[c] = avail[i]
		} else {
			glyphs[c] = '?'
		}
	}
	fmt.Println("\nGantt (one row per worker; legend below):")
	perWorker := map[int][]sched.TraceEvent{}
	maxW := 0
	for _, ev := range events {
		perWorker[ev.Worker] = append(perWorker[ev.Worker], ev)
		if ev.Worker > maxW {
			maxW = ev.Worker
		}
	}
	bin := horizon / time.Duration(*width)
	if bin == 0 {
		bin = 1
	}
	for w := 0; w <= maxW; w++ {
		row := make([]byte, *width)
		for i := range row {
			row[i] = '.'
		}
		for _, ev := range perWorker[w] {
			lo := int(ev.Start / bin)
			hi := int(ev.End / bin)
			for b := lo; b <= hi && b < *width; b++ {
				row[b] = glyphs[className(ev.Name)]
			}
		}
		fmt.Printf("w%d |%s|\n", w, row)
	}
	fmt.Println("\nlegend:")
	for _, c := range classes {
		fmt.Printf("  %c = %s\n", glyphs[c], c)
	}
}

// className strips the task-instance suffix: "TSMQR-L(3,2)" → "TSMQR-L",
// "HBCEU#4.0" → "HBCEU".
func className(name string) string {
	if i := strings.IndexAny(name, "(#"); i >= 0 {
		return name[:i]
	}
	return name
}
