// Command eigbench regenerates the paper's tables and figures on this
// machine using the shared harness in internal/bench. Each experiment is
// selected by -exp; -sizes, -n, -nb and -workers scale it up or down.
//
//	eigbench -exp all                       # everything at default sizes
//	eigbench -exp fig4c -sizes 256,512,1024 # the TRD speedup sweep
//	eigbench -exp fig5 -n 768               # the tile-size sweep
//	eigbench -exp model                     # Eqs. 4-6/9-10 with measured α, β
//
// See EXPERIMENTS.md for recorded outputs and the paper-vs-measured notes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

// writeJSON persists one experiment's record as {"host": …, "points": …} so
// every BENCH_*.json carries the machine identity (CPU model, core count,
// GOMAXPROCS, profile schema) it was measured on — recorded rates are
// meaningless without it.
func writeJSON(path string, points any) error {
	data, err := json.MarshalIndent(struct {
		Host   bench.HostInfo `json:"host"`
		Points any            `json:"points"`
	}{bench.Host(), points}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table1|table2|table3|fig1a|fig1b|fig2|fig3|fig4a|fig4b|fig4c|fig4d|fig5|model|svdcmp|fraction|verify|ablate-group|ablate-sched|ablate-colblock|backtrans|reuse|batch|pipeline|tridiag|stage1|kernels|sbr|all")
		sizes   = flag.String("sizes", "", "comma-separated matrix sizes for sweeps (default 128,256,384,512)")
		n       = flag.Int("n", 512, "matrix size for single-size experiments")
		nb      = flag.Int("nb", 32, "tile size where applicable")
		workers = flag.Int("workers", 0, "scheduler workers (0 = sequential)")
		reuse   = flag.Bool("reuse", false, "also run the reusable-Solver experiment (same as -exp reuse)")
		out     = flag.String("out", "BENCH_backtrans.json", "output path for the backtrans/batch experiments' JSON record (batch defaults to BENCH_batch.json)")
	)
	flag.Parse()

	sz := bench.DefaultSizes
	if *sizes != "" {
		sz = nil
		for _, tok := range strings.Split(*sizes, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || v < 1 {
				fmt.Fprintf(os.Stderr, "eigbench: bad size %q\n", tok)
				os.Exit(2)
			}
			sz = append(sz, v)
		}
	}

	run := func(name string) bool { return *exp == "all" || *exp == name }
	any := false
	show := func(t *bench.Table) {
		fmt.Println(t.String())
		any = true
	}

	if run("table1") {
		show(bench.Table1(*n))
	}
	if run("table2") {
		show(bench.Table2())
	}
	if run("table3") {
		show(bench.Table3())
	}
	if run("fig1a") {
		show(bench.Figure1('a', sz, *workers))
		show(bench.Figure1ValuesOnly(sz))
	}
	if run("fig1b") {
		show(bench.Figure1('b', sz, *workers))
	}
	if run("fig2") {
		show(bench.Figure2(min(*n, 128), *nb))
	}
	if run("fig3") {
		show(bench.Figure3(*n, *nb, *nb, 4))
	}
	for _, v := range []byte{'a', 'b', 'c', 'd'} {
		if run("fig4" + string(v)) {
			show(bench.Figure4(v, sz, *workers))
		}
	}
	if run("fig5") {
		show(bench.Figure5(*n, []int{8, 16, 24, 32, 48, 64, 96, 128}, *workers))
	}
	if run("model") {
		show(bench.ModelTable([]int{256, 512, 1024, 2048, 4096, 8192, 24000}))
	}
	if run("svdcmp") {
		show(bench.SVDComparison([]int{512, 1024, 4096, 24000}))
	}
	if run("fraction") {
		show(bench.Fraction(*n, *workers))
	}
	if run("verify") {
		show(bench.VerifyTable(min(*n, 256), *workers))
		show(bench.Stage2ParallelCheck(min(*n, 256), *nb, []int{1, 2, 4}))
	}
	if run("ablate-group") {
		show(bench.AblationGroup(*n, *nb, []int{1, 2, 4, 8, *nb / 4, *nb / 3, *nb / 2, *nb, 2 * *nb}))
	}
	if run("ablate-sched") {
		show(bench.AblationStage2Cores(*n, *nb, []int{1, 2, 4}))
		show(bench.AblationStage1Sched(*n, *nb, []int{1, 2, 4}))
	}
	if run("ablate-colblock") {
		show(bench.AblationColBlock(*n, *nb, *workers, []int{16, 32, 64, 128, 256}))
	}
	if *exp == "backtrans" { // not part of "all": the large sweep stands alone
		bsz := sz
		if *sizes == "" {
			bsz = []int{512, 1024, 2048}
		}
		table, points := bench.BacktransCompare(bsz, *nb, []int{1, 4}, 5)
		show(table)
		if err := writeJSON(*out, points); err != nil {
			fmt.Fprintf(os.Stderr, "eigbench: writing %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d points)\n", *out, len(points))
	}
	if *reuse || run("reuse") {
		show(reuseTable(min(*n, 512), *nb, *workers, 4))
	}
	if *exp == "batch" { // not part of "all": the batch sweep stands alone
		bsz := sz
		if *sizes == "" {
			bsz = []int{64, 256, 1024}
		}
		w := *workers
		if w == 0 {
			w = 8
		}
		table, points := batchThroughput(bsz, 32, w)
		show(table)
		path := *out
		if path == "BENCH_backtrans.json" { // flag default belongs to -exp backtrans
			path = "BENCH_batch.json"
		}
		if err := writeJSON(path, points); err != nil {
			fmt.Fprintf(os.Stderr, "eigbench: writing %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d points)\n", path, len(points))
	}
	if *exp == "pipeline" { // not part of "all": the pipelined-batch sweep stands alone
		psz := sz
		if *sizes == "" {
			psz = []int{256, 512, 1024}
		}
		w := *workers
		if w == 0 {
			w = 8
		}
		table, points := pipelineThroughput(psz, 16, w)
		show(table)
		path := *out
		if path == "BENCH_backtrans.json" { // flag default belongs to -exp backtrans
			path = "BENCH_pipeline.json"
		}
		if err := writeJSON(path, points); err != nil {
			fmt.Fprintf(os.Stderr, "eigbench: writing %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d points)\n", path, len(points))
	}
	if *exp == "stage1" { // not part of "all": the look-ahead sweep stands alone
		ssz := sz
		if *sizes == "" {
			ssz = []int{256, 512, 1024}
		}
		w := *workers
		if w == 0 {
			w = 4
		}
		table, points := bench.Stage1Compare(ssz, *nb, w, 0, 3)
		show(table)
		path := *out
		if path == "BENCH_backtrans.json" { // flag default belongs to -exp backtrans
			path = "BENCH_stage1.json"
		}
		if err := writeJSON(path, points); err != nil {
			fmt.Fprintf(os.Stderr, "eigbench: writing %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d points)\n", path, len(points))
	}
	if *exp == "kernels" { // not part of "all": the kernel sweep stands alone
		path := *out
		if path == "BENCH_backtrans.json" { // flag default belongs to -exp backtrans
			path = "BENCH_kernels.json"
		}
		table, err := kernelsExperiment(path, 3)
		show(table)
		if err != nil {
			fmt.Fprintf(os.Stderr, "eigbench: %v\n", err)
			os.Exit(1)
		}
	}
	if *exp == "sbr" { // not part of "all": the multi-sweep sweep stands alone
		ssz := sz
		if *sizes == "" {
			ssz = []int{512, 1024, 2048}
		}
		w := *workers
		if w == 0 {
			w = 4
		}
		plans := []bench.SBRConfig{
			{}, // direct — the speedup/drift reference, must stay first
			{WideBand: 64, Sweeps: []int{8}},
			{WideBand: 128, Sweeps: []int{32, 8}},
		}
		table, points := sbrCompare(ssz, plans, w, 2)
		show(table)
		path := *out
		if path == "BENCH_backtrans.json" { // flag default belongs to -exp backtrans
			path = "BENCH_sbr.json"
		}
		if err := writeJSON(path, points); err != nil {
			fmt.Fprintf(os.Stderr, "eigbench: writing %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d points)\n", path, len(points))
	}
	if *exp == "tridiag" { // not part of "all": the eig_t sweep stands alone
		tsz := sz
		if *sizes == "" {
			tsz = []int{512, 1024, 2048}
		}
		w := *workers
		if w == 0 {
			w = 4
		}
		table, points := tridiagStage(tsz, w, 3)
		show(table)
		path := *out
		if path == "BENCH_backtrans.json" { // flag default belongs to -exp backtrans
			path = "BENCH_tridiag.json"
		}
		if err := writeJSON(path, points); err != nil {
			fmt.Fprintf(os.Stderr, "eigbench: writing %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d points)\n", path, len(points))
	}
	if !any {
		fmt.Fprintf(os.Stderr, "eigbench: unknown experiment %q (see -h)\n", *exp)
		os.Exit(2)
	}
}
