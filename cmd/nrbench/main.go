// Command nrbench holds the two measurements benchmark/ (the repository's
// benchmark, BENCHMARK.json) leaves out because a 2-CPU box cannot make
// them: the paper's §8 thread sweeps, and how multi-log NR scales.
//
// Usage:
//
//	nrbench -list                 # show all experiment ids
//	nrbench -fig 5b               # one experiment
//	nrbench -all                  # everything (slow)
//	nrbench -fig 7c -ops 4000     # more ops per thread = smoother series
//
//	nrbench -logs 1,2,4 [-threads 8] [-dur 2s] [-json out.json]
//
// The first form regenerates every figure and table of §8 as throughput
// series in the paper's units (operations per microsecond). Thread-sweep
// experiments run on the deterministic NUMA simulator (internal/sim); the
// memory tables measure the real implementation.
//
// The second form measures the real implementation (sweep.go): nr.WithLogs
// at each -logs count, update-heavy, each point the median of 3 rounds. Every other number about the real
// implementation (throughput, latency, the cost of observability, tracing
// and durability) comes from `go run ./benchmark`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"time"

	"github.com/asplos17/nr/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the
// exit status (2 for a usage error, 1 for a failed run).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nrbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		figID    = fs.String("fig", "", "experiment id (e.g. 5b, 7c, 11a, 14, size)")
		all      = fs.Bool("all", false, "run every experiment")
		list     = fs.Bool("list", false, "list experiment ids")
		ops      = fs.Int("ops", 0, "operations per simulated thread (default 1500)")
		logs     = fs.String("logs", "", "sweep nr.WithLogs at these log counts (e.g. 1,2,4)")
		threads  = fs.Int("threads", 0, "with -logs: worker goroutines (default GOMAXPROCS)")
		duration = fs.Duration("dur", 2*time.Second, "with -logs: duration of one round")
		jsonPath = fs.String("json", "", "with -logs: write the sweep as JSON to this path")
		cpuprof  = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this path")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "nrbench: %v\n", err)
		return code
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return fail(2, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(2, err)
		}
		defer pprof.StopCPUProfile()
	}

	logCounts, err := parseCounts(*logs)
	if err != nil {
		return fail(2, err)
	}
	if len(logCounts) > 0 {
		if *duration <= 0 {
			return fail(2, fmt.Errorf("-dur must be positive (got %s)", *duration))
		}
		if err := runSweep(stdout, logCounts, *threads, *duration, *jsonPath); err != nil {
			return fail(1, err)
		}
		return 0
	}

	figs := bench.Figures()
	ids := make([]string, 0, len(figs))
	for id := range figs {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	switch {
	case *list:
		for _, id := range ids {
			fmt.Fprintf(stdout, "%-6s %s\n", id, figs[id].Title)
		}
		return 0
	case *all:
	case *figID != "":
		if _, ok := figs[*figID]; !ok {
			return fail(2, fmt.Errorf("unknown experiment %q (try -list)", *figID))
		}
		ids = []string{*figID}
	default:
		fs.Usage()
		return 2
	}

	cfg := bench.Config{OpsPerThread: *ops}
	for _, id := range ids {
		f := figs[id]
		start := time.Now()
		series := f.Run(cfg)
		fmt.Fprintf(stdout, "=== Figure %s: %s ===\n", f.ID, f.Title)
		bench.Print(stdout, f.XLabel, series)
		if s := bench.Summarize(f, series); s != "" {
			fmt.Fprintln(stdout, s)
		}
		fmt.Fprintf(stdout, "(%.1fs)\n\n", time.Since(start).Seconds())
	}
	return 0
}
