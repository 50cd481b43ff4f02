// Command nrbench regenerates the paper's evaluation: every figure and
// table of §8, as throughput series printed in the same units the paper
// plots (operations per microsecond).
//
// Usage:
//
//	nrbench -list                 # show all experiment ids
//	nrbench -fig 5b               # one experiment
//	nrbench -all                  # everything (slow)
//	nrbench -fig 7c -ops 4000     # more ops per thread = smoother series
//
// Thread-sweep experiments run on the deterministic NUMA simulator
// (internal/sim); the memory tables measure the real implementation.
//
// -real instead benchmarks the actual NR implementation end to end (no
// simulator): a mixed read/update workload against the public nr API with
// metrics enabled, reporting throughput and per-class latency percentiles.
// -json PATH writes the -real results as machine-readable JSON.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"time"

	"github.com/asplos17/nr/internal/bench"
)

func main() {
	var (
		figID    = flag.String("fig", "", "experiment id (e.g. 5b, 7c, 11a, 14, size)")
		all      = flag.Bool("all", false, "run every experiment")
		list     = flag.Bool("list", false, "list experiment ids")
		ops      = flag.Int("ops", 0, "operations per simulated thread (default 1500)")
		real     = flag.Bool("real", false, "benchmark the real implementation (not the simulator)")
		tracecmp = flag.Bool("tracecmp", false, "benchmark the real implementation twice (flight recorder off/on) and report the overhead")
		jsonPath = flag.String("json", "", "with -real/-tracecmp: write results as JSON to this path")
		duration = flag.Duration("dur", 2*time.Second, "with -real: measurement duration")
		threads  = flag.Int("threads", 0, "with -real: worker goroutines (default GOMAXPROCS)")
		readPct  = flag.Int("readpct", 90, "with -real: percentage of read operations")
		shards   = flag.String("shards", "", "with -tracecmp: also sweep nr.NewSharded at these shard counts (e.g. 1,2,4,8)")
		logsFlag = flag.String("logs", "", "with -tracecmp: also sweep nr.WithLogs at these log counts (e.g. 1,2,4)")
		persist  = flag.Bool("persistcmp", false, "benchmark the durability cost: persistence off vs fsync-never vs group-fsync on an all-update workload")
		obscmp   = flag.Bool("obscmp", false, "benchmark the telemetry-collector cost: windowed collector off vs on at its default cadence")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this path")
	)
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nrbench: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "nrbench: %v\n", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}

	if *real || *tracecmp || *persist || *obscmp {
		shardCounts, err := parseShardList(*shards)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nrbench: %v\n", err)
			os.Exit(2)
		}
		logCounts, err := parseLogList(*logsFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nrbench: %v\n", err)
			os.Exit(2)
		}
		cfg := realConfig{
			Duration:   *duration,
			Threads:    *threads,
			ReadPct:    *readPct,
			JSONPath:   *jsonPath,
			Shards:     shardCounts,
			Logs:       logCounts,
			PersistCmp: *persist,
			ObsCmp:     *obscmp,
		}
		run := runReal
		switch {
		case *tracecmp:
			run = runTraceCompare
		case *persist && !*real:
			run = runPersistOnly
		case *obscmp && !*real:
			run = runObsOnly
		}
		if err := run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "nrbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	figs := bench.Figures()
	if *list {
		ids := make([]string, 0, len(figs))
		for id := range figs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Printf("%-6s %s\n", id, figs[id].Title)
		}
		return
	}

	cfg := bench.Config{OpsPerThread: *ops}
	runOne := func(id string) {
		f, ok := figs[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "nrbench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		series := f.Run(cfg)
		fmt.Printf("=== Figure %s: %s ===\n", f.ID, f.Title)
		bench.Print(os.Stdout, f.XLabel, series)
		if s := bench.Summarize(series); s != "" {
			fmt.Println(s)
		}
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	}

	switch {
	case *all:
		ids := make([]string, 0, len(figs))
		for id := range figs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			runOne(id)
		}
	case *figID != "":
		runOne(*figID)
	default:
		flag.Usage()
		os.Exit(2)
	}
}
