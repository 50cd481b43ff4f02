// The measured mode: how multi-log NR, the way this repository scales
// updates past the paper's §5.1 bottleneck (every update through one tail
// CAS), scales on the real implementation.
//
// -logs sweeps nr.WithLogs: ONE linearizable instance whose log is split
// into m conflict classes with independent tails and combiner sets. The
// structure is ds.PartitionedDict(m), class = key mod m, so the mapper
// contract holds by construction and m = 1 is the classic single-log
// instance. Cross-class operations are absent from the loop: they
// serialize every class through the ticket barrier, and the sweep's
// question is how far the commuting common case scales.
//
// It runs the paper's dictionary workload (§8.1.3: skip-list
// insert/lookup, whose O(log n) pointer-chasing updates make the
// per-replica replay tax visible) at 10 % reads: the log is an update-side
// bottleneck (reads never append), and 10 % keeps a live read path.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	nr "github.com/asplos17/nr"
	"github.com/asplos17/nr/internal/ds"
	"github.com/asplos17/nr/internal/workload"
)

const (
	sweepReadPct  = 10
	sweepKeyspace = 1 << 16
	// sweepRounds is how many times each count is measured; a point is its
	// median round. The ratio between two points is the headline number
	// (speedup_4x), so one round hit by ambient noise (GC from the previous
	// point's discarded structures, a busy neighbour) must not land in the
	// record.
	sweepRounds = 3
	// sweepMaxNodes is the modeled machine: up to 4 nodes like the paper's
	// testbed, fewer when there are fewer threads than that.
	sweepMaxNodes = 4
)

type dictInstance = *nr.Instance[ds.DictOp, ds.DictResult]

// sweepPoint is one count's measurement: its median round.
type sweepPoint struct {
	Logs           int     `json:"logs"`
	Nodes          int     `json:"nodes"` // replicas per instance
	ThreadsPerNode int     `json:"threads_per_node"`
	TotalOps       uint64  `json:"total_ops"`
	ThroughputOpsS float64 `json:"throughput_ops_per_sec"`
}

// sweepReport is the sweep in the -json document.
type sweepReport struct {
	Benchmark string       `json:"benchmark"`
	ReadPct   int          `json:"read_pct"`
	Rounds    int          `json:"rounds"`
	Points    []sweepPoint `json:"points"`
	// Speedup4x is throughput at count 4 over count 1 (0 when either is
	// missing from the list).
	Speedup4x float64 `json:"speedup_4x"`
}

// sweepDoc is the -json document.
type sweepDoc struct {
	Threads      int          `json:"threads"`
	DurationSecs float64      `json:"duration_secs"`
	LogSweep     *sweepReport `json:"log_sweep"`
}

// sweepBenchmark names the sweep's workload in the -json document.
const sweepBenchmark = "nr-partitioned-dict-mixed"

// build makes the instance under test at m logs over a machine of the
// given nodes, spreading threads over them with room so registration
// cannot fail.
func build(m, nodes, threads int) (dictInstance, sweepPoint, error) {
	perNode := (threads + nodes - 1) / nodes
	inst, err := nr.New(
		func() nr.Sequential[ds.DictOp, ds.DictResult] { return ds.NewPartitionedDict(m, 1) },
		nr.WithNodes(nodes, perNode, 1),
		nr.WithLogs[ds.DictOp](m, nr.LogMapperFunc[ds.DictOp](ds.DictClass(m))),
	)
	return inst, sweepPoint{Logs: m, Nodes: nodes, ThreadsPerNode: perNode}, err
}

// parseCounts parses a -logs list ("1,2,4,8") into counts ≥ 1.
func parseCounts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad count %q in -logs", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// dictOp maps one PRNG draw to the next operation: uniform keys, r>>32
// (uniform in [0, 2^32)) against the read percentage.
func dictOp(r uint64) ds.DictOp {
	op := ds.DictOp{Kind: ds.DictInsert, Key: int64(r % sweepKeyspace), Value: r}
	if (r>>32)%100 < sweepReadPct {
		op.Kind = ds.DictLookup
	}
	return op
}

// runWorkers drives the workload from threads registered goroutines for dur
// and returns the op count and wall time.
func runWorkers(inst dictInstance, threads int, dur time.Duration) (uint64, time.Duration, error) {
	handles := make([]*nr.Handle[ds.DictOp, ds.DictResult], threads)
	for t := range handles {
		h, err := inst.Register()
		if err != nil {
			return 0, 0, err
		}
		handles[t] = h
	}
	var stop atomic.Bool
	var total atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for t, h := range handles {
		wg.Add(1)
		go func(h *nr.Handle[ds.DictOp, ds.DictResult], seed uint64) {
			defer wg.Done()
			rng := workload.NewRNG(seed)
			var ops uint64
			for !stop.Load() {
				h.Execute(dictOp(rng.Next()))
				ops++
			}
			total.Add(ops)
		}(h, uint64(2*t+1))
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	return total.Load(), time.Since(start), nil
}

// measure runs one round at m logs.
func measure(m, threads int, dur time.Duration) (sweepPoint, error) {
	inst, pt, err := build(m, min(sweepMaxNodes, threads), threads)
	if err != nil {
		return sweepPoint{}, err
	}
	defer inst.Close()
	total, elapsed, err := runWorkers(inst, threads, dur)
	if err != nil {
		return sweepPoint{}, err
	}
	pt.TotalOps = total
	pt.ThroughputOpsS = float64(total) / elapsed.Seconds()
	return pt, nil
}

// sweep measures every count in the list, sweepRounds rounds each, and
// reports the 4-vs-1 speedup when both are present.
func sweep(out io.Writer, counts []int, threads int, dur time.Duration) (*sweepReport, error) {
	rep := &sweepReport{Benchmark: sweepBenchmark, ReadPct: sweepReadPct, Rounds: sweepRounds}
	byCount := map[int]float64{}
	fmt.Fprintf(out, "=== log sweep (threads=%d, read%%=%d, median of %d rounds of %s) ===\n",
		threads, sweepReadPct, sweepRounds, dur)
	for _, n := range counts {
		rounds := make([]sweepPoint, sweepRounds)
		for i := range rounds {
			pt, err := measure(n, threads, dur)
			if err != nil {
				return nil, fmt.Errorf("logs=%d: %w", n, err)
			}
			rounds[i] = pt
		}
		sort.Slice(rounds, func(a, b int) bool {
			return rounds[a].ThroughputOpsS < rounds[b].ThroughputOpsS
		})
		pt := rounds[sweepRounds/2]
		rep.Points = append(rep.Points, pt)
		byCount[n] = pt.ThroughputOpsS
		fmt.Fprintf(out, "logs=%d  nodes=%d  %.2f Mops/s (%d ops)\n",
			n, pt.Nodes, pt.ThroughputOpsS/1e6, pt.TotalOps)
	}
	if one := byCount[1]; one > 0 && byCount[4] > 0 {
		rep.Speedup4x = byCount[4] / one
		fmt.Fprintf(out, "4-log speedup over 1-log: %.2fx\n", rep.Speedup4x)
	}
	return rep, nil
}

// runSweep is the measured mode: the sweep, then the -json document.
func runSweep(out io.Writer, logs []int, threads int, dur time.Duration, jsonPath string) error {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	doc := sweepDoc{Threads: threads, DurationSecs: dur.Seconds()}
	var err error
	if doc.LogSweep, err = sweep(out, logs, threads, dur); err != nil {
		return err
	}
	if jsonPath == "" {
		return nil
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", jsonPath)
	return nil
}
