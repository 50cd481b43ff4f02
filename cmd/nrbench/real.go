// The -real benchmark: drive the actual NR implementation (the public nr
// API, metrics observer attached) with a mixed read/update workload and
// report throughput plus per-class latency percentiles — the same numbers
// the paper's §8 figures are made of, measured rather than simulated.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	nr "github.com/asplos17/nr"
)

type realConfig struct {
	Duration time.Duration
	Threads  int
	ReadPct  int
	JSONPath string
	// Shards, when non-empty, appends a sharding sweep (shard.go) to the
	// -tracecmp run: one measurement per listed shard count.
	Shards []int
	// Logs, when non-empty, appends a multi-log sweep (logs.go) to the
	// -tracecmp run: one measurement per listed log count.
	Logs []int
	// PersistCmp appends the durability-cost comparison (persist.go) to the
	// -tracecmp run.
	PersistCmp bool
	// ObsCmp appends the telemetry-collector cost comparison (obscmp.go) to
	// the -tracecmp run.
	ObsCmp bool
}

// benchMap is the workload structure: a plain map, replicated by NR.
type benchMap struct{ m map[uint64]uint64 }

type benchOp struct {
	key   uint64
	val   uint64
	write bool
}

func (b *benchMap) Execute(op benchOp) uint64 {
	if op.write {
		b.m[op.key] = op.val
		return op.val
	}
	return b.m[op.key]
}

func (b *benchMap) IsReadOnly(op benchOp) bool { return !op.write }

// latencyReport is one operation class's latency summary in the JSON output.
type latencyReport struct {
	Count  uint64 `json:"count"`
	P50Ns  uint64 `json:"p50_ns"`
	P99Ns  uint64 `json:"p99_ns"`
	MeanNs uint64 `json:"mean_ns"`
	MaxNs  uint64 `json:"max_ns"`
}

// realResult is the BENCH_PR2.json schema.
type realResult struct {
	Benchmark      string        `json:"benchmark"`
	Threads        int           `json:"threads"`
	DurationSecs   float64       `json:"duration_secs"`
	ReadPct        int           `json:"read_pct"`
	TotalOps       uint64        `json:"total_ops"`
	ThroughputOpsS float64       `json:"throughput_ops_per_sec"`
	Read           latencyReport `json:"read"`
	Update         latencyReport `json:"update"`
	BatchMean      float64       `json:"combiner_batch_mean"`
	BatchP99       uint64        `json:"combiner_batch_p99"`
	Combines       uint64        `json:"combine_rounds"`
	CombinedOps    uint64        `json:"combined_ops"`
}

// xorshift is a tiny deterministic PRNG so the workload needs no locks and
// no allocation.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

// normalize fills the defaulted realConfig fields in place.
func (cfg *realConfig) normalize() {
	if cfg.Threads <= 0 {
		cfg.Threads = runtime.GOMAXPROCS(0)
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
}

// topoOption sizes the modeled topology to the thread count: spread over up
// to 4 nodes like the paper's testbed, with room so registration cannot
// fail.
func (cfg realConfig) topoOption() nr.Option {
	nodes := 4
	if cfg.Threads < nodes {
		nodes = cfg.Threads
	}
	perNode := (cfg.Threads + nodes - 1) / nodes
	return nr.WithNodes(nodes, perNode, 1)
}

// runWorkers drives a workload against any executor — single-log, sharded,
// persistent — for cfg.Duration and returns the op count and wall time. gen
// maps one PRNG draw to the next operation; every arm of every comparison
// (real, persistence, sharding) shares this one driver.
func runWorkers[O, R any](exec nr.Executor[O, R], cfg realConfig, gen func(r uint64) O) (uint64, time.Duration, error) {
	var stop atomic.Bool
	var total atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < cfg.Threads; t++ {
		h, err := exec.RegisterExecutor()
		if err != nil {
			return 0, 0, err
		}
		wg.Add(1)
		go func(h nr.OpExecutor[O, R], seed uint64) {
			defer wg.Done()
			rng := xorshift(seed)
			var ops uint64
			for !stop.Load() {
				h.Execute(gen(rng.next()))
				ops++
			}
			total.Add(ops)
		}(h, uint64(2*t+1))
	}
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	return total.Load(), time.Since(start), nil
}

// mixedOpGen builds the map workload's op generator: uniform keys, the
// given read percentage.
func mixedOpGen(readPct int) func(r uint64) benchOp {
	const keyspace = 1 << 16
	return func(r uint64) benchOp {
		op := benchOp{key: r % keyspace, val: r}
		// r>>32 is uniform in [0, 2^32); compare against the read
		// percentage scaled to that range.
		op.write = (r>>32)%100 >= uint64(readPct)
		return op
	}
}

// foldResult reads the executor's metrics into the JSON schema.
func foldResult(inst nr.Executor[benchOp, uint64], cfg realConfig, total uint64, elapsed time.Duration) (realResult, error) {
	m := inst.Metrics()
	if m.Observed == nil {
		return realResult{}, fmt.Errorf("metrics observer missing from instance built WithMetrics")
	}
	o := m.Observed
	res := realResult{
		Benchmark:      "nr-map-mixed",
		Threads:        cfg.Threads,
		DurationSecs:   elapsed.Seconds(),
		ReadPct:        cfg.ReadPct,
		TotalOps:       total,
		ThroughputOpsS: float64(total) / elapsed.Seconds(),
		Read: latencyReport{
			Count: o.Read.Count, P50Ns: o.Read.P50Ns, P99Ns: o.Read.P99Ns,
			MeanNs: o.Read.MeanNs, MaxNs: o.Read.MaxNs,
		},
		Update: latencyReport{
			Count: o.Update.Count, P50Ns: o.Update.P50Ns, P99Ns: o.Update.P99Ns,
			MeanNs: o.Update.MeanNs, MaxNs: o.Update.MaxNs,
		},
		BatchMean:   o.Batch.Mean,
		BatchP99:    o.Batch.P99,
		Combines:    m.Stats.Combines,
		CombinedOps: m.Stats.CombinedOps,
	}
	return res, nil
}

// measureReal runs one measurement of the mixed workload and returns the
// BENCH_PR2-schema result. With rec non-nil, the instance is built with the
// flight recorder attached — the recorder-on arm of the overhead
// comparison.
func measureReal(cfg realConfig, rec *nr.FlightRecorder) (realResult, error) {
	cfg.normalize()
	opts := []nr.Option{cfg.topoOption(), nr.WithMetrics()}
	if rec != nil {
		opts = append(opts, nr.WithFlightRecorderInstance(rec))
	}
	inst, err := nr.New(
		func() nr.Sequential[benchOp, uint64] { return &benchMap{m: make(map[uint64]uint64)} },
		opts...,
	)
	if err != nil {
		return realResult{}, err
	}
	total, elapsed, err := runWorkers[benchOp, uint64](inst, cfg, mixedOpGen(cfg.ReadPct))
	if err != nil {
		return realResult{}, err
	}
	return foldResult(inst, cfg, total, elapsed)
}

// printReal renders one measurement's summary to stdout.
func printReal(res realResult) {
	fmt.Printf("threads=%d  read%%=%d  duration=%.1fs\n", res.Threads, res.ReadPct, res.DurationSecs)
	fmt.Printf("throughput: %.2f Mops/s (%d ops)\n", res.ThroughputOpsS/1e6, res.TotalOps)
	fmt.Printf("read   p50=%s p99=%s (n=%d)\n",
		time.Duration(res.Read.P50Ns), time.Duration(res.Read.P99Ns), res.Read.Count)
	fmt.Printf("update p50=%s p99=%s (n=%d)\n",
		time.Duration(res.Update.P50Ns), time.Duration(res.Update.P99Ns), res.Update.Count)
	fmt.Printf("combiner batches: mean=%.1f p99=%d over %d rounds\n",
		res.BatchMean, res.BatchP99, res.Combines)
}

// writeJSON writes v, indented, to path.
func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func runReal(cfg realConfig) error {
	res, err := measureReal(cfg, nil)
	if err != nil {
		return err
	}
	fmt.Printf("=== real NR benchmark ===\n")
	printReal(res)
	if cfg.JSONPath != "" {
		return writeJSON(cfg.JSONPath, res)
	}
	return nil
}

// traceBudgetPct is the stated flight-recorder overhead budget: the
// recorder-on run must keep at least (100 - traceBudgetPct)% of the
// recorder-off throughput. DESIGN.md "Tracing & flight recorder" derives
// the number; the -tracecmp benchmark checks it.
const traceBudgetPct = 25.0

// flightRecorderReport is BENCH_PR3.json's addition over the BENCH_PR2
// schema: the measured recorder-on vs recorder-off delta.
type flightRecorderReport struct {
	ThroughputOnOpsS  float64 `json:"throughput_on_ops_per_sec"`
	ThroughputOffOpsS float64 `json:"throughput_off_ops_per_sec"`
	OverheadPct       float64 `json:"overhead_pct"`
	BudgetPct         float64 `json:"budget_pct"`
	WithinBudget      bool    `json:"within_budget"`
	RingSlots         int     `json:"ring_slots"`
	EventsInSnapshot  int     `json:"events_in_snapshot"`
}

// tracedResult is the BENCH_PR3/PR5/PR6/PR7/PR10.json schema: BENCH_PR2's
// fields (from the recorder-off run, so the series stays comparable across
// PRs), the flight-recorder overhead block, and — when requested — the
// sharding sweep, the multi-log sweep and the durability-cost ladder.
type tracedResult struct {
	realResult
	FlightRecorder flightRecorderReport `json:"flight_recorder"`
	ShardSweep     *shardSweepReport    `json:"shard_sweep,omitempty"`
	LogSweep       *logSweepReport      `json:"log_sweep,omitempty"`
	Persistence    *persistReport       `json:"persistence,omitempty"`
	Telemetry      *obsReport           `json:"telemetry,omitempty"`
}

// runTraceCompare measures the same workload twice — recorder off, then
// recorder on — and reports the throughput delta against the stated budget.
func runTraceCompare(cfg realConfig) error {
	jsonPath := cfg.JSONPath
	cfg.JSONPath = ""

	fmt.Printf("=== real NR benchmark (flight recorder off) ===\n")
	off, err := measureReal(cfg, nil)
	if err != nil {
		return err
	}
	printReal(off)

	rec := nr.NewFlightRecorder(nr.TraceConfig{RingSlots: 4096})
	fmt.Printf("=== real NR benchmark (flight recorder on) ===\n")
	on, err := measureReal(cfg, rec)
	if err != nil {
		return err
	}
	printReal(on)

	overhead := 0.0
	if off.ThroughputOpsS > 0 {
		overhead = (off.ThroughputOpsS - on.ThroughputOpsS) / off.ThroughputOpsS * 100
	}
	res := tracedResult{
		realResult: off,
		FlightRecorder: flightRecorderReport{
			ThroughputOnOpsS:  on.ThroughputOpsS,
			ThroughputOffOpsS: off.ThroughputOpsS,
			OverheadPct:       overhead,
			BudgetPct:         traceBudgetPct,
			WithinBudget:      overhead <= traceBudgetPct,
			RingSlots:         rec.Config().RingSlots,
			EventsInSnapshot:  len(rec.Snapshot().Events()),
		},
	}
	fmt.Printf("=== flight recorder overhead ===\n")
	fmt.Printf("off: %.2f Mops/s   on: %.2f Mops/s   overhead: %.1f%% (budget %.0f%%)\n",
		off.ThroughputOpsS/1e6, on.ThroughputOpsS/1e6, overhead, traceBudgetPct)
	if !res.FlightRecorder.WithinBudget {
		fmt.Printf("WARNING: overhead exceeds budget\n")
	}
	if len(cfg.Shards) > 0 {
		sweep, err := runShardSweep(cfg, cfg.Shards)
		if err != nil {
			return err
		}
		res.ShardSweep = sweep
	}
	if len(cfg.Logs) > 0 {
		sweep, err := runLogSweep(cfg, cfg.Logs)
		if err != nil {
			return err
		}
		res.LogSweep = sweep
	}
	if cfg.PersistCmp {
		rep, err := runPersistCompare(cfg)
		if err != nil {
			return err
		}
		res.Persistence = rep
	}
	if cfg.ObsCmp {
		rep, err := runObsCompare(cfg)
		if err != nil {
			return err
		}
		res.Telemetry = rep
	}
	if jsonPath != "" {
		return writeJSON(jsonPath, res)
	}
	return nil
}

// runPersistOnly is the standalone -persistcmp mode: just the durability
// ladder, with the report as the whole JSON document.
func runPersistOnly(cfg realConfig) error {
	jsonPath := cfg.JSONPath
	rep, err := runPersistCompare(cfg)
	if err != nil {
		return err
	}
	if jsonPath != "" {
		return writeJSON(jsonPath, struct {
			Persistence *persistReport `json:"persistence"`
		}{rep})
	}
	return nil
}
