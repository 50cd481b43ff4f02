// The -batchcmp benchmark: the batching-policy ladder. Four arms of the
// same update-heavy map workload, one per policy — no batching, a fixed
// linger window, the adaptive window, and parallel combining on a
// commutativity-declaring structure — reporting each arm's throughput and
// the combiner batch-size distribution (combiner_batch_mean/p99) that the
// policy exists to move. Update-heavy because batching is an append-side
// amortization: k ops in a round share one lock acquisition, one tail CAS,
// and one replay pass, and reads never append.
//
// The ladder runs on its own topology, not -threads/topoOption: batch size
// is capped at the node's slot count (a round collects at most one op per
// same-node thread), so the modeled machine must put enough threads on a
// node for a distribution tail to exist at all. Two nodes of eight keep
// that ceiling at 8 while still exercising cross-node replay.
package main

import (
	"fmt"
	"sync/atomic"
	"time"

	nr "github.com/asplos17/nr"
)

const (
	// batchNodes/batchCores size the ladder's modeled machine; batchThreads
	// fills every slot so the per-node ceiling (= batchCores) is reachable.
	batchNodes   = 2
	batchCores   = 8
	batchThreads = batchNodes * batchCores

	// batchFixedLinger/batchFixedMin parameterize the fixed-window arm: a
	// 100µs window closing early at four ops.
	batchFixedLinger = 100 * time.Microsecond
	batchFixedMin    = 4

	// batchCellCount sizes the parallel arm's atomic-cell structure (a
	// power of two, so key folding is a mask).
	batchCellCount = 1 << 12
)

// benchCells is the parallel-combining arm's structure. benchMap cannot
// declare its writes independent — blind map stores against one replica are
// not thread-safe — so this arm uses what the ConcurrentApplier contract
// asks for: fixed atomic cells, and a write's response is its own value,
// identical in any execution order.
type benchCells struct{ cells [batchCellCount]atomic.Uint64 }

func (b *benchCells) Execute(op benchOp) uint64 {
	if op.write {
		b.cells[op.key&(batchCellCount-1)].Add(op.val)
		return op.val
	}
	return b.cells[op.key&(batchCellCount-1)].Load()
}

func (b *benchCells) IsReadOnly(op benchOp) bool { return !op.write }

// ConcurrentApply declares every write independently applicable: atomic
// adds on distinct-or-same cells commute, and the response (the op's own
// value) does not depend on order.
func (b *benchCells) ConcurrentApply(op benchOp) bool { return op.write }

// batchArm is one policy arm's measurement. The batch fields carry the same
// JSON names as the top-level schema so the series reads uniformly.
type batchArm struct {
	Arm            string  `json:"arm"`
	Policy         string  `json:"policy"`
	Structure      string  `json:"structure"`
	TotalOps       uint64  `json:"total_ops"`
	ThroughputOpsS float64 `json:"throughput_ops_per_sec"`
	UpdateP50Ns    uint64  `json:"update_p50_ns"`
	UpdateP99Ns    uint64  `json:"update_p99_ns"`
	BatchMean      float64 `json:"combiner_batch_mean"`
	BatchP99       uint64  `json:"combiner_batch_p99"`
	Combines       uint64  `json:"combine_rounds"`
	CombinedOps    uint64  `json:"combined_ops"`
	ParallelOps    uint64  `json:"parallel_ops"`
}

// batchLadderReport is BENCH_PR7.json's addition: the policy ladder on the
// all-update workload.
type batchLadderReport struct {
	ReadPct      int        `json:"read_pct"`
	Threads      int        `json:"threads"`
	Nodes        int        `json:"nodes"`
	CoresPerNode int        `json:"cores_per_node"`
	Arms         []batchArm `json:"arms"`
}

// adaptiveArm returns the ladder's adaptive measurement, the arm CI asserts
// batch formation on.
func (r *batchLadderReport) adaptiveArm() *batchArm {
	for i := range r.Arms {
		if r.Arms[i].Arm == "adaptive" {
			return &r.Arms[i]
		}
	}
	return nil
}

// measureBatchArm runs one policy arm and folds its metrics.
func measureBatchArm(cfg realConfig, arm, policyDesc, structure string,
	policy nr.BatchPolicy, create func() nr.Sequential[benchOp, uint64]) (batchArm, error) {
	inst, err := nr.New(create,
		nr.WithNodes(batchNodes, batchCores, 1),
		nr.WithMetrics(),
		nr.WithBatchPolicy(policy),
	)
	if err != nil {
		return batchArm{}, err
	}
	defer inst.Close()
	total, elapsed, err := runWorkers[benchOp, uint64](inst, cfg, mixedOpGen(cfg.ReadPct))
	if err != nil {
		return batchArm{}, err
	}
	res, err := foldResult(inst, cfg, total, elapsed)
	if err != nil {
		return batchArm{}, err
	}
	return batchArm{
		Arm:            arm,
		Policy:         policyDesc,
		Structure:      structure,
		TotalOps:       res.TotalOps,
		ThroughputOpsS: res.ThroughputOpsS,
		UpdateP50Ns:    res.Update.P50Ns,
		UpdateP99Ns:    res.Update.P99Ns,
		BatchMean:      res.BatchMean,
		BatchP99:       res.BatchP99,
		Combines:       res.Combines,
		CombinedOps:    res.CombinedOps,
		ParallelOps:    inst.Stats().ParallelOps,
	}, nil
}

// runBatchLadder measures the four policy arms. With assertP99 > 0, a
// missing or under-formed adaptive arm (combiner_batch_p99 below the bar)
// is an error — the CI hook that keeps the batching engine from silently
// regressing to one-op rounds.
func runBatchLadder(cfg realConfig, assertP99 int) (*batchLadderReport, error) {
	cfg.normalize()
	cfg.ReadPct = 0 // all updates: only appends form batches
	cfg.Threads = batchThreads

	newMap := func() nr.Sequential[benchOp, uint64] { return &benchMap{m: make(map[uint64]uint64)} }
	newCells := func() nr.Sequential[benchOp, uint64] { return &benchCells{} }
	arms := []struct {
		arm, policy, structure string
		p                      nr.BatchPolicy
		create                 func() nr.Sequential[benchOp, uint64]
	}{
		{"none", "no linger", "map", nr.BatchNone(), newMap},
		{"fixed-linger", fmt.Sprintf("MinBatch=%d MaxLinger=%v", batchFixedMin, batchFixedLinger), "map",
			nr.BatchPolicy{MinBatch: batchFixedMin, MaxLinger: batchFixedLinger}, newMap},
		{"adaptive", "adaptive linger", "map", nr.BatchAdaptive(), newMap},
		{"parallel-combining", fmt.Sprintf("MaxLinger=%v Parallel", batchFixedLinger), "atomic-cells",
			nr.BatchPolicy{MaxLinger: batchFixedLinger, Parallel: true}, newCells},
	}

	rep := &batchLadderReport{
		ReadPct: cfg.ReadPct, Threads: cfg.Threads,
		Nodes: batchNodes, CoresPerNode: batchCores,
	}
	fmt.Printf("=== batch-policy ladder (all-update workload, %d threads on %dx%d) ===\n",
		cfg.Threads, batchNodes, batchCores)
	for _, a := range arms {
		m, err := measureBatchArm(cfg, a.arm, a.policy, a.structure, a.p, a.create)
		if err != nil {
			return nil, fmt.Errorf("batch arm %s: %w", a.arm, err)
		}
		rep.Arms = append(rep.Arms, m)
		fmt.Printf("%-18s %.2f Mops/s   batch mean=%.2f p99=%d over %d rounds",
			m.Arm, m.ThroughputOpsS/1e6, m.BatchMean, m.BatchP99, m.Combines)
		if m.ParallelOps > 0 {
			fmt.Printf("   parallel ops=%d", m.ParallelOps)
		}
		fmt.Println()
	}
	if assertP99 > 0 {
		a := rep.adaptiveArm()
		if a == nil {
			return nil, fmt.Errorf("batch ladder has no adaptive arm to assert on")
		}
		if a.BatchP99 < uint64(assertP99) {
			return nil, fmt.Errorf(
				"adaptive arm combiner_batch_p99 = %d, below the asserted floor %d: batches are not forming",
				a.BatchP99, assertP99)
		}
		fmt.Printf("assert: adaptive combiner_batch_p99 = %d >= %d ok\n", a.BatchP99, assertP99)
	}
	return rep, nil
}

// runBatchOnly is the standalone -batchcmp mode: just the ladder, with the
// report as the whole JSON document.
func runBatchOnly(cfg realConfig) error {
	rep, err := runBatchLadder(cfg, cfg.AssertBatchP99)
	if err != nil {
		return err
	}
	if cfg.JSONPath != "" {
		return writeJSON(cfg.JSONPath, struct {
			BatchLadder *batchLadderReport `json:"batch_ladder"`
		}{rep})
	}
	return nil
}
