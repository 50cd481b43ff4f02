// Package bench regenerates every table and figure of the paper's
// evaluation (§8). Each Figure names the experiment, describes the workload
// (data-structure profile, update ratio, key distribution, external work),
// and produces the same series the paper plots: throughput in operations
// per microsecond versus thread count (or versus c, e, n where the paper
// sweeps those instead).
//
// The thread sweeps run on the simulated NUMA machine (internal/sim) — the
// substitution for the paper's 4-socket testbed — while the memory tables
// (Fig. 5f, 6c, 7e) measure the real implementation. Measured throughput of
// the real implementation comes from the benchmark/ package alone.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/asplos17/nr/internal/sim"
	"github.com/asplos17/nr/internal/topology"
)

// Point is one measurement: throughput at a given x (threads, c, e, or n).
type Point struct {
	X        int
	OpsPerUs float64
}

// Series is one method's curve.
type Series struct {
	Method string
	Points []Point
}

// Config scales and targets a run.
type Config struct {
	// Topo is the simulated machine (default: the paper's Intel box).
	Topo topology.Topology
	// Cost is the coherence cost model (default: IntelCosts).
	Cost sim.CostModel
	// OpsPerThread trades accuracy for wall-clock time (default 1500).
	OpsPerThread int
	// Threads overrides the sweep points (default: node-boundary sweep).
	Threads []int
}

func (c Config) withDefaults() Config {
	if c.Topo == (topology.Topology{}) {
		c.Topo = topology.Intel4x14x2()
	}
	if c.Cost == (sim.CostModel{}) {
		c.Cost = sim.IntelCosts()
	}
	if c.OpsPerThread == 0 {
		c.OpsPerThread = 1500
	}
	if len(c.Threads) == 0 {
		c.Threads = defaultSweep(c.Topo)
	}
	return c
}

// defaultSweep samples thread counts emphasizing node boundaries, as the
// paper's x axes do.
func defaultSweep(t topology.Topology) []int {
	tpn := t.ThreadsPerNode()
	set := map[int]bool{1: true}
	for n := 1; n <= t.Nodes(); n++ {
		set[n*tpn] = true
		if half := n*tpn - tpn/2; half >= 1 {
			set[half] = true
		}
	}
	var out []int
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Figure is one reproducible experiment.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	Unit   string // of the y values: "ops/us" unless the registry says otherwise
	Run    func(cfg Config) []Series
}

// Profiles for the paper's data structures, in simulator terms. The
// constants were calibrated so that single-thread costs and contention
// behaviour reproduce the relative shapes of §8; see EXPERIMENTS.md.
var (
	// SkipListPQ: findMin reads the head (always hot); deleteMin (half the
	// updates) unlinks at the head; inserts traverse ~O(log n) lines.
	SkipListPQ = sim.Profile{
		NLines: 20000, UpdateCLines: 8, ReadCLines: 2, UpdateNs: 60, ReadNs: 20,
		UpdateHotPermille: 500, ReadHotPermille: 1000, HotLines: 1, HotPathLines: 4,
	}
	// PairingHeapPQ: same access pattern, slightly cheaper sequential work
	// (§8.1.2: "the sequential data structure is more efficient").
	PairingHeapPQ = sim.Profile{
		NLines: 20000, UpdateCLines: 6, ReadCLines: 2, UpdateNs: 40, ReadNs: 15,
		UpdateHotPermille: 500, ReadHotPermille: 1000, HotLines: 1, HotPathLines: 4,
	}
	// DictUniform: uniform keys — low contention, O(log n) traversals.
	DictUniform = sim.Profile{
		NLines: 20000, UpdateCLines: 14, ReadCLines: 14, UpdateNs: 120, ReadNs: 90,
	}
	// DictZipf: zipf(1.5) keys — over half the operations land on the top
	// keys, whose search paths share a couple of cache lines; lock-free
	// updates rewrite several tower links there (LFWriteLines).
	DictZipf = sim.Profile{
		NLines: 20000, UpdateCLines: 14, ReadCLines: 14, UpdateNs: 120, ReadNs: 90,
		UpdateHotPermille: 550, ReadHotPermille: 550, HotLines: 2, HotPathLines: 16,
		LFWriteLines: 10,
	}
	// Stack: every op hits the top pointer; no reads.
	Stack = sim.Profile{
		NLines: 4096, UpdateCLines: 2, ReadCLines: 1, UpdateNs: 15, ReadNs: 10,
		UpdateHotPermille: 1000, ReadHotPermille: 1000, HotLines: 1, HotPathLines: 2,
	}
	// Redis sorted set (§8.3): ZRANK = hash lookup + skip-list rank walk;
	// ZINCRBY additionally deletes and reinserts in the skip list. 10K
	// items, uniform members.
	RedisZSet = sim.Profile{
		NLines: 10000, UpdateCLines: 18, ReadCLines: 12, UpdateNs: 250, ReadNs: 150,
	}
)

// Synthetic returns the §8.2 buffer profile with n entries and c lines per
// operation.
func Synthetic(n, c int) sim.Profile {
	return sim.Profile{
		NLines: n, UpdateCLines: c, ReadCLines: c, UpdateNs: 20, ReadNs: 20,
		UpdateHotPermille: 1000, ReadHotPermille: 1000, HotLines: 1, HotPathLines: 1,
	}
}

// methodRunner names one concurrency method and how to simulate it.
type methodRunner struct {
	name string
	run  func(s *sim.Sim, p sim.Profile, r sim.Run) sim.Result
}

func methodSet(names ...string) []methodRunner {
	all := map[string]methodRunner{
		"NR": {"NR", func(s *sim.Sim, p sim.Profile, r sim.Run) sim.Result {
			return sim.RunNR(s, p, r, sim.NROpts{})
		}},
		"SL":  {"SL", sim.RunSL},
		"RWL": {"RWL", sim.RunRWL},
		"FC": {"FC", func(s *sim.Sim, p sim.Profile, r sim.Run) sim.Result {
			return sim.RunFC(s, p, r, false)
		}},
		"FC+": {"FC+", func(s *sim.Sim, p sim.Profile, r sim.Run) sim.Result {
			return sim.RunFC(s, p, r, true)
		}},
		"LF": {"LF", sim.RunLF},
		"NA": {"NA", func(s *sim.Sim, p sim.Profile, r sim.Run) sim.Result {
			return sim.RunNA(s, p, r, 950)
		}},
	}
	out := make([]methodRunner, 0, len(names))
	for _, n := range names {
		m, ok := all[n]
		if !ok {
			panic("bench: unknown method " + n)
		}
		out = append(out, m)
	}
	return out
}

// threadSweep runs the given methods over the thread sweep.
func threadSweep(cfg Config, p sim.Profile, updatePermille int, extNs uint64, methods []methodRunner) []Series {
	cfg = cfg.withDefaults()
	out := make([]Series, len(methods))
	for mi, m := range methods {
		out[mi].Method = m.name
		for _, thr := range cfg.Threads {
			s := sim.New(cfg.Topo, cfg.Cost)
			res := m.run(s, p, sim.Run{
				Threads:        thr,
				OpsPerThread:   cfg.OpsPerThread,
				UpdatePermille: updatePermille,
				ExternalWorkNs: extNs,
			})
			out[mi].Points = append(out[mi].Points, Point{X: thr, OpsPerUs: res.OpsPerUs()})
		}
	}
	return out
}

// Print renders series as an aligned text table, one row per x value.
func Print(w io.Writer, xLabel string, series []Series) {
	if len(series) == 0 {
		return
	}
	fmt.Fprintf(w, "%-8s", xLabel)
	for _, s := range series {
		fmt.Fprintf(w, " %10s", s.Method)
	}
	fmt.Fprintln(w)
	for i := range series[0].Points {
		fmt.Fprintf(w, "%-8d", series[0].Points[i].X)
		for _, s := range series {
			if i < len(s.Points) {
				fmt.Fprintf(w, " %10.2f", s.Points[i].OpsPerUs)
			} else {
				fmt.Fprintf(w, " %10s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// Summarize reports, for the largest x, how NR compares to every other
// method — the "NR is better than ... by ..." sentences of §8 — in f's x
// label and unit.
func Summarize(f Figure, series []Series) string {
	var nr *Series
	for i := range series {
		if series[i].Method == "NR" {
			nr = &series[i]
		}
	}
	if nr == nil || len(nr.Points) == 0 {
		return ""
	}
	last := nr.Points[len(nr.Points)-1]
	var b strings.Builder
	fmt.Fprintf(&b, "at %s=%d: NR=%.2f %s", f.XLabel, last.X, last.OpsPerUs, f.Unit)
	for _, s := range series {
		if s.Method == "NR" || len(s.Points) == 0 {
			continue
		}
		other := s.Points[len(s.Points)-1].OpsPerUs
		if other <= 0 {
			continue
		}
		fmt.Fprintf(&b, ", %.1fx vs %s", last.OpsPerUs/other, s.Method)
	}
	return b.String()
}
