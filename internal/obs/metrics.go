package obs

import (
	"sync/atomic"
	"time"

	"github.com/asplos17/nr/internal/histogram"
)

// Metrics is the built-in Observer: per-node histograms of operation
// latency (one per op class, over the sampled ops OpDone reports) and
// combiner batch size (every round), and counters for every hook event. All recording is lock-free; ReadCum and Snapshot may be called
// concurrently with recording.
type Metrics struct {
	nodes []nodeMetrics
}

// nodeMetrics aggregates one node's events. Histograms are embedded values
// so a Metrics is a single allocation per node.
type nodeMetrics struct {
	latency [NumOpClasses]histogram.Histogram
	batch   histogram.Histogram

	combineRounds    atomic.Uint64
	combineNanos     atomic.Uint64
	readerRefreshes  atomic.Uint64
	refreshedEntries atomic.Uint64
	helps            atomic.Uint64
	helpedEntries    atomic.Uint64
	tailRetryEvents  atomic.Uint64
	tailRetries      atomic.Uint64
	writerWaits      atomic.Uint64
	writerWaitSpins  atomic.Uint64
	stalls           atomic.Uint64
	panics           atomic.Uint64
}

// NewMetrics returns a Metrics observer for a topology with the given
// number of NUMA nodes.
func NewMetrics(nodes int) *Metrics {
	if nodes < 1 {
		nodes = 1
	}
	return &Metrics{nodes: make([]nodeMetrics, nodes)}
}

// at returns the node's metrics, clamping out-of-range ids (node -1 is
// used by handles registered outside the topology) to node 0.
func (m *Metrics) at(node int) *nodeMetrics {
	if node < 0 || node >= len(m.nodes) {
		node = 0
	}
	return &m.nodes[node]
}

// CombineEnd implements Observer. Rounds that collected nothing count
// toward combineRounds but not the batch distribution, so the distribution
// describes batch sizes of rounds that did work (its Count matches
// core.Stats.Combines, its Sum matches CombinedOps). appended always equals
// batch, so it gets no distribution of its own.
func (m *Metrics) CombineEnd(node, batch, _ int, elapsed time.Duration) {
	n := m.at(node)
	n.combineRounds.Add(1)
	n.combineNanos.Add(uint64(elapsed.Nanoseconds()))
	if batch > 0 {
		n.batch.Record(uint64(batch))
	}
}

// ReaderRefresh implements Observer.
func (m *Metrics) ReaderRefresh(node, entries int) {
	n := m.at(node)
	n.readerRefreshes.Add(1)
	n.refreshedEntries.Add(uint64(entries))
}

// Help implements Observer.
func (m *Metrics) Help(node, entries int) {
	n := m.at(node)
	n.helps.Add(1)
	n.helpedEntries.Add(uint64(entries))
}

// LogTailRetry implements Observer.
func (m *Metrics) LogTailRetry(node, retries int) {
	n := m.at(node)
	n.tailRetryEvents.Add(1)
	n.tailRetries.Add(uint64(retries))
}

// WriterWait implements Observer.
func (m *Metrics) WriterWait(node, spins int) {
	n := m.at(node)
	n.writerWaits.Add(1)
	n.writerWaitSpins.Add(uint64(spins))
}

// Stall implements Observer.
func (m *Metrics) Stall(node int, held time.Duration) {
	m.at(node).stalls.Add(1)
}

// PanicContained implements Observer.
func (m *Metrics) PanicContained(node int, idx uint64) {
	m.at(node).panics.Add(1)
}

// OpDone implements Observer.
func (m *Metrics) OpDone(node int, class OpClass, elapsed time.Duration) {
	if class >= NumOpClasses {
		class = OpUpdate
	}
	m.at(node).latency[class].Record(uint64(elapsed.Nanoseconds()))
}

// LatencySnapshot summarizes one latency histogram. Durations are reported
// in nanoseconds so the struct marshals cleanly to JSON.
type LatencySnapshot struct {
	Count  uint64 `json:"count"`
	MeanNs uint64 `json:"mean_ns"`
	P50Ns  uint64 `json:"p50_ns"`
	P90Ns  uint64 `json:"p90_ns"`
	P99Ns  uint64 `json:"p99_ns"`
	MaxNs  uint64 `json:"max_ns"`
}

// DistSnapshot summarizes the batch-size histogram.
type DistSnapshot struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P99   uint64  `json:"p99"`
	Max   uint64  `json:"max"`
}

// lifetime is the empty capture percentiles are taken against: the delta
// from nothing is the whole history.
var lifetime histogram.Cum

func latencySnapshot(c *histogram.Cum) LatencySnapshot {
	s := LatencySnapshot{
		Count: c.Total,
		P50Ns: histogram.DeltaPercentile(c, &lifetime, 50),
		P90Ns: histogram.DeltaPercentile(c, &lifetime, 90),
		P99Ns: histogram.DeltaPercentile(c, &lifetime, 99),
		MaxNs: c.Max,
	}
	if c.Total > 0 {
		s.MeanNs = c.Sum / c.Total
	}
	return s
}

func distSnapshot(c *histogram.Cum) DistSnapshot {
	s := DistSnapshot{
		Count: c.Total,
		P50:   histogram.DeltaPercentile(c, &lifetime, 50),
		P99:   histogram.DeltaPercentile(c, &lifetime, 99),
		Max:   c.Max,
	}
	if c.Total > 0 {
		s.Mean = float64(c.Sum) / float64(c.Total)
	}
	return s
}

// NodeSnapshot is one node's slice of a Snapshot.
type NodeSnapshot struct {
	Node   int             `json:"node"`
	Read   LatencySnapshot `json:"read"`
	Update LatencySnapshot `json:"update"`
	// Batch is the distribution of combiner batch sizes on this node.
	Batch DistSnapshot `json:"batch"`

	CombineRounds    uint64 `json:"combine_rounds"`
	CombineNanos     uint64 `json:"combine_ns"`
	ReaderRefreshes  uint64 `json:"reader_refreshes"`
	RefreshedEntries uint64 `json:"refreshed_entries"`
	Helps            uint64 `json:"helps"`
	HelpedEntries    uint64 `json:"helped_entries"`
	TailRetryEvents  uint64 `json:"tail_retry_events"`
	TailRetries      uint64 `json:"tail_retries"`
	WriterWaits      uint64 `json:"writer_waits"`
	WriterWaitSpins  uint64 `json:"writer_wait_spins"`
	Stalls           uint64 `json:"stalls"`
	Panics           uint64 `json:"panics"`
}

// Snapshot is a point-in-time read-out of a Metrics observer: per-node
// detail plus Read/Update latency merged across all nodes.
type Snapshot struct {
	Read   LatencySnapshot `json:"read"`
	Update LatencySnapshot `json:"update"`
	Batch  DistSnapshot    `json:"batch"`
	Nodes  []NodeSnapshot  `json:"nodes"`
}

// Snapshot summarizes one ReadCum capture. It is safe to call while events
// are still being recorded; counters are read individually, so the snapshot
// is only approximately a single instant (like core.Stats).
func (m *Metrics) Snapshot() Snapshot {
	var c Cum
	m.ReadCum(&c)
	s := Snapshot{
		Read:   latencySnapshot(&c.Latency[OpRead]),
		Update: latencySnapshot(&c.Latency[OpUpdate]),
		Batch:  distSnapshot(&c.Batch),
		Nodes:  make([]NodeSnapshot, len(c.Nodes)),
	}
	for i := range c.Nodes {
		n := &c.Nodes[i]
		s.Nodes[i] = NodeSnapshot{
			Node:             i,
			Read:             latencySnapshot(&n.Latency[OpRead]),
			Update:           latencySnapshot(&n.Latency[OpUpdate]),
			Batch:            distSnapshot(&n.Batch),
			CombineRounds:    n.CombineRounds,
			CombineNanos:     n.CombineNanos,
			ReaderRefreshes:  n.ReaderRefreshes,
			RefreshedEntries: n.RefreshedEntries,
			Helps:            n.Helps,
			HelpedEntries:    n.HelpedEntries,
			TailRetryEvents:  n.TailRetryEvents,
			TailRetries:      n.TailRetries,
			WriterWaits:      n.WriterWaits,
			WriterWaitSpins:  n.WriterWaitSpins,
			Stalls:           n.Stalls,
			Panics:           n.Panics,
		}
	}
	return s
}
