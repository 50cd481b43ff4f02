package obs

import (
	"sync/atomic"
	"time"

	"github.com/asplos17/nr/internal/histogram"
)

// Metrics is the built-in Observer: per-node, per-op-class latency
// histograms, combiner batch-size distributions, and counters for every
// hook event. All recording is lock-free; Snapshot may be called
// concurrently with recording.
type Metrics struct {
	nodes []nodeMetrics
}

// nodeMetrics aggregates one node's events. Histograms are embedded values
// so a Metrics is a single allocation per node.
type nodeMetrics struct {
	latency [NumOpClasses]histogram.Histogram
	batch   CountDist

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

// Nodes returns the number of nodes the observer tracks.
func (m *Metrics) Nodes() int { return len(m.nodes) }

// at returns the node's metrics, clamping out-of-range ids (node -1 is
// used by handles registered outside the topology) to node 0.
func (m *Metrics) at(node int) *nodeMetrics {
	if node < 0 || node >= len(m.nodes) {
		node = 0
	}
	return &m.nodes[node]
}

// CombineStart implements Observer. Round accounting happens in CombineEnd.
func (m *Metrics) CombineStart(node int) {}

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
	m.at(node).latency[class].Record(elapsed)
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

func latencySnapshot(h *histogram.Histogram) LatencySnapshot {
	return LatencySnapshot{
		Count:  h.Count(),
		MeanNs: uint64(h.Mean().Nanoseconds()),
		P50Ns:  uint64(h.Percentile(50).Nanoseconds()),
		P90Ns:  uint64(h.Percentile(90).Nanoseconds()),
		P99Ns:  uint64(h.Percentile(99).Nanoseconds()),
		MaxNs:  uint64(h.Max().Nanoseconds()),
	}
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

// Snapshot captures the current state. It is safe to call while events are
// still being recorded; counters are read individually, so the snapshot is
// only approximately a single instant (like core.Stats).
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	merged := [NumOpClasses]*histogram.Histogram{histogram.New(), histogram.New()}
	var batch CountDist
	for i := range m.nodes {
		n := &m.nodes[i]
		merged[OpRead].Merge(&n.latency[OpRead])
		merged[OpUpdate].Merge(&n.latency[OpUpdate])
		batch.Merge(&n.batch)
		s.Nodes = append(s.Nodes, NodeSnapshot{
			Node:             i,
			Read:             latencySnapshot(&n.latency[OpRead]),
			Update:           latencySnapshot(&n.latency[OpUpdate]),
			Batch:            n.batch.Snapshot(),
			CombineRounds:    n.combineRounds.Load(),
			CombineNanos:     n.combineNanos.Load(),
			ReaderRefreshes:  n.readerRefreshes.Load(),
			RefreshedEntries: n.refreshedEntries.Load(),
			Helps:            n.helps.Load(),
			HelpedEntries:    n.helpedEntries.Load(),
			TailRetryEvents:  n.tailRetryEvents.Load(),
			TailRetries:      n.tailRetries.Load(),
			WriterWaits:      n.writerWaits.Load(),
			WriterWaitSpins:  n.writerWaitSpins.Load(),
			Stalls:           n.stalls.Load(),
			Panics:           n.panics.Load(),
		})
	}
	s.Read = latencySnapshot(merged[OpRead])
	s.Update = latencySnapshot(merged[OpUpdate])
	s.Batch = batch.Snapshot()
	return s
}
