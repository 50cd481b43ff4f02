package obs

import (
	"sync/atomic"
	"time"

	"github.com/asplos17/nr/internal/histogram"
)

// Metrics is the built-in Observer: per-node histograms of operation
// latency (one per op class, over the sampled ops OpDone reports) and
// combiner batch size (every non-empty round), and per-node combine time.
// It keeps only what needs an event's clock or size; the event counts are
// core's (Stats, ReplicaGauges), so the two contention hooks (LogTailRetry,
// WriterWait) fall through to the embedded Nop. All recording is
// lock-free; ReadCum and Snapshot may be called concurrently with
// recording.
type Metrics struct {
	Nop
	nodes []nodeMetrics
}

// nodeMetrics aggregates one node's events. Histograms are embedded values
// so a Metrics is a single allocation per node.
type nodeMetrics struct {
	latency      [NumOpClasses]histogram.Histogram
	batch        histogram.Histogram
	combineNanos atomic.Uint64
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

// CombineEnd implements Observer. Every round's duration counts toward the
// node's combine time; only rounds that collected something enter the
// batch distribution, so its Count matches core.Stats.Combines and its Sum
// CombinedOps. appended always equals batch, so it gets no distribution of
// its own.
func (m *Metrics) CombineEnd(node, batch, _ int, elapsed time.Duration) {
	n := m.at(node)
	n.combineNanos.Add(uint64(elapsed.Nanoseconds()))
	if batch > 0 {
		n.batch.Record(uint64(batch))
	}
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
	// CombineNanos is the time the node's combiners spent inside rounds.
	CombineNanos uint64 `json:"combine_ns"`
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
// are still being recorded; nodes are read one after another, so the
// snapshot is only approximately a single instant (like core.Stats).
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
			Node:         i,
			Read:         latencySnapshot(&n.Latency[OpRead]),
			Update:       latencySnapshot(&n.Latency[OpUpdate]),
			Batch:        distSnapshot(&n.Batch),
			CombineNanos: n.CombineNanos,
		}
	}
	return s
}
