// Cumulative bucket-level captures of the Metrics observer: the one way to
// read it. Snapshot summarizes a capture; the telemetry collector
// (internal/obs/tsdb) keeps one per cadence tick and subtracts consecutive
// captures to get per-window rates and tails, something a summary cannot
// provide (percentiles do not subtract; raw buckets do).
//
// Everything here is allocation-free after the first capture sized the
// per-node slice: a Cum is reused tick after tick, which is what lets the
// collector's hot path stay allocation-free.
package obs

import "github.com/asplos17/nr/internal/histogram"

// NodeCum is one node's slice of a Cum capture: its two latency histograms,
// its batch-size histogram and its combine time.
type NodeCum struct {
	Latency      [NumOpClasses]histogram.Cum
	Batch        histogram.Cum
	CombineNanos uint64
}

// Cum is a cumulative bucket-level capture of a whole Metrics observer:
// per-class latency and batch-size buckets merged across nodes, plus each
// node's own. Captures reuse the Nodes slice, so a Cum held across ticks
// costs one allocation ever.
type Cum struct {
	Latency [NumOpClasses]histogram.Cum
	Batch   histogram.Cum
	Nodes   []NodeCum
}

// ReadCum captures the observer's cumulative state into dst, resetting it
// first. The capture allocates only if dst.Nodes is too small for the
// observer's node count.
func (m *Metrics) ReadCum(dst *Cum) {
	for c := range dst.Latency {
		dst.Latency[c].Reset()
	}
	dst.Batch.Reset()
	if cap(dst.Nodes) < len(m.nodes) {
		dst.Nodes = make([]NodeCum, len(m.nodes))
	}
	dst.Nodes = dst.Nodes[:len(m.nodes)]
	for i := range m.nodes {
		n, d := &m.nodes[i], &dst.Nodes[i]
		*d = NodeCum{CombineNanos: n.combineNanos.Load()}
		for c := range n.latency {
			d.Latency[c].Add(&n.latency[c])
			dst.Latency[c].Add(&n.latency[c])
		}
		d.Batch.Add(&n.batch)
		dst.Batch.Add(&n.batch)
	}
}
