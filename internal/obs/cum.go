// Cumulative bucket-level captures of the Metrics observer, for consumers
// that need *windowed* views: the telemetry collector (internal/obs/tsdb)
// snapshots a Cum on every cadence tick and subtracts consecutive captures
// to get per-window rates and tail latencies, something the summary-only
// Snapshot cannot provide (percentiles do not subtract; raw buckets do).
//
// Everything here is allocation-free after the first capture sized the
// per-node slice: a Cum is reused tick after tick, which is what lets the
// collector's hot path stay //nr:noalloc.
package obs

import "github.com/asplos17/nr/internal/histogram"

// CountCum is a cumulative bucket-level capture of a CountDist, the
// CountDist analogue of histogram.Cum: plain copies of the power-of-two
// buckets plus total and sum. Two captures subtract bucket-wise into the
// distribution of the interval between them.
type CountCum struct {
	Counts [distBuckets]uint64
	Total  uint64
	Sum    uint64
}

// Reset empties c for reuse.
//
//nr:noalloc
func (c *CountCum) Reset() { *c = CountCum{} }

// Add accumulates d's current buckets into c (buckets read individually
// while recording continues, approximately one instant).
//
//nr:noalloc
func (c *CountCum) Add(d *CountDist) {
	for b := 0; b < distBuckets; b++ {
		c.Counts[b] += d.counts[b].Load()
	}
	c.Total += d.total.Load()
	c.Sum += d.sum.Load()
}

// CountDelta returns the number of observations between prev and cur
// (0 when the captures are misordered).
func CountDelta(cur, prev *CountCum) uint64 {
	if cur.Total < prev.Total {
		return 0
	}
	return cur.Total - prev.Total
}

// CountDeltaMean returns the mean observed value between prev and cur
// (0 with no observations).
func CountDeltaMean(cur, prev *CountCum) float64 {
	n := CountDelta(cur, prev)
	if n == 0 || cur.Sum < prev.Sum {
		return 0
	}
	return float64(cur.Sum-prev.Sum) / float64(n)
}

// CountDeltaPercentile returns a lower bound on the p-th percentile
// (0 < p <= 100) of the observations between the two captures.
//
//nr:noalloc
func CountDeltaPercentile(cur, prev *CountCum, p float64) uint64 {
	n := CountDelta(cur, prev)
	if n == 0 {
		return 0
	}
	rank := uint64(p / 100 * float64(n))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b := 0; b < distBuckets; b++ {
		c, pc := cur.Counts[b], prev.Counts[b]
		if c > pc {
			seen += c - pc
		}
		if seen >= rank {
			return bucketLow(b)
		}
	}
	return bucketLow(distBuckets - 1)
}

// NodeCum is one node's slice of a Cum capture: the cumulative counters a
// windowed view derives per-node rates from.
type NodeCum struct {
	// ReadOps/UpdateOps are the per-class operation totals (the latency
	// histograms' counts — one OpDone per completed operation).
	ReadOps   uint64
	UpdateOps uint64
	// CombineRounds/CombineNanos mirror the node's round counters.
	CombineRounds uint64
	CombineNanos  uint64
	// ReaderRefreshes counts reads that replayed the log themselves.
	ReaderRefreshes uint64
}

// Cum is a cumulative bucket-level capture of a whole Metrics observer:
// per-class latency buckets and the batch-size distribution merged across
// nodes, plus per-node counters. Captures reuse the Nodes slice, so a Cum
// held across ticks costs one allocation ever.
type Cum struct {
	Latency [NumOpClasses]histogram.Cum
	Batch   CountCum
	Nodes   []NodeCum
}

// ReadCum captures the observer's cumulative state into dst, resetting it
// first. The capture allocates only if dst.Nodes is too small for the
// observer's node count.
//
//nr:noalloc
func (m *Metrics) ReadCum(dst *Cum) {
	for c := range dst.Latency {
		dst.Latency[c].Reset()
	}
	dst.Batch.Reset()
	if cap(dst.Nodes) < len(m.nodes) {
		dst.Nodes = make([]NodeCum, len(m.nodes)) //nr:allocok sizes once, reused forever after
	}
	dst.Nodes = dst.Nodes[:len(m.nodes)]
	for i := range m.nodes {
		n := &m.nodes[i]
		dst.Latency[OpRead].Add(&n.latency[OpRead])
		dst.Latency[OpUpdate].Add(&n.latency[OpUpdate])
		dst.Batch.Add(&n.batch)
		dst.Nodes[i] = NodeCum{
			ReadOps:         n.latency[OpRead].Count(),
			UpdateOps:       n.latency[OpUpdate].Count(),
			CombineRounds:   n.combineRounds.Load(),
			CombineNanos:    n.combineNanos.Load(),
			ReaderRefreshes: n.readerRefreshes.Load(),
		}
	}
}

// AddCum accumulates src into dst field-wise (latency and batch buckets
// added, per-node counters added index-wise, dst.Nodes grown as needed) —
// the merge a sharded instance uses to fold S per-shard observers into one
// windowed view. Unlike ReadCum it does not reset dst first.
func AddCum(dst, src *Cum) {
	for c := range dst.Latency {
		for i := range dst.Latency[c].Counts {
			dst.Latency[c].Counts[i] += src.Latency[c].Counts[i]
		}
		dst.Latency[c].Total += src.Latency[c].Total
		dst.Latency[c].Sum += src.Latency[c].Sum
	}
	for b := range dst.Batch.Counts {
		dst.Batch.Counts[b] += src.Batch.Counts[b]
	}
	dst.Batch.Total += src.Batch.Total
	dst.Batch.Sum += src.Batch.Sum
	if len(dst.Nodes) < len(src.Nodes) {
		if cap(dst.Nodes) < len(src.Nodes) {
			grown := make([]NodeCum, len(src.Nodes)) //nr:allocok sizes once, reused forever after
			copy(grown, dst.Nodes)
			dst.Nodes = grown
		} else {
			// Reuse capacity; the tail holds values from a prior window and
			// must be zeroed before the index-wise += below.
			tail := dst.Nodes[len(dst.Nodes):len(src.Nodes)]
			for i := range tail {
				tail[i] = NodeCum{}
			}
			dst.Nodes = dst.Nodes[:len(src.Nodes)]
		}
	}
	for i := range src.Nodes {
		d, s := &dst.Nodes[i], &src.Nodes[i]
		d.ReadOps += s.ReadOps
		d.UpdateOps += s.UpdateOps
		d.CombineRounds += s.CombineRounds
		d.CombineNanos += s.CombineNanos
		d.ReaderRefreshes += s.ReaderRefreshes
	}
}
