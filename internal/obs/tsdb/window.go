// Window derivation: turning two adjacent cumulative captures into one
// per-interval view. This is the cold read path — it allocates freely.
package tsdb

import (
	"time"

	"github.com/asplos17/nr/internal/histogram"
	"github.com/asplos17/nr/internal/obs"
)

// NodeWindow is one node's slice of a Window.
type NodeWindow struct {
	Node            int     `json:"node"`
	ReadOpsPerSec   float64 `json:"read_ops_per_sec"`
	UpdateOpsPerSec float64 `json:"update_ops_per_sec"`
	CombinesPerSec  float64 `json:"combines_per_sec"`
	// CombineBusyFrac is the fraction of the window the node's combiners
	// spent inside rounds (combine nanoseconds over wall nanoseconds).
	CombineBusyFrac      float64 `json:"combine_busy_frac"`
	ReaderRefreshPerSec  float64 `json:"reader_refresh_per_sec"`
	ReaderAcquiresPerSec float64 `json:"reader_acquires_per_sec"`
	// CompletedLag is the node's replica lag at the window's end.
	CompletedLag uint64 `json:"completed_lag"`
}

// Window is one derived interval: rates from counter deltas, percentiles
// from bucket deltas, instant gauges from the interval's closing capture.
type Window struct {
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Seconds float64   `json:"seconds"`

	OpsPerSec       float64 `json:"ops_per_sec"`
	ReadOpsPerSec   float64 `json:"read_ops_per_sec"`
	UpdateOpsPerSec float64 `json:"update_ops_per_sec"`
	CombinesPerSec  float64 `json:"combines_per_sec"`

	// Batch distribution of the window's combining rounds.
	BatchMean float64 `json:"batch_mean"`
	BatchP50  uint64  `json:"batch_p50"`
	BatchP99  uint64  `json:"batch_p99"`

	// Per-class latency tails over the window, nanoseconds.
	ReadP50Ns    uint64 `json:"read_p50_ns"`
	ReadP99Ns    uint64 `json:"read_p99_ns"`
	ReadP999Ns   uint64 `json:"read_p999_ns"`
	UpdateP50Ns  uint64 `json:"update_p50_ns"`
	UpdateP99Ns  uint64 `json:"update_p99_ns"`
	UpdateP999Ns uint64 `json:"update_p999_ns"`

	ReaderRefreshPerSec  float64 `json:"reader_refresh_per_sec"`
	ReaderAcquiresPerSec float64 `json:"reader_acquires_per_sec"`

	// Instant gauges at the window's end.
	LogOccupancy  float64 `json:"log_occupancy"`
	MaxReplicaLag uint64  `json:"max_replica_lag"`

	// WAL rates and state; zero unless the instance is durable.
	HasWAL           bool    `json:"has_wal"`
	WALAppendsPerSec float64 `json:"wal_appends_per_sec"`
	WALFsyncsPerSec  float64 `json:"wal_fsyncs_per_sec"`
	// FsyncMeanNs is the mean fsync latency of the window's fsyncs.
	FsyncMeanNs uint64 `json:"fsync_mean_ns"`
	DurableLag  uint64 `json:"durable_lag"`

	Nodes []NodeWindow `json:"nodes,omitempty"`
}

// replica returns node's slice of the capture, nil when it has none.
func (g *Gauges) replica(node int) *ReplicaGauge {
	for i := range g.Replicas {
		if g.Replicas[i].Node == node {
			return &g.Replicas[i]
		}
	}
	return nil
}

// rate divides a counter delta by the window length, clamping misordered
// captures (counter reset, racy reads) to 0.
func rate(cur, prev uint64, secs float64) float64 {
	if secs <= 0 || cur < prev {
		return 0
	}
	return float64(cur-prev) / secs
}

// deriveWindow builds the window between two adjacent captures.
func deriveWindow(prev, cur *sample) Window {
	secs := cur.when.Sub(prev.when).Seconds()
	w := Window{
		Start:   prev.when,
		End:     cur.when,
		Seconds: secs,

		ReadOpsPerSec:   rate(cur.g.ReadOps, prev.g.ReadOps, secs),
		UpdateOpsPerSec: rate(cur.g.UpdateOps, prev.g.UpdateOps, secs),
		CombinesPerSec:  rate(cur.g.Combines, prev.g.Combines, secs),

		ReaderRefreshPerSec:  rate(cur.g.ReaderRefreshes, prev.g.ReaderRefreshes, secs),
		ReaderAcquiresPerSec: rate(cur.g.ReaderAcquires, prev.g.ReaderAcquires, secs),

		LogOccupancy:  cur.g.LogOccupancy,
		MaxReplicaLag: cur.g.MaxReplicaLag,
	}
	w.OpsPerSec = w.ReadOpsPerSec + w.UpdateOpsPerSec

	b, bp := &cur.cum.Batch, &prev.cum.Batch
	if n := histogram.DeltaCount(b, bp); n > 0 && b.Sum >= bp.Sum {
		w.BatchMean = float64(b.Sum-bp.Sum) / float64(n)
	}
	w.BatchP50 = histogram.DeltaPercentile(b, bp, 50)
	w.BatchP99 = histogram.DeltaPercentile(b, bp, 99)

	rd, up := &cur.cum.Latency[obs.OpRead], &cur.cum.Latency[obs.OpUpdate]
	rdp, upp := &prev.cum.Latency[obs.OpRead], &prev.cum.Latency[obs.OpUpdate]
	w.ReadP50Ns = histogram.DeltaPercentile(rd, rdp, 50)
	w.ReadP99Ns = histogram.DeltaPercentile(rd, rdp, 99)
	w.ReadP999Ns = histogram.DeltaPercentile(rd, rdp, 99.9)
	w.UpdateP50Ns = histogram.DeltaPercentile(up, upp, 50)
	w.UpdateP99Ns = histogram.DeltaPercentile(up, upp, 99)
	w.UpdateP999Ns = histogram.DeltaPercentile(up, upp, 99.9)

	if cur.g.HasWAL {
		w.HasWAL = true
		w.WALAppendsPerSec = rate(cur.g.WALAppends, prev.g.WALAppends, secs)
		w.WALFsyncsPerSec = rate(cur.g.WALFsyncs, prev.g.WALFsyncs, secs)
		if df := cur.g.WALFsyncs - prev.g.WALFsyncs; cur.g.WALFsyncs > prev.g.WALFsyncs && cur.g.WALFsyncNanos >= prev.g.WALFsyncNanos {
			w.FsyncMeanNs = (cur.g.WALFsyncNanos - prev.g.WALFsyncNanos) / df
		}
		w.DurableLag = cur.g.DurableLag
	}

	// Per-node: combine time from the observer capture; counter rates and
	// lag (from the closing capture) from the replica gauges, which count
	// every event exactly — the latency histograms hold only sampled ops,
	// so their counts are no op rate.
	for i := range cur.cum.Nodes {
		cn := &cur.cum.Nodes[i]
		nw := NodeWindow{Node: i}
		if i < len(prev.cum.Nodes) {
			pn := &prev.cum.Nodes[i]
			if wall := secs * 1e9; wall > 0 && cn.CombineNanos >= pn.CombineNanos {
				nw.CombineBusyFrac = float64(cn.CombineNanos-pn.CombineNanos) / wall
			}
		}
		if rg := cur.g.replica(i); rg != nil {
			nw.CompletedLag = rg.CompletedLag
			if pg := prev.g.replica(i); pg != nil {
				nw.ReadOpsPerSec = rate(rg.ReadOps, pg.ReadOps, secs)
				nw.UpdateOpsPerSec = rate(rg.UpdateOps, pg.UpdateOps, secs)
				nw.CombinesPerSec = rate(rg.Combines, pg.Combines, secs)
				nw.ReaderRefreshPerSec = rate(rg.ReaderRefreshes, pg.ReaderRefreshes, secs)
				nw.ReaderAcquiresPerSec = rate(rg.ReaderAcquires, pg.ReaderAcquires, secs)
			}
		}
		w.Nodes = append(w.Nodes, nw)
	}
	return w
}

// Snapshot derives every retained window, oldest first. Allocates; cold
// read path.
func (c *Collector) Snapshot() []Window {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n < 2 {
		return nil
	}
	out := make([]Window, 0, c.n-1)
	// Oldest valid sample sits at head-n (mod ring).
	start := c.head - c.n
	for start < 0 {
		start += len(c.samples)
	}
	for k := 0; k < c.n-1; k++ {
		p := (start + k) % len(c.samples)
		q := (start + k + 1) % len(c.samples)
		out = append(out, deriveWindow(&c.samples[p], &c.samples[q]))
	}
	return out
}

// Last derives the most recent window; ok is false until two captures
// exist.
func (c *Collector) Last() (Window, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n < 2 {
		return Window{}, false
	}
	q := c.head - 1
	if q < 0 {
		q += len(c.samples)
	}
	p := q - 1
	if p < 0 {
		p += len(c.samples)
	}
	return deriveWindow(&c.samples[p], &c.samples[q]), true
}
