// Package obs is NR's observability layer: a zero-allocation event hook
// interface (Observer) that internal/core fires protocol events into (all
// nine hooks, the log's and the lock's included: neither internal/log nor
// internal/rwlock imports this package), plus a built-in Metrics observer
// that turns those events into per-node latency histograms, combiner
// batch-size distributions, and event counters.
//
// The paper's argument for NR is quantitative — batch sizes, log occupancy,
// and the read/update latency split explain why NR wins (§6, §8) — so the
// hooks cover exactly the events those quantities are made of:
//
//   - CombineStart / CombineEnd: one flat-combining round on a node, with
//     the batch size, the number of log entries appended, and its duration.
//   - ReaderRefresh: a reader found its replica stale and replayed log
//     entries itself (the §5.3 read path's slow case).
//   - Help: a blocked appender or the stall watchdog replayed entries into
//     another node's replica (the §6 inactive-replica defense).
//   - LogTailRetry: failed CAS attempts on the shared log tail — the only
//     cross-node contention point of the update path (§5.1).
//   - WriterWait: a replica writer spun waiting for the distributed
//     readers-writer lock's reader flags to drain (§5.5).
//   - Stall: the watchdog flagged a combiner holding its lock past the
//     configured threshold (§6's stalled-thread hazard).
//   - PanicContained: a user Execute panic was contained (failure model).
//   - OpDone: one operation completed, classified read/update, with its
//     end-to-end latency as seen by the submitting thread.
//
// Every method takes only scalar arguments so that firing an event never
// allocates; a disabled observer costs the caller a single nil check.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// OpClass classifies a completed operation for latency accounting.
type OpClass uint8

const (
	// OpRead is an operation served on the local-replica read path. This
	// includes "fake updates" (§6) that a FakeUpdater resolved as reads.
	OpRead OpClass = iota
	// OpUpdate is an operation that went through the shared log.
	OpUpdate
	// NumOpClasses is the number of operation classes.
	NumOpClasses
)

// String names the class for reports.
func (c OpClass) String() string {
	switch c {
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	}
	return "unknown"
}

// Observer receives NR protocol events. Implementations must be safe for
// concurrent use from many goroutines and must not block: hooks fire from
// the middle of the combining and read paths. Node arguments identify the
// replica the event concerns (for Help, the node being helped, not the
// helper). All arguments are scalars; a call site never allocates.
type Observer interface {
	// CombineStart fires when a combiner begins a combining round on node.
	CombineStart(node int)
	// CombineEnd fires when the round finishes: batch ops were collected
	// from the node's slots, appended log entries were reserved+filled
	// (always equal to batch: every collected op gets one entry), taking
	// elapsed overall.
	CombineEnd(node, batch, appended int, elapsed time.Duration)
	// ReaderRefresh fires when a reader replayed entries log entries into
	// its own replica because no combiner was active to do it.
	ReaderRefresh(node, entries int)
	// Help fires when some thread replayed entries log entries into
	// another node's replica (node is the helped replica).
	Help(node, entries int)
	// LogTailRetry fires when a log-tail reservation lost retries CAS
	// attempts before succeeding or giving up (node is the reserver's).
	LogTailRetry(node, retries int)
	// WriterWait fires when acquiring a replica's writer lock had to spin
	// for reader flags to drain; spins counts scheduler yields.
	WriterWait(node, spins int)
	// Stall fires when the watchdog flags node's combiner lock as held
	// longer than the stall threshold (once per acquisition).
	Stall(node int, held time.Duration)
	// PanicContained fires when a user Execute panic was contained while
	// applying log index idx on node (idx == ^uint64(0) for the read path).
	PanicContained(node int, idx uint64)
	// OpDone fires once per completed operation on the submitting thread's
	// node, with the end-to-end latency the submitter observed.
	OpDone(node int, class OpClass, elapsed time.Duration)
}

// distBuckets is the number of power-of-two buckets in a CountDist: bucket
// b counts values v with bits.Len64(v) == b, i.e. 0, 1, 2–3, 4–7, ...
// 32 buckets cover every count that fits in 31 bits.
const distBuckets = 32

// CountDist is a lock-free distribution over small non-negative integer
// quantities (batch sizes, retry counts): power-of-two buckets plus exact
// total/sum/max. The zero value is ready to use.
type CountDist struct {
	counts [distBuckets]atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
}

// Record adds one observation of value v.
//
//nr:noalloc
func (d *CountDist) Record(v uint64) {
	b := bits.Len64(v)
	if b >= distBuckets {
		b = distBuckets - 1
	}
	d.counts[b].Add(1)
	d.total.Add(1)
	d.sum.Add(v)
	for {
		cur := d.max.Load()
		if v <= cur || d.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (d *CountDist) Count() uint64 { return d.total.Load() }

// Sum returns the sum of all observed values.
func (d *CountDist) Sum() uint64 { return d.sum.Load() }

// Max returns the largest observed value.
func (d *CountDist) Max() uint64 { return d.max.Load() }

// Mean returns the mean observed value (0 with no observations).
func (d *CountDist) Mean() float64 {
	n := d.total.Load()
	if n == 0 {
		return 0
	}
	return float64(d.sum.Load()) / float64(n)
}

// bucketLow returns the smallest value bucket b counts.
func bucketLow(b int) uint64 {
	if b == 0 {
		return 0
	}
	return 1 << (b - 1)
}

// Percentile returns a lower bound on the p-th percentile (0 < p <= 100):
// the lower edge of the bucket containing the rank, which for power-of-two
// buckets is within 2x of the true value.
func (d *CountDist) Percentile(p float64) uint64 {
	n := d.total.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(p / 100 * float64(n))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b := 0; b < distBuckets; b++ {
		seen += d.counts[b].Load()
		if seen >= rank {
			return bucketLow(b)
		}
	}
	return d.Max()
}

// Merge folds other into d.
func (d *CountDist) Merge(other *CountDist) {
	for b := 0; b < distBuckets; b++ {
		if c := other.counts[b].Load(); c > 0 {
			d.counts[b].Add(c)
		}
	}
	d.total.Add(other.total.Load())
	d.sum.Add(other.sum.Load())
	for {
		cur, o := d.max.Load(), other.max.Load()
		if o <= cur || d.max.CompareAndSwap(cur, o) {
			return
		}
	}
}

// DistSnapshot is a point-in-time summary of a CountDist.
type DistSnapshot struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P99   uint64  `json:"p99"`
	Max   uint64  `json:"max"`
}

// Snapshot summarizes the distribution.
func (d *CountDist) Snapshot() DistSnapshot {
	return DistSnapshot{
		Count: d.Count(),
		Mean:  d.Mean(),
		P50:   d.Percentile(50),
		P99:   d.Percentile(99),
		Max:   d.Max(),
	}
}

// Nop is an Observer that ignores every event; embed it to implement only
// the events you care about.
type Nop struct{}

// CombineStart implements Observer.
func (Nop) CombineStart(int) {}

// CombineEnd implements Observer.
func (Nop) CombineEnd(int, int, int, time.Duration) {}

// ReaderRefresh implements Observer.
func (Nop) ReaderRefresh(int, int) {}

// Help implements Observer.
func (Nop) Help(int, int) {}

// LogTailRetry implements Observer.
func (Nop) LogTailRetry(int, int) {}

// WriterWait implements Observer.
func (Nop) WriterWait(int, int) {}

// Stall implements Observer.
func (Nop) Stall(int, time.Duration) {}

// PanicContained implements Observer.
func (Nop) PanicContained(int, uint64) {}

// OpDone implements Observer.
func (Nop) OpDone(int, OpClass, time.Duration) {}

// Multi fans every event out to several observers, in order.
type Multi []Observer

// Combine returns an Observer that forwards to every non-nil observer in
// os: nil when none remain, the observer itself when one does, a Multi
// otherwise.
func Combine(os ...Observer) Observer {
	var live Multi
	for _, o := range os {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

// FindMetrics returns the first *Metrics inside o — o itself or a Multi
// element — or nil. core uses it to include the built-in metrics in its
// unified snapshot regardless of how the observer was composed.
func FindMetrics(o Observer) *Metrics {
	switch v := o.(type) {
	case *Metrics:
		return v
	case Multi:
		for _, e := range v {
			if m := FindMetrics(e); m != nil {
				return m
			}
		}
	}
	return nil
}

// CombineStart implements Observer.
func (m Multi) CombineStart(node int) {
	for _, o := range m {
		o.CombineStart(node)
	}
}

// CombineEnd implements Observer.
func (m Multi) CombineEnd(node, batch, appended int, elapsed time.Duration) {
	for _, o := range m {
		o.CombineEnd(node, batch, appended, elapsed)
	}
}

// ReaderRefresh implements Observer.
func (m Multi) ReaderRefresh(node, entries int) {
	for _, o := range m {
		o.ReaderRefresh(node, entries)
	}
}

// Help implements Observer.
func (m Multi) Help(node, entries int) {
	for _, o := range m {
		o.Help(node, entries)
	}
}

// LogTailRetry implements Observer.
func (m Multi) LogTailRetry(node, retries int) {
	for _, o := range m {
		o.LogTailRetry(node, retries)
	}
}

// WriterWait implements Observer.
func (m Multi) WriterWait(node, spins int) {
	for _, o := range m {
		o.WriterWait(node, spins)
	}
}

// Stall implements Observer.
func (m Multi) Stall(node int, held time.Duration) {
	for _, o := range m {
		o.Stall(node, held)
	}
}

// PanicContained implements Observer.
func (m Multi) PanicContained(node int, idx uint64) {
	for _, o := range m {
		o.PanicContained(node, idx)
	}
}

// OpDone implements Observer.
func (m Multi) OpDone(node int, class OpClass, elapsed time.Duration) {
	for _, o := range m {
		o.OpDone(node, class, elapsed)
	}
}
