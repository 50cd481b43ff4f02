// Package histogram provides a compact log-scaled latency histogram:
// lock-free recording, power-of-two buckets with four linear sub-buckets
// each, and percentile queries. It backs the per-class latency
// distributions of obs.Metrics and, through cumulative bucket captures, the
// windowed tails and SLOs of obs/tsdb.
package histogram

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// subBuckets is the number of linear subdivisions per power of two.
const subBuckets = 4

// numBuckets covers 1ns .. ~17s.
const numBuckets = 64 * subBuckets / 2

// Histogram records durations concurrently.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Uint64 // nanoseconds, for mean
	max    atomic.Uint64
}

// New returns an empty histogram.
func New() *Histogram { return &Histogram{} }

// bucketOf maps a nanosecond value to its bucket index.
func bucketOf(ns uint64) int {
	if ns < subBuckets {
		return int(ns)
	}
	exp := bits.Len64(ns) - 1       // floor(log2)
	frac := (ns >> (exp - 2)) & 0x3 // top two fractional bits
	idx := (exp-1)*subBuckets + int(frac)
	if idx >= numBuckets {
		return numBuckets - 1
	}
	return idx
}

// bucketLow returns the lower bound of a bucket in nanoseconds.
func bucketLow(idx int) uint64 {
	if idx < subBuckets {
		return uint64(idx)
	}
	exp := idx/subBuckets + 1
	frac := uint64(idx % subBuckets)
	return (1 << exp) + frac<<(exp-2)
}

// Record adds one duration.
func (h *Histogram) Record(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	h.counts[bucketOf(ns)].Add(1)
	h.total.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Mean returns the mean duration.
func (h *Histogram) Mean() time.Duration {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the largest recorded duration.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Percentile returns the approximate p-th percentile (0 < p <= 100).
func (h *Histogram) Percentile(p float64) time.Duration {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(p / 100 * float64(n))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := 0; i < numBuckets; i++ {
		seen += h.counts[i].Load()
		if seen >= rank {
			return time.Duration(bucketLow(i))
		}
	}
	return h.Max()
}

// Merge folds other into h (for per-worker histograms).
func (h *Histogram) Merge(other *Histogram) {
	for i := 0; i < numBuckets; i++ {
		if c := other.counts[i].Load(); c > 0 {
			h.counts[i].Add(c)
		}
	}
	h.total.Add(other.total.Load())
	h.sum.Add(other.sum.Load())
	for {
		cur, o := h.max.Load(), other.max.Load()
		if o <= cur || h.max.CompareAndSwap(cur, o) {
			break
		}
	}
}

// NumBuckets is the number of buckets a Histogram (and a Cum) carries,
// exported for consumers that walk raw buckets: the windowed telemetry
// collector (internal/obs/tsdb) and the Prometheus exposition
// (internal/obs/prom).
const NumBuckets = numBuckets

// BucketLower returns the inclusive lower bound of bucket idx in
// nanoseconds. Bucket idx counts values in [BucketLower(idx),
// BucketLower(idx+1)); the last bucket is unbounded above.
func BucketLower(idx int) uint64 { return bucketLow(idx) }

// Cum is a cumulative bucket-level snapshot of a Histogram: plain (non-
// atomic) copies of every bucket count plus the total and sum. Two Cums
// taken at different instants subtract bucket-wise into a *windowed*
// distribution — the delta's percentiles describe only the interval between
// the captures, which is how the telemetry collector derives per-window
// tail latency from the always-cumulative histograms. The zero value is an
// empty capture; Add accumulates (so one Cum can merge several per-node
// histograms); Reset empties for reuse. A Cum is a value: no pointers, no
// allocation to capture into one that already exists.
type Cum struct {
	Counts [numBuckets]uint64
	Total  uint64
	Sum    uint64
}

// Reset empties c for reuse.
//
//nr:noalloc
func (c *Cum) Reset() { *c = Cum{} }

// Add accumulates h's current buckets into c. Buckets are read individually
// while recording may continue, so the capture is only approximately one
// instant — the same contract as Snapshot everywhere else in this layer.
//
//nr:noalloc
func (c *Cum) Add(h *Histogram) {
	for i := 0; i < numBuckets; i++ {
		c.Counts[i] += h.counts[i].Load()
	}
	c.Total += h.total.Load()
	c.Sum += h.sum.Load()
}

// DeltaCount returns the number of observations between prev and cur
// (0 when the captures are misordered).
func DeltaCount(cur, prev *Cum) uint64 {
	if cur.Total < prev.Total {
		return 0
	}
	return cur.Total - prev.Total
}

// DeltaPercentile returns a lower bound on the p-th percentile (0 < p <=
// 100) of the observations recorded between the prev and cur captures,
// walking the bucket-wise difference without materializing it.
//
//nr:noalloc
func DeltaPercentile(cur, prev *Cum, p float64) time.Duration {
	n := DeltaCount(cur, prev)
	if n == 0 {
		return 0
	}
	rank := uint64(p / 100 * float64(n))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := 0; i < numBuckets; i++ {
		c, pc := cur.Counts[i], prev.Counts[i]
		if c > pc {
			seen += c - pc
		}
		if seen >= rank {
			return time.Duration(bucketLow(i))
		}
	}
	return time.Duration(bucketLow(numBuckets - 1))
}

// Summary renders the standard one-line latency report.
func (h *Histogram) Summary() string {
	if h.Count() == 0 {
		return "no samples"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%s p50=%s p90=%s p99=%s p999=%s max=%s",
		h.Count(), h.Mean(), h.Percentile(50), h.Percentile(90),
		h.Percentile(99), h.Percentile(99.9), h.Max())
	return b.String()
}
