// Package histogram provides a compact log-scaled histogram of non-negative
// integer values: lock-free recording, power-of-two buckets with four linear
// sub-buckets each, and percentile queries over cumulative bucket captures.
// It backs both distributions of obs.Metrics, operation latency in
// nanoseconds and combiner batch size in operations, and through those
// captures the windowed tails and SLOs of obs/tsdb.
package histogram

import (
	"math/bits"
	"sync/atomic"
)

// subBuckets is the number of linear subdivisions per power of two.
const subBuckets = 4

// numBuckets covers 0 .. ~2^33 (1ns .. ~17s as latencies).
const numBuckets = 64 * subBuckets / 2

// Histogram records values concurrently. The zero value is ready to use;
// read it through a Cum capture.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	exp := bits.Len64(v) - 1       // floor(log2)
	frac := (v >> (exp - 2)) & 0x3 // top two fractional bits
	idx := (exp-1)*subBuckets + int(frac)
	if idx >= numBuckets {
		return numBuckets - 1
	}
	return idx
}

// bucketLow returns the lower bound of a bucket.
func bucketLow(idx int) uint64 {
	if idx < subBuckets {
		return uint64(idx)
	}
	exp := idx/subBuckets + 1
	frac := uint64(idx % subBuckets)
	return (1 << exp) + frac<<(exp-2)
}

// Record adds one value.
func (h *Histogram) Record(v uint64) {
	h.counts[bucketOf(v)].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// NumBuckets is the number of buckets a Histogram (and a Cum) carries,
// exported for consumers that walk raw buckets: the windowed telemetry
// collector (internal/obs/tsdb) and the Prometheus exposition
// (internal/obs/prom).
const NumBuckets = numBuckets

// BucketLower returns the inclusive lower bound of bucket idx. Bucket idx
// counts values in [BucketLower(idx), BucketLower(idx+1)); the last bucket
// is unbounded above.
func BucketLower(idx int) uint64 { return bucketLow(idx) }

// Cum is a cumulative bucket-level capture of a Histogram: plain (non-
// atomic) copies of every bucket count plus the total, sum and max. Two Cums
// taken at different instants subtract bucket-wise into a *windowed*
// distribution — the delta's percentiles describe only the interval between
// the captures, which is how the telemetry collector derives per-window
// tails from the always-cumulative histograms; against an empty Cum the same
// walk gives the lifetime percentiles. The zero value is an empty capture;
// Add accumulates (so one Cum can merge several per-node histograms); Reset
// empties for reuse. A Cum is a value: no pointers, no allocation to capture
// into one that already exists.
type Cum struct {
	Counts [numBuckets]uint64
	Total  uint64
	Sum    uint64
	// Max is the largest value captured; it does not subtract, so windowed
	// views ignore it.
	Max uint64
}

// Reset empties c for reuse.
func (c *Cum) Reset() { *c = Cum{} }

// Add accumulates h's current buckets into c. Buckets are read individually
// while recording may continue, so the capture is only approximately one
// instant — the same contract as Snapshot everywhere else in this layer.
func (c *Cum) Add(h *Histogram) {
	for i := 0; i < numBuckets; i++ {
		c.Counts[i] += h.counts[i].Load()
	}
	c.Total += h.total.Load()
	c.Sum += h.sum.Load()
	c.Max = max(c.Max, h.max.Load())
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
// walking the bucket-wise difference without materializing it: the lower
// edge of the bucket holding the rank, within 25% of the true value.
func DeltaPercentile(cur, prev *Cum, p float64) uint64 {
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
			return bucketLow(i)
		}
	}
	return bucketLow(numBuckets - 1)
}
