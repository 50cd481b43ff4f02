package histogram

import (
	"math/rand"
	"sync"
	"testing"
)

// capture reads h into a fresh Cum.
func capture(h *Histogram) *Cum {
	var c Cum
	c.Add(h)
	return &c
}

// percentile is the lifetime percentile: the delta against an empty capture.
func percentile(c *Cum, p float64) uint64 { return DeltaPercentile(c, &Cum{}, p) }

func TestEmpty(t *testing.T) {
	c := capture(&Histogram{})
	if c.Total != 0 || c.Sum != 0 || c.Max != 0 || percentile(c, 50) != 0 {
		t.Error("empty histogram returned nonzero stats")
	}
}

func TestBucketMonotonicity(t *testing.T) {
	prev := uint64(0)
	prevIdx := -1
	for ns := uint64(1); ns < 1<<40; ns = ns*3/2 + 1 {
		idx := bucketOf(ns)
		if idx < prevIdx {
			t.Fatalf("bucketOf(%d) = %d < previous %d", ns, idx, prevIdx)
		}
		low := bucketLow(idx)
		if low > ns {
			t.Fatalf("bucketLow(%d) = %d > value %d", idx, low, ns)
		}
		if low < prev {
			t.Fatalf("bucketLow regressed: %d after %d", low, prev)
		}
		prev = low
		prevIdx = idx
	}
}

func TestBucketRoundTripAccuracy(t *testing.T) {
	// The bucket lower bound must be within 25% of the recorded value
	// (two fractional bits per power of two), small batch sizes included.
	for _, v := range []uint64{5, 7, 31, 100, 999, 12345, 1 << 20, 7777777} {
		low := bucketLow(bucketOf(v))
		if low > v || float64(v-low)/float64(v) > 0.25 {
			t.Errorf("value %d mapped to bucket low %d (error > 25%%)", v, low)
		}
	}
}

func TestPercentilesOnKnownDistribution(t *testing.T) {
	var h Histogram
	// 1..1000 microseconds, uniform, recorded in nanoseconds.
	for i := uint64(1); i <= 1000; i++ {
		h.Record(i * 1000)
	}
	c := capture(&h)
	if c.Total != 1000 {
		t.Fatalf("Total = %d", c.Total)
	}
	if p50 := percentile(c, 50); p50 < 350_000 || p50 > 650_000 {
		t.Errorf("p50 = %dns, want ~500µs", p50)
	}
	if p99 := percentile(c, 99); p99 < 800_000 || p99 > 1_000_000 {
		t.Errorf("p99 = %dns, want ~990µs", p99)
	}
	if c.Max != 1_000_000 {
		t.Errorf("Max = %d", c.Max)
	}
	if mean := c.Sum / c.Total; mean < 450_000 || mean > 550_000 {
		t.Errorf("mean = %dns, want ~500µs", mean)
	}
}

func TestConcurrentRecord(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 10000; i++ {
				h.Record(uint64(rng.Intn(1_000_000)))
			}
		}(g)
	}
	// Captures race with recording, as the telemetry collector's do; none
	// may put a percentile above its own max.
	for i := 0; i < 100; i++ {
		if c := capture(&h); percentile(c, 100) > c.Max {
			t.Fatalf("capture %d: p100 %d above max %d", i, percentile(c, 100), c.Max)
		}
	}
	wg.Wait()
	if c := capture(&h); c.Total != 80000 {
		t.Fatalf("Total = %d, want 80000", c.Total)
	}
}

// TestMerge: one Cum accumulating several histograms is their merge, the
// way obs.Metrics folds its per-node histograms.
func TestMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 100; i++ {
		a.Record(1000)
		b.Record(1_000_000)
	}
	var c Cum
	c.Add(&a)
	c.Add(&b)
	if c.Total != 200 {
		t.Fatalf("merged count = %d", c.Total)
	}
	if c.Max != 1_000_000 {
		t.Errorf("merged max = %d", c.Max)
	}
	if p := percentile(&c, 25); p > 2000 {
		t.Errorf("p25 after merge = %d, want ~1000", p)
	}
	if p := percentile(&c, 90); p < 500_000 {
		t.Errorf("p90 after merge = %d, want ~1000000", p)
	}
}

// TestDeltaPercentileIsTheWindow: the difference of two captures describes
// only what was recorded between them.
func TestDeltaPercentileIsTheWindow(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Record(8)
	}
	before := capture(&h)
	for i := 0; i < 100; i++ {
		h.Record(31)
	}
	after := capture(&h)
	if n := DeltaCount(after, before); n != 100 {
		t.Fatalf("DeltaCount = %d, want 100", n)
	}
	// 31 sits in [28, 32): the window's median is 28, the lifetime's 8.
	if p := DeltaPercentile(after, before, 50); p != 28 {
		t.Errorf("window p50 = %d, want 28", p)
	}
	if p := percentile(after, 50); p != 8 {
		t.Errorf("lifetime p50 = %d, want 8", p)
	}
	if DeltaCount(before, after) != 0 || DeltaPercentile(before, after, 50) != 0 {
		t.Error("misordered captures not clamped to an empty window")
	}
}

// TestRecordAndCaptureDoNotAllocate pins the metrics observer's recording
// and the collector's capture-and-subtract at zero allocations: Record runs
// on every observed op, and Reset, Add and DeltaPercentile on every
// collector tick.
func TestRecordAndCaptureDoNotAllocate(t *testing.T) {
	var h Histogram
	var prev, cur Cum
	v := uint64(1)
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v = v*7 + 3
	}); n != 0 {
		t.Errorf("Record allocates %v per call, want 0", n)
	}
	prev.Add(&h)
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		cur.Reset()
		cur.Add(&h)
		_ = DeltaPercentile(&cur, &prev, 99)
	}); n != 0 {
		t.Errorf("capture and delta allocate %v per tick, want 0", n)
	}
}
