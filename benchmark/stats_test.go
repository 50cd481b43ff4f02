package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// Quartiles must agree with Python's statistics.quantiles(v, n=4), which the
// gate reading this benchmark uses.
func TestSummarizeMatchesExclusiveQuantiles(t *testing.T) {
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if !near(s.Q1, 2.75) || !near(s.Median, 5.5) || !near(s.Q3, 8.25) || s.N != 10 {
		t.Fatalf("summarize(1..10) = %+v, want q1 2.75 median 5.5 q3 8.25 n 10", s)
	}
	s = summarize([]float64{3, 1, 2})
	if !near(s.Q1, 1) || !near(s.Median, 2) || !near(s.Q3, 3) {
		t.Fatalf("summarize(1,2,3) = %+v", s)
	}
	if s := summarize([]float64{7}); s.Median != 7 || s.Q1 != 7 || s.Q3 != 7 {
		t.Fatalf("summarize of one value = %+v", s)
	}
	if s := summarize(nil); s != (summary{}) {
		t.Fatalf("summarize(nil) = %+v", s)
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestSupportedPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		got  float64
	}{
		{n: 1000, want: 0.99, got: 0.99}, // exactly ten samples beyond p99
		{n: 999, want: 0.99, got: 0.9},
		{n: 100, want: 0.99, got: 0.9},
		{n: 99, want: 0.99, got: 0.5},
		{n: 5, want: 0.99, got: 0.5},
		{n: 10000, want: 0.999, got: 0.999},
		{n: 9999, want: 0.999, got: 0.99},
		{n: 1 << 20, want: 0.99, got: 0.99}, // never above what was asked
		{n: 1 << 20, want: 0.5, got: 0.5},
	} {
		if got := supportedPercentile(c.n, c.want); got != c.got {
			t.Errorf("supportedPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.got)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]uint32, 100)
	for i := range s {
		s[i] = uint32(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.99, 99}, {0.999, 100}, {0.001, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

// A phase's latency is one percentile per round, by class, with the
// percentile lowered in a round too small to support it.
func TestPhaseLatencyPerRoundAndClass(t *testing.T) {
	tl := newThreadLog(2)
	tl.bounds[0] = 0
	tl.sample(9000, classRead) // warm-up sample, ignored
	tl.bounds[1] = len(tl.samples)
	for i := 1; i <= 1000; i++ { // round 1: reads of 1..1000 ns
		tl.sample(time.Duration(i), classRead)
	}
	tl.sample(5000, classUpdate)
	tl.bounds[2] = len(tl.samples)
	for i := 1; i <= 20; i++ { // round 2: too few samples for p99
		tl.sample(time.Duration(i)*time.Microsecond, classRead)
	}
	tl.bounds[3] = len(tl.samples)
	p := &phase{rounds: 2, threads: []*threadLog{tl}}

	p99 := p.latency(classRead, 0.99)
	if len(p99) != 2 || !near(p99[0], 0.990) || !near(p99[1], 10) {
		t.Fatalf("read p99 per round = %v, want [0.99 10]", p99)
	}
	upd := p.latency(classUpdate, 0.5)
	if len(upd) != 1 || !near(upd[0], 5) {
		t.Fatalf("update p50 per round = %v, want [5]", upd)
	}
	worst := p.latency(-1, 2)
	if !near(worst[0], 5) || !near(worst[1], 20) {
		t.Fatalf("max per round = %v, want [5 20]", worst)
	}
}
