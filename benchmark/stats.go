package main

import (
	"math"
	"sort"
)

// summary is one metric over a run's rounds (or an A/A set's runs): the
// median, its quartiles and how many samples they rest on.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize reports the median and quartiles of v; v is not modified.
func summarize(v []float64) summary {
	if len(v) == 0 {
		return summary{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

func median(v []float64) float64 { return summarize(v).Median }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quantile interpolates at position p*(n+1) of the ascending slice, the
// "exclusive" method of Python's statistics.quantiles, which the gate that
// reads this benchmark uses for its quartiles.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n+1)
	lo := int(math.Floor(pos))
	switch {
	case lo < 1:
		return sorted[0]
	case lo >= n:
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo-1] + frac*(sorted[lo]-sorted[lo-1])
}

// percentileLadder are the percentiles a latency may be reported at, each
// with the one-in-how-many of the samples that lie beyond it.
var percentileLadder = []struct {
	p      float64
	beyond int
}{{0.5, 2}, {0.9, 10}, {0.99, 100}, {0.999, 1000}}

// supportedPercentile lowers want to the highest ladder percentile that has
// at least ten of the n samples beyond it, so a tail is never read off a
// handful of points. It never goes below the median.
func supportedPercentile(n int, want float64) float64 {
	best := percentileLadder[0].p
	for _, l := range percentileLadder {
		if l.p <= want && n >= 10*l.beyond {
			best = l.p
		}
	}
	return best
}

// percentile is the nearest-rank percentile of an ascending slice of exact
// latency samples.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	rank = max(0, min(rank, len(sorted)-1))
	return float64(sorted[rank])
}
