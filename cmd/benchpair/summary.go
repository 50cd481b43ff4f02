package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// verdictLine is the JSON object a benchmark run prints last.
type verdictLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// parseVerdict reads the last non-empty line of a run's standard output.
func parseVerdict(out string) (verdictLine, error) {
	var v verdictLine
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := strings.TrimSpace(lines[len(lines)-1])
	if last == "" {
		return v, errors.New("the run printed nothing")
	}
	if err := json.Unmarshal([]byte(last), &v); err != nil {
		return v, fmt.Errorf("last line %.80q: %w", last, err)
	}
	return v, nil
}

// endToEnd is one of BENCHMARK.json's gated metrics.
type endToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // the largest relative loss of the median
}

// spec is the part of BENCHMARK.json the pair runner reads.
type spec struct {
	RunSeconds int        `json:"run_seconds"` // the measuring time of every run
	EndToEnd   []endToEnd `json:"end_to_end"`
}

// pair is one base run and one run of the change, made back to back.
type pair struct{ base, head verdictLine }

// row summarizes one metric over the pairs.
type row struct {
	metric     endToEnd
	base, head quartiles
	wins, n    int // pairs where the change's value is the better one
	verdict    string
}

// quartiles are the first quartile, the median and the third quartile.
type quartiles struct{ q1, med, q3 float64 }

// quartilesOf interpolates linearly between the closest ranks.
func quartilesOf(xs []float64) quartiles {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		if len(s) == 0 {
			return math.NaN()
		}
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return quartiles{at(0.25), at(0.5), at(0.75)}
}

// Verdicts, in the order they are tried. A metric is worse when the
// change's median loses more than the bound, relative to the base median.
// It is unresolved when either side's interquartile range is wider than
// that same bound, unless every run of the change beats every run of the
// base: the runs spread too widely to tell. It is better when at least ten
// pairs ran, the change wins at least nine in ten, its median is ahead by
// more than the base's interquartile range and it failed no more runs and
// no more operations than the base. It is level otherwise.
const (
	verdictWorse      = "WORSE"
	verdictUnresolved = "UNRESOLVED"
	verdictBetter     = "better"
	verdictLevel      = "level"
)

// summarize compares the pairs metric by metric.
func summarize(pairs []pair, metrics []endToEnd) []row {
	br, hr, bo, ho := failures(pairs)
	failsMore := hr > br || ho > bo
	rows := make([]row, 0, len(metrics))
	for _, m := range metrics {
		r := row{metric: m}
		var base, head []float64
		for _, p := range pairs {
			b, okb := p.base.Metrics[m.Name]
			h, okh := p.head.Metrics[m.Name]
			if !okb || !okh {
				continue
			}
			base, head = append(base, b.Value), append(head, h.Value)
			r.n++
			if gain(m, b.Value, h.Value) > 0 {
				r.wins++
			}
		}
		if r.n == 0 {
			continue
		}
		r.base, r.head = quartilesOf(base), quartilesOf(head)
		allowed := m.Bound * math.Abs(r.base.med)
		switch ahead := gain(m, r.base.med, r.head.med); {
		case -ahead > allowed:
			r.verdict = verdictWorse
		case (r.base.q3-r.base.q1 > allowed || r.head.q3-r.head.q1 > allowed) && !beatsAll(m, base, head):
			r.verdict = verdictUnresolved
		case r.n >= 10 && r.wins*10 >= r.n*9 && ahead > r.base.q3-r.base.q1 && !failsMore:
			r.verdict = verdictBetter
		default:
			r.verdict = verdictLevel
		}
		rows = append(rows, r)
	}
	return rows
}

// beatsAll reports whether every value in head is better than every value
// in base.
func beatsAll(m endToEnd, base, head []float64) bool {
	for _, h := range head {
		for _, b := range base {
			if gain(m, b, h) <= 0 {
				return false
			}
		}
	}
	return true
}

// gain is how far the change's value h is ahead of the base's b: positive
// when h is the better one.
func gain(m endToEnd, b, h float64) float64 {
	if m.Better == "higher" {
		return h - b
	}
	return b - h
}

// failures counts the runs that failed a check and the operations that
// failed, per side.
func failures(pairs []pair) (baseRuns, headRuns int, baseOps, headOps int64) {
	for _, p := range pairs {
		if !p.base.Correct {
			baseRuns++
		}
		if !p.head.Correct {
			headRuns++
		}
		baseOps += p.base.Failed
		headOps += p.head.Failed
	}
	return
}

// printSummary writes one line per metric and the failure counts.
func printSummary(w io.Writer, workload string, pairs []pair, rows []row) {
	fmt.Fprintf(w, "%s, %d pairs: base median [q1–q3] vs change median [q1–q3], change wins, verdict\n", workload, len(pairs))
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %s vs %s %s, %d/%d, %s (bound %g)\n", r.metric.Name,
			fmtQ(r.base), fmtQ(r.head), r.metric.Unit, r.wins, r.n, r.verdict, r.metric.Bound)
	}
	br, hr, bo, ho := failures(pairs)
	fmt.Fprintf(w, "  failed runs %d vs %d, failed ops %d vs %d\n", br, hr, bo, ho)
}

func fmtQ(q quartiles) string {
	return fmt.Sprintf("%.4g [%.4g–%.4g]", q.med, q.q1, q.q3)
}
