package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// line renders a run's verdict line as the benchmark prints it.
func line(correct bool, failed int64, ops, cpu, mem float64) string {
	return fmt.Sprintf(`{"correct":%v,"attempted":1000,"failed":%d,"metrics":{`+
		`"ops_per_s":{"value":%g,"unit":"1/s"},"cpu_us_per_op":{"value":%g,"unit":"us"},`+
		`"mem_mb":{"value":%g,"unit":"MB"}}}`, correct, failed, ops, cpu, mem)
}

var gated = []endToEnd{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "mem_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}, // in no line: skipped
}

func mustParse(t *testing.T, out string) verdictLine {
	t.Helper()
	v, err := parseVerdict(out)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestParseVerdictReadsTheLastLine(t *testing.T) {
	out := "lib-durable  ops_per_s 1.1e6 ...\n\n" + line(true, 0, 1e6, 2, 8) + "\n\n"
	v := mustParse(t, out)
	if !v.Correct || v.Attempted != 1000 || v.Metrics["mem_mb"].Value != 8 || v.Metrics["mem_mb"].Unit != "MB" {
		t.Errorf("parsed %+v", v)
	}
	for _, bad := range []string{"", "\n \n", "no json here", line(true, 0, 1, 1, 1) + "\ntrailing words"} {
		if _, err := parseVerdict(bad); err == nil {
			t.Errorf("parseVerdict(%q) = nil error", bad)
		}
	}
}

func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want quartiles
	}{
		{[]float64{7}, quartiles{7, 7, 7}},
		{[]float64{4, 1, 3, 2}, quartiles{1.75, 2.5, 3.25}},
		{[]float64{5, 1, 3, 2, 4}, quartiles{2, 3, 4}},
	} {
		if got := quartilesOf(c.xs); got != c.want {
			t.Errorf("quartilesOf(%v) = %+v, want %+v", c.xs, got, c.want)
		}
	}
}

// TestSummaryVerdicts: ten canned pairs where the change uses less memory in
// every pair (better), more CPU by about 40 % (worse than the 25 % bound)
// and the same throughput but for noise (level).
func TestSummaryVerdicts(t *testing.T) {
	var pairs []pair
	for i := range 10 {
		noise := float64(i%3) * 0.01
		pairs = append(pairs, pair{
			base: mustParse(t, line(true, 0, 1e6*(1+noise), 2.0+noise, 8.0+noise)),
			head: mustParse(t, line(true, 0, 1e6*(1-noise), 2.8+noise, 7.5+noise)),
		})
	}
	rows := summarize(pairs, gated)
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3 (setup_s is in no line)", len(rows))
	}
	want := map[string]struct {
		verdict string
		wins    int
	}{
		"ops_per_s":     {verdictLevel, 0},
		"cpu_us_per_op": {verdictWorse, 0},
		"mem_mb":        {verdictBetter, 10},
	}
	for _, r := range rows {
		w := want[r.metric.Name]
		if r.verdict != w.verdict || r.wins != w.wins || r.n != 10 {
			t.Errorf("%s: %s, %d/%d wins, want %s, %d/10", r.metric.Name, r.verdict, r.wins, r.n, w.verdict, w.wins)
		}
	}
	if r := rows[2]; math.Abs(r.base.med-8.01) > 1e-9 || math.Abs(r.head.med-7.51) > 1e-9 {
		t.Errorf("mem_mb medians %v vs %v, want 8.01 vs 7.51", r.base.med, r.head.med)
	}
	var out bytes.Buffer
	printSummary(&out, "lib-durable", pairs, rows)
	for _, s := range []string{"lib-durable, 10 pairs", "mem_mb", "10/10, better", "WORSE", "failed runs 0 vs 0, failed ops 0 vs 0"} {
		if !strings.Contains(out.String(), s) {
			t.Errorf("summary lacks %q:\n%s", s, out.String())
		}
	}
}

// build makes pairs whose mem_mb values are base[i] and head[i]; the runs
// of the change fail headFailed operations each.
func build(t *testing.T, base, head []float64, headFailed int64) []pair {
	t.Helper()
	var ps []pair
	for i := range base {
		ps = append(ps, pair{mustParse(t, line(true, 0, 1, 1, base[i])), mustParse(t, line(true, headFailed, 1, 1, head[i]))})
	}
	return ps
}

// TestSummaryNeedsNineInTenAndTheSpread: a gain in 8 of 10 pairs, one
// inside the base's interquartile range, or one in fewer than ten pairs is
// level; 9 of 10 beyond the range is better.
func TestSummaryNeedsNineInTenAndTheSpread(t *testing.T) {
	mem := []endToEnd{gated[2]}
	base := []float64{8, 8, 8, 8, 8, 8, 8, 8, 8, 8}
	eight := []float64{7, 7, 7, 7, 7, 7, 7, 7, 9, 9}
	nine := []float64{7, 7, 7, 7, 7, 7, 7, 7, 7, 9}
	if r := summarize(build(t, base, eight, 0), mem)[0]; r.verdict != verdictLevel || r.wins != 8 {
		t.Errorf("8 of 10: %s, %d wins", r.verdict, r.wins)
	}
	if r := summarize(build(t, base, nine, 0), mem)[0]; r.verdict != verdictBetter || r.wins != 9 {
		t.Errorf("9 of 10: %s, %d wins", r.verdict, r.wins)
	}
	if r := summarize(build(t, base[:9], nine[:9], 0), mem)[0]; r.verdict != verdictLevel || r.wins != 9 {
		t.Errorf("9 of 9: %s, %d wins", r.verdict, r.wins)
	}
	// An interquartile range of 0.8 MB, inside the bound's 2 MB.
	spread := []float64{7.6, 8.4, 7.6, 8.4, 7.6, 8.4, 7.6, 8.4, 8, 8}
	near := []float64{7.55, 8.35, 7.55, 8.35, 7.55, 8.35, 7.55, 8.35, 7.95, 7.95}
	if r := summarize(build(t, spread, near, 0), mem)[0]; r.verdict != verdictLevel || r.wins != 10 {
		t.Errorf("inside the spread: %s, %d wins", r.verdict, r.wins)
	}
}

// TestSummaryUnresolvedWhenTheSpreadExceedsTheBound: a side whose
// interquartile range is wider than the bound leaves the metric unresolved,
// whichever side it is and whichever way the medians lean, unless every run
// of the change beats every run of the base.
func TestSummaryUnresolvedWhenTheSpreadExceedsTheBound(t *testing.T) {
	mem := []endToEnd{gated[2]}
	tight := []float64{8, 8, 8, 8, 8, 8, 8, 8, 8, 8}
	wide := []float64{6, 10, 6, 10, 6, 10, 6, 10, 8.5, 9.5} // range 4 MB, bound 2 MB
	near := []float64{5.9, 9.9, 5.9, 9.9, 5.9, 9.9, 5.9, 9.9, 8.4, 9.4}
	for _, c := range []struct {
		name       string
		base, head []float64
	}{
		{"wide base, change ahead in every pair", wide, near},
		{"wide change, level medians", tight, wide},
		{"wide change, change ahead in 9 of 10", tight, []float64{5, 8.5, 5, 7.9, 5, 7.9, 5, 7.9, 5, 7.9}},
	} {
		if r := summarize(build(t, c.base, c.head, 0), mem)[0]; r.verdict != verdictUnresolved {
			t.Errorf("%s: %s, want %s", c.name, r.verdict, verdictUnresolved)
		}
	}
	// Every change run below every base run resolves it: level while the
	// medians are closer than the base's range, better beyond it.
	if r := summarize(build(t, wide, []float64{5.5, 5.9, 5.5, 5.9, 5.5, 5.9, 5.5, 5.9, 5.7, 5.7}, 0), mem)[0]; r.verdict != verdictLevel {
		t.Errorf("every change run below every base run, inside the range: %s, want %s", r.verdict, verdictLevel)
	}
	if r := summarize(build(t, wide, []float64{1.5, 1.9, 1.5, 1.9, 1.5, 1.9, 1.5, 1.9, 1.7, 1.7}, 0), mem)[0]; r.verdict != verdictBetter {
		t.Errorf("every change run below every base run, beyond the range: %s, want %s", r.verdict, verdictBetter)
	}
	// A loss beyond the bound is worse, however wide the spread.
	if r := summarize(build(t, tight, []float64{11, 14, 11, 14, 11, 14, 11, 14, 11, 14}, 0), mem)[0]; r.verdict != verdictWorse {
		t.Errorf("wide and worse: %s, want %s", r.verdict, verdictWorse)
	}
	var out bytes.Buffer
	pairs := build(t, tight, wide, 0)
	printSummary(&out, "wire-sync", pairs, summarize(pairs, mem))
	if !strings.Contains(out.String(), "UNRESOLVED") {
		t.Errorf("summary lacks UNRESOLVED:\n%s", out.String())
	}
}

// TestSummaryWithholdsBetterWhenTheChangeFailsMore: a gain that clears
// every other test is level when the change failed more operations or more
// runs than the base.
func TestSummaryWithholdsBetterWhenTheChangeFailsMore(t *testing.T) {
	mem := []endToEnd{gated[2]}
	base := []float64{8, 8, 8, 8, 8, 8, 8, 8, 8, 8}
	head := []float64{7, 7, 7, 7, 7, 7, 7, 7, 7, 7}
	if r := summarize(build(t, base, head, 0), mem)[0]; r.verdict != verdictBetter {
		t.Fatalf("no failures: %s, want %s", r.verdict, verdictBetter)
	}
	if r := summarize(build(t, base, head, 1), mem)[0]; r.verdict != verdictLevel {
		t.Errorf("change fails more operations: %s, want %s", r.verdict, verdictLevel)
	}
	pairs := build(t, base, head, 0)
	pairs[3].head.Correct = false
	if r := summarize(pairs, mem)[0]; r.verdict != verdictLevel {
		t.Errorf("change fails more runs: %s, want %s", r.verdict, verdictLevel)
	}
	// Failures on both sides alike do not withhold the gain.
	pairs = build(t, base, head, 1)
	for i := range pairs {
		pairs[i].base.Failed = 1
	}
	if r := summarize(pairs, mem)[0]; r.verdict != verdictBetter {
		t.Errorf("equal failures: %s, want %s", r.verdict, verdictBetter)
	}
}

func TestFailuresCountEachSide(t *testing.T) {
	pairs := []pair{
		{mustParse(t, line(true, 0, 1, 1, 1)), mustParse(t, line(false, 3, 1, 1, 1))},
		{mustParse(t, line(true, 1, 1, 1, 1)), mustParse(t, line(true, 0, 1, 1, 1))},
	}
	br, hr, bo, ho := failures(pairs)
	if br != 0 || hr != 1 || bo != 1 || ho != 3 {
		t.Errorf("failures = %d, %d, %d, %d; want 0, 1, 1, 3", br, hr, bo, ho)
	}
}
