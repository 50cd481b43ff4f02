package main

import (
	"fmt"
	"os"
	"slices"
)

// runAA runs the untraced set twice on one commit, seed 1 in the listed
// order and seed 2 in the opposite order, and holds the difference of each
// end-to-end metric against that metric's own bound: a bound the benchmark
// cannot keep against itself cannot gate anything.
func runAA(cfg runConfig, out string) error {
	cfg.traced = false
	sets := [2]map[string]*runResult{{}, {}}
	failed := false
	for i := range sets {
		order := slices.Clone(workloads)
		if i == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			c := cfg
			c.seed = uint64(i + 1)
			res, err := runWorkload(w, c)
			if err != nil {
				return err
			}
			fmt.Printf("set %d: %s done (seed %d, correct %v)\n", i+1, w.name, c.seed, res.Correct)
			sets[i][w.name] = res
			failed = failed || !res.Correct
		}
	}

	fmt.Printf("\nA/A: the same commit twice; worse%% is how much worse set 2 (seed 2) reads than set 1 (seed 1)\n")
	fmt.Printf("%-15s %-14s %14s %25s %14s %25s %8s %7s  %s\n",
		"workload", "metric", "set1", "[q1, q3] over rounds", "set2", "[q1, q3] over rounds", "worse%", "bound%", "")
	exceeded := 0
	for _, w := range workloads {
		for _, spec := range endToEnd {
			a, b := sets[0][w.name].Metrics[spec.name], sets[1][w.name].Metrics[spec.name]
			worse := (b.Value - a.Value) / a.Value
			if spec.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > spec.bound {
				verdict = "EXCEEDS BOUND"
				exceeded++
			}
			fmt.Printf("%-15s %-14s %14.4f %25s %14.4f %25s %+8.2f %7.1f  %s\n",
				w.name, spec.name, a.Value, quartiles(a), b.Value, quartiles(b), worse*100, spec.bound*100, verdict)
		}
	}
	if err := writeJSON(out, sets); err != nil {
		return err
	}
	switch {
	case failed:
		return errFailedChecks
	case exceeded > 0:
		return fmt.Errorf("%d end-to-end metrics differ between the two sets by more than their bound", exceeded)
	}
	fmt.Fprintln(os.Stdout, "every end-to-end metric agrees within its bound")
	return nil
}

func quartiles(m metricValue) string {
	if m.Summary == nil {
		return "-"
	}
	return fmt.Sprintf("[%.4f, %.4f]", m.Summary.Q1, m.Summary.Q3)
}
