package main

import (
	"fmt"
	"io"
)

// printResult writes one run's metrics by name with their units, the
// verification outcome and, for a traced wire run, the latency ledger.
func printResult(w io.Writer, res *runResult) {
	kind := "end-to-end (tracing off)"
	list := endToEnd
	if res.Traced {
		kind, list = "per-layer (traced run)", perLayer
	}
	fmt.Fprintf(w, "== %s  seed %d  T=%d closed-loop clients  %s\n", res.Workload, res.Seed, res.Threads, kind)
	for _, spec := range list {
		m := res.Metrics[spec.name]
		fmt.Fprintf(w, "  %-30s %14.4f %-6s", spec.name, m.Value, m.Unit)
		if s := m.Summary; s != nil {
			fmt.Fprintf(w, "  over %d: median %.4f  [q1 %.4f  q3 %.4f]", s.N, s.Median, s.Q1, s.Q3)
		}
		fmt.Fprintln(w)
	}
	if len(res.Ledger) > 0 {
		fmt.Fprintln(w, "  ledger, us per command (rows above the last sum to it):")
		for _, row := range res.Ledger {
			fmt.Fprintf(w, "    %-32s %10.3f\n", row.Name, row.Us)
		}
	}
	fmt.Fprintf(w, "  verification: attempted %d  failed %d  fail_share %g  correct %v\n",
		res.Attempted, res.Failed, res.FailShare, res.Correct)
	for _, c := range res.Checks {
		fmt.Fprintf(w, "    FAILED: %s\n", c)
	}
}
