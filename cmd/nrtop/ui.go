// Frame rendering: one pure function from two polls (current and previous)
// to a text frame, so the dashboard is unit-testable without a terminal.
// The payload structs reuse the library's own JSON-tagged types — the
// dashboard cannot drift from the /metrics schema without failing to build.
package main

import (
	"fmt"
	"strings"
	"time"

	"github.com/asplos17/nr/internal/core"
	"github.com/asplos17/nr/internal/miniredis"
	"github.com/asplos17/nr/internal/obs/tsdb"
)

// payload mirrors the /metrics JSON body.
type payload struct {
	Server    miniredis.ServerStats `json:"server"`
	NR        *core.Metrics         `json:"nr"`
	Telemetry *telemetryPayload     `json:"telemetry"`
}

// telemetryPayload mirrors the windowed-telemetry slice of the body.
type telemetryPayload struct {
	IntervalSeconds float64          `json:"interval_seconds"`
	Windows         []tsdb.Window    `json:"windows"`
	SLOs            []tsdb.SLOStatus `json:"slos"`
}

// render builds one frame. prev is the previous poll (nil on the first
// frame); sincePrev the wall time between the polls, used for client-side
// rates when the server has no telemetry collector.
func render(cur, prev *payload, sincePrev time.Duration) string {
	var b strings.Builder

	up := time.Duration(cur.Server.UptimeSeconds * float64(time.Second)).Round(time.Second)
	fmt.Fprintf(&b, "nrtop · up %s · clients %d · conns %d · cmds %s\n",
		up, cur.Server.ConnectedClients, cur.Server.TotalConnections,
		fmtCount(float64(cur.Server.TotalCommands)))

	if cur.NR == nil {
		b.WriteString("\n  (no NR metrics: baseline method, nothing to show)\n")
		return b.String()
	}

	var last *tsdb.Window
	if t := cur.Telemetry; t != nil && len(t.Windows) > 0 {
		last = &t.Windows[len(t.Windows)-1]
	}

	switch {
	case last != nil:
		fmt.Fprintf(&b, "\nTHROUGHPUT  ops/s %-8s read/s %-8s upd/s %-8s combines/s %-8s\n",
			fmtCount(last.OpsPerSec), fmtCount(last.ReadOpsPerSec),
			fmtCount(last.UpdateOpsPerSec), fmtCount(last.CombinesPerSec))
		fmt.Fprintf(&b, "LATENCY     read p50 %-7s p99 %-7s p999 %-7s · upd p50 %-7s p99 %-7s p999 %-7s\n",
			fmtNs(last.ReadP50Ns), fmtNs(last.ReadP99Ns), fmtNs(last.ReadP999Ns),
			fmtNs(last.UpdateP50Ns), fmtNs(last.UpdateP99Ns), fmtNs(last.UpdateP999Ns))
		fmt.Fprintf(&b, "BATCH       mean %.1f  p50 %d  p99 %d   readers: refresh/s %s  acquires/s %s\n",
			last.BatchMean, last.BatchP50, last.BatchP99,
			fmtCount(last.ReaderRefreshPerSec), fmtCount(last.ReaderAcquiresPerSec))
		if sp := spark(opsSeries(cur.Telemetry.Windows)); sp != "" {
			fmt.Fprintf(&b, "HISTORY     %s  (ops/s, oldest→newest)\n", sp)
		}
	case prev != nil && prev.NR != nil && sincePrev > 0:
		// No server-side telemetry: client-side rates between polls.
		secs := sincePrev.Seconds()
		fmt.Fprintf(&b, "\nTHROUGHPUT  ops/s %-8s read/s %-8s upd/s %-8s  (client-side; run nrredis with -telemetry for windows)\n",
			fmtCount(crate(cur.NR.Stats.ReadOps+cur.NR.Stats.UpdateOps, prev.NR.Stats.ReadOps+prev.NR.Stats.UpdateOps, secs)),
			fmtCount(crate(cur.NR.Stats.ReadOps, prev.NR.Stats.ReadOps, secs)),
			fmtCount(crate(cur.NR.Stats.UpdateOps, prev.NR.Stats.UpdateOps, secs)))
	default:
		b.WriteString("\nTHROUGHPUT  (warming up)\n")
	}

	health := "ok"
	if cur.NR.Health.Poisoned {
		health = "POISONED"
	}
	fmt.Fprintf(&b, "LOG         occupancy %4.1f%%  tail %d  completed %d  health %s\n",
		cur.NR.Log.Occupancy*100, cur.NR.Log.Tail, cur.NR.Log.Completed, health)

	if len(cur.NR.Replicas) > 0 {
		b.WriteString("\nNODE   LAG        ACQUIRES    HANDLES")
		if last != nil {
			b.WriteString("   READ/S     UPD/S      BUSY")
		}
		b.WriteByte('\n')
		for _, r := range cur.NR.Replicas {
			fmt.Fprintf(&b, "%4d   %-10d %-11s %-7d", r.Node, r.CompletedLag,
				fmtCount(float64(r.ReaderAcquires)), r.Registered)
			if last != nil {
				for _, nw := range last.Nodes {
					if nw.Node == r.Node {
						fmt.Fprintf(&b, "   %-10s %-10s %4.0f%%",
							fmtCount(nw.ReadOpsPerSec), fmtCount(nw.UpdateOpsPerSec),
							nw.CombineBusyFrac*100)
						break
					}
				}
			}
			b.WriteByte('\n')
		}
	}

	if p := cur.NR.Persist; p != nil {
		fmt.Fprintf(&b, "\nWAL         durable lag %d  fsyncs %d", p.DurableLag, p.Fsyncs)
		if last != nil && last.HasWAL {
			fmt.Fprintf(&b, "  appends/s %s  fsyncs/s %s  fsync mean %s",
				fmtCount(last.WALAppendsPerSec), fmtCount(last.WALFsyncsPerSec),
				fmtNs(last.FsyncMeanNs))
		}
		b.WriteByte('\n')
	}

	if t := cur.Telemetry; t != nil && len(t.SLOs) > 0 {
		b.WriteString("\nSLO     CLASS   P99 TGT  P99 NOW  P999 TGT P999 NOW BURN   STATE\n")
		for _, s := range t.SLOs {
			state := "ok"
			if s.Breached {
				state = "BREACH"
			}
			fmt.Fprintf(&b, "        %-7s %-8s %-8s %-8s %-8s %-6.2f %s (%d/%d windows)\n",
				s.Class, fmtNs(uint64(s.P99Ns)), fmtNs(uint64(s.CurrentP99Ns)),
				fmtNs(uint64(s.P999Ns)), fmtNs(uint64(s.CurrentP999Ns)),
				s.BudgetBurn, state, s.BreachedWindows, s.TotalWindows)
		}
	}
	return b.String()
}

// crate is a client-side rate from two cumulative counts.
func crate(cur, prev uint64, secs float64) float64 {
	if secs <= 0 || cur < prev {
		return 0
	}
	return float64(cur-prev) / secs
}

// opsSeries extracts the ops/s series for the sparkline, most recent ~60.
func opsSeries(ws []tsdb.Window) []float64 {
	if len(ws) > 60 {
		ws = ws[len(ws)-60:]
	}
	out := make([]float64, len(ws))
	for i := range ws {
		out[i] = ws[i].OpsPerSec
	}
	return out
}

// spark renders a unicode sparkline scaled to the series' own max.
func spark(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	ramp := []rune("▁▂▃▄▅▆▇█")
	max := 0.0
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if max > 0 {
			i = int(v / max * float64(len(ramp)-1))
		}
		b.WriteRune(ramp[i])
	}
	return b.String()
}

// fmtCount renders a count or rate compactly: 999, 12.3k, 4.56M, 7.8G.
func fmtCount(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e4:
		return fmt.Sprintf("%.1fk", v/1e3)
	case v == float64(int64(v)):
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%.1f", v)
	}
}

// fmtNs renders nanoseconds with a natural unit: 850ns, 12.4µs, 3.1ms, 2.0s.
func fmtNs(ns uint64) string {
	v := float64(ns)
	switch {
	case ns == 0:
		return "-"
	case v < 1e3:
		return fmt.Sprintf("%dns", ns)
	case v < 1e6:
		return fmt.Sprintf("%.1fµs", v/1e3)
	case v < 1e9:
		return fmt.Sprintf("%.1fms", v/1e6)
	default:
		return fmt.Sprintf("%.2fs", v/1e9)
	}
}
