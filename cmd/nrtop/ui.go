// Frame rendering: one function from two scrapes (current and previous) to
// a text frame, so the dashboard is unit-testable without a terminal.
package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"github.com/asplos17/nr/internal/obs/prom"
)

// scrape is one parsed /metrics body: every sample of every family.
type scrape []prom.Sample

// matches reports whether x carries every label of kv (name, value pairs).
func matches(x *prom.Sample, kv []string) bool {
	for i := 0; i+1 < len(kv); i += 2 {
		if x.Label(kv[i]) != kv[i+1] {
			return false
		}
	}
	return true
}

// get returns the value of the first sample named name with the labels kv,
// 0 when there is none.
func (s scrape) get(name string, kv ...string) float64 {
	for i := range s {
		if s[i].Name == name && matches(&s[i], kv) {
			return s[i].Value
		}
	}
	return 0
}

// has reports whether the scrape holds a sample named name.
func (s scrape) has(name string) bool {
	for i := range s {
		if s[i].Name == name {
			return true
		}
	}
	return false
}

// labels lists, in order, the values of label of the samples named name.
func (s scrape) labels(name, label string) []string {
	var out []string
	for i := range s {
		if s[i].Name == name {
			out = append(out, s[i].Label(label))
		}
	}
	return out
}

// top is the dashboard's state between frames: the previous scrape, which
// every rate is taken against, and the ops/s of each frame for the
// sparkline.
type top struct {
	prev    scrape
	history []float64
}

// render builds one frame from cur and the previous scrape, then makes cur
// the previous scrape.
func (t *top) render(cur scrape) string {
	prev := t.prev
	t.prev = cur
	var b strings.Builder
	up := time.Duration(cur.get("nrredis_uptime_seconds") * float64(time.Second)).Round(time.Second)
	fmt.Fprintf(&b, "nrtop · up %s · clients %.0f · conns %.0f · cmds %s\n",
		up, cur.get("nrredis_connected_clients"), cur.get("nrredis_connections_total"),
		fmtCount(cur.get("nrredis_commands_total")))
	if !cur.has("nr_read_ops_total") {
		b.WriteString("\n  (no NR metrics: baseline method, nothing to show)\n")
		return b.String()
	}

	secs := cur.get("nrredis_uptime_seconds") - prev.get("nrredis_uptime_seconds")
	if prev == nil || secs <= 0 {
		b.WriteString("\nTHROUGHPUT  (warming up)\n")
		secs = 0
	}
	// rate is a counter's increase since the previous scrape, per second.
	rate := func(name string, kv ...string) float64 {
		d := cur.get(name, kv...) - prev.get(name, kv...)
		if secs == 0 || d < 0 {
			return 0
		}
		return d / secs
	}
	if secs > 0 {
		ops := rate("nr_read_ops_total") + rate("nr_update_ops_total")
		if t.history = append(t.history, ops); len(t.history) > 60 {
			t.history = t.history[1:]
		}
		fmt.Fprintf(&b, "\nTHROUGHPUT  ops/s %-8s read/s %-8s upd/s %-8s combines/s %-8s\n",
			fmtCount(ops), fmtCount(rate("nr_read_ops_total")),
			fmtCount(rate("nr_update_ops_total")), fmtCount(rate("nr_combines_total")))
		if cur.has("nr_op_latency_seconds_count") {
			q := func(class string, q float64) string {
				return fmtSecs(quantile(q, cur, prev, "nr_op_latency_seconds", "class", class))
			}
			fmt.Fprintf(&b, "LATENCY     read p50 %-7s p99 %-7s p999 %-7s · upd p50 %-7s p99 %-7s p999 %-7s\n",
				q("read", .5), q("read", .99), q("read", .999), q("update", .5), q("update", .99), q("update", .999))
			mean := 0.0
			if n := rate("nr_combiner_batch_size_count"); n > 0 {
				mean = rate("nr_combiner_batch_size_sum") / n
			}
			fmt.Fprintf(&b, "BATCH       mean %.1f  p50 %.1f  p99 %.1f   readers: refresh/s %s  acquires/s %s\n",
				mean, quantile(.5, cur, prev, "nr_combiner_batch_size"), quantile(.99, cur, prev, "nr_combiner_batch_size"),
				fmtCount(rate("nr_reader_refreshes_total")), fmtCount(rate("nr_reader_acquires_total")))
		}
		fmt.Fprintf(&b, "HISTORY     %s  (ops/s, oldest→newest)\n", spark(t.history))
	}

	health := "ok"
	if cur.get("nr_poisoned") != 0 {
		health = "POISONED"
	}
	fmt.Fprintf(&b, "LOG         occupancy %4.1f%%  tail %.0f  completed %.0f  health %s\n",
		cur.get("nr_log_occupancy")*100, cur.get("nr_log_tail"), cur.get("nr_log_completed"), health)

	if nodes := cur.labels("nr_replica_completed_lag", "node"); len(nodes) > 0 {
		b.WriteString("\nNODE   LAG        ACQUIRES    HANDLES   READ/S     UPD/S      BUSY\n")
		for _, n := range nodes {
			fmt.Fprintf(&b, "%4s   %-10.0f %-11s %-7.0f   %-10s %-10s %4.0f%%\n", n,
				cur.get("nr_replica_completed_lag", "node", n),
				fmtCount(cur.get("nr_replica_reader_acquires", "node", n)),
				cur.get("nr_replica_registered", "node", n),
				fmtCount(rate("nr_replica_read_ops_total", "node", n)),
				fmtCount(rate("nr_replica_update_ops_total", "node", n)),
				rate("nr_replica_combine_seconds_total", "node", n)*100)
		}
	}

	if cur.has("nr_wal_durable_lag") {
		fmt.Fprintf(&b, "\nWAL         durable lag %.0f  fsyncs %.0f", cur.get("nr_wal_durable_lag"), cur.get("nr_wal_fsyncs_total"))
		if fsyncs := rate("nr_wal_fsyncs_total"); secs > 0 {
			mean := 0.0 // seconds per fsync since the previous scrape
			if fsyncs > 0 {
				mean = rate("nr_wal_fsync_seconds_total") / fsyncs
			}
			fmt.Fprintf(&b, "  appends/s %s  fsyncs/s %s  fsync mean %s",
				fmtCount(rate("nr_wal_appends_total")), fmtCount(fsyncs), fmtSecs(mean))
		}
		b.WriteByte('\n')
	}

	if classes := cur.labels("nr_slo_breached", "class"); len(classes) > 0 {
		b.WriteString("\nSLO     CLASS   P99 TGT  P99 NOW  P999 TGT P999 NOW BURN   STATE\n")
		for _, c := range classes {
			state := "ok"
			if cur.get("nr_slo_breached", "class", c) != 0 {
				state = "BREACH"
			}
			fmt.Fprintf(&b, "        %-7s %-8s %-8s %-8s %-8s %-6.2f %s (%.0f/%.0f windows)\n", c,
				fmtSecs(cur.get("nr_slo_target_p99_seconds", "class", c)),
				fmtSecs(cur.get("nr_slo_current_p99_seconds", "class", c)),
				fmtSecs(cur.get("nr_slo_target_p999_seconds", "class", c)),
				fmtSecs(cur.get("nr_slo_current_p999_seconds", "class", c)),
				cur.get("nr_slo_budget_burn", "class", c), state,
				cur.get("nr_slo_breached_windows_total", "class", c), cur.get("nr_slo_windows_total", "class", c))
		}
	}
	return b.String()
}

// quantile estimates the q-quantile of the observations the histogram name
// (with labels kv) gained between two scrapes, as histogram_quantile does
// over an increase: it finds the `le` bucket holding the rank and
// interpolates linearly between that bucket's bounds, the first bucket's
// lower bound being 0. A rank in the +Inf bucket reads as the highest
// finite bound; no observation reads as 0.
func quantile(q float64, cur, prev scrape, name string, kv ...string) float64 {
	var les, counts []float64
	for i := range cur {
		x := &cur[i]
		if x.Name != name+"_bucket" || !matches(x, kv) {
			continue
		}
		le, _ := strconv.ParseFloat(x.Label("le"), 64)
		les = append(les, le)
		counts = append(counts, x.Value-prev.get(x.Name, append([]string{"le", x.Label("le")}, kv...)...))
	}
	if len(counts) == 0 || counts[len(counts)-1] <= 0 {
		return 0
	}
	rank := q * counts[len(counts)-1]
	lower, below := 0.0, 0.0
	for i, c := range counts {
		if c >= rank {
			if math.IsInf(les[i], 1) {
				return lower
			}
			return lower + (les[i]-lower)*(rank-below)/(c-below)
		}
		lower, below = les[i], c
	}
	return lower
}

// spark renders a unicode sparkline scaled to the series' own max.
func spark(vals []float64) string {
	ramp := []rune("▁▂▃▄▅▆▇█")
	max := 0.0
	for _, v := range vals {
		max = math.Max(max, v)
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

// fmtSecs renders a duration in seconds with a natural unit: 850ns,
// 12.4µs, 3.1ms, 2.00s; "-" for none.
func fmtSecs(s float64) string {
	switch {
	case s <= 0:
		return "-"
	case s < 1e-6:
		return fmt.Sprintf("%.0fns", s*1e9)
	case s < 1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.1fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}
