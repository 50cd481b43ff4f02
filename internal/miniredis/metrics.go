// Server-level observability: the INFO command text and the HTTP metrics
// and health endpoints the nrredis binary mounts. All of it reads the same
// unified core.Metrics snapshot the library exposes, plus the server's own
// connection and command counters. /metrics serves it once, as the
// Prometheus exposition; INFO stays because it is part of the Redis
// protocol.
package miniredis

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/asplos17/nr/internal/core"
	"github.com/asplos17/nr/internal/obs"
	"github.com/asplos17/nr/internal/obs/prom"
	"github.com/asplos17/nr/internal/obs/tsdb"
)

// Metrics returns the NR unified snapshot of the underlying keyspace, and
// whether one is available (false for the lock and flat-combining
// baselines, which have no NR instance to report on).
func (s *Server) Metrics() (core.Metrics, bool) {
	if src, ok := s.shared.(MetricsSource); ok {
		return src.Metrics(), true
	}
	return core.Metrics{}, false
}

// ServerStats is the serving layer's slice of INFO and /metrics.
type ServerStats struct {
	UptimeSeconds    float64
	ConnectedClients int
	TotalConnections uint64
	TotalCommands    uint64
}

// ServerStats reports the serving layer's own counters.
func (s *Server) ServerStats() ServerStats {
	s.mu.Lock()
	clients := len(s.conns)
	s.mu.Unlock()
	return ServerStats{
		UptimeSeconds:    time.Since(s.started).Seconds(),
		ConnectedClients: clients,
		TotalConnections: s.connTotal.Load(),
		TotalCommands:    s.commands.Load(),
	}
}

// Info renders the redis INFO-style report: "# Section" headers followed by
// key:value lines. Sections cover the serving layer always, and the NR
// stats, health, log gauges, and latency distributions when the keyspace is
// NR-backed.
func (s *Server) Info() string {
	var b strings.Builder
	ss := s.ServerStats()
	fmt.Fprintf(&b, "# Server\r\n")
	fmt.Fprintf(&b, "uptime_in_seconds:%.0f\r\n", ss.UptimeSeconds)
	fmt.Fprintf(&b, "connected_clients:%d\r\n", ss.ConnectedClients)
	fmt.Fprintf(&b, "total_connections_received:%d\r\n", ss.TotalConnections)
	fmt.Fprintf(&b, "total_commands_processed:%d\r\n", ss.TotalCommands)

	m, ok := s.Metrics()
	if !ok {
		return b.String()
	}
	fmt.Fprintf(&b, "# NR\r\n")
	fmt.Fprintf(&b, "read_ops:%d\r\n", m.Stats.ReadOps)
	fmt.Fprintf(&b, "update_ops:%d\r\n", m.Stats.UpdateOps)
	fmt.Fprintf(&b, "combine_rounds:%d\r\n", m.Stats.Combines)
	fmt.Fprintf(&b, "combined_ops:%d\r\n", m.Stats.CombinedOps)
	fmt.Fprintf(&b, "reader_refreshes:%d\r\n", m.Stats.ReaderRefreshes)
	fmt.Fprintf(&b, "helped_entries:%d\r\n", m.Stats.HelpedEntries)
	fmt.Fprintf(&b, "log_occupancy:%.4f\r\n", m.Log.Occupancy)
	for _, r := range m.Replicas {
		fmt.Fprintf(&b, "replica%d_completed_lag:%d\r\n", r.Node, r.CompletedLag)
	}
	fmt.Fprintf(&b, "# Health\r\n")
	fmt.Fprintf(&b, "poisoned:%v\r\n", m.Health.Poisoned)
	fmt.Fprintf(&b, "contained_panics:%d\r\n", m.Health.Panics)
	if o := m.Observed; o != nil {
		fmt.Fprintf(&b, "# Latency\r\n")
		fmt.Fprintf(&b, "read_p50_ns:%d\r\n", o.Read.P50Ns)
		fmt.Fprintf(&b, "read_p99_ns:%d\r\n", o.Read.P99Ns)
		fmt.Fprintf(&b, "update_p50_ns:%d\r\n", o.Update.P50Ns)
		fmt.Fprintf(&b, "update_p99_ns:%d\r\n", o.Update.P99Ns)
		fmt.Fprintf(&b, "combiner_batch_mean:%.2f\r\n", o.Batch.Mean)
		fmt.Fprintf(&b, "combiner_batch_p99:%d\r\n", o.Batch.P99)
	}
	return b.String()
}

// Telemetry returns the keyspace's windowed collector, nil when the
// keyspace has none (baselines, or NR built without nr.WithTelemetry).
func (s *Server) Telemetry() *tsdb.Collector {
	if src, ok := s.shared.(TelemetrySource); ok {
		return src.Telemetry()
	}
	return nil
}

// MetricsHandler serves /metrics: the Prometheus text exposition (v0.0.4),
// the one representation whatever the request's Accept header or query
// asks for. It holds the serving layer's own families, the unified NR
// snapshot, and, when a telemetry collector is attached, the latency and
// batch histograms and per-node combining time (from the collector's
// newest capture) and the SLO gauges.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		e := prom.New()
		ss := s.ServerStats()
		e.Gauge("nrredis_uptime_seconds", "Seconds since the server started.", ss.UptimeSeconds)
		e.Gauge("nrredis_connected_clients", "Currently connected clients.", float64(ss.ConnectedClients))
		e.Counter("nrredis_connections_total", "Connections accepted since start.", float64(ss.TotalConnections))
		e.Counter("nrredis_commands_total", "Commands processed since start.", float64(ss.TotalCommands))
		if m, ok := s.Metrics(); ok {
			prom.AppendMetrics(e, &m)
		}
		if t := s.Telemetry(); t != nil {
			var cum obs.Cum
			if t.LatestCum(&cum) {
				prom.AppendCum(e, &cum)
			}
			prom.AppendSLO(e, t.SLOStatuses())
		}
		w.Header().Set("Content-Type", prom.ContentType)
		_, _ = e.WriteTo(w)
	})
}

// HealthHandler serves a liveness/health probe: 200 with the Health JSON
// while the keyspace is healthy, 503 once it is poisoned (replicas have
// diverged — the sticky failure state of DESIGN.md's failure model). For
// baselines without an NR instance it always reports 200.
func (s *Server) HealthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		m, ok := s.Metrics()
		if !ok {
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, `{"status":"ok"}`)
			return
		}
		if m.Health.Poisoned {
			w.WriteHeader(http.StatusServiceUnavailable)
		} else {
			w.WriteHeader(http.StatusOK)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(m.Health)
	})
}
