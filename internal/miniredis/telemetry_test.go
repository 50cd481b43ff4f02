// Endpoint tests for the telemetry plane: content negotiation on /metrics,
// the Prometheus exposition validated by the hand-rolled lint, and the
// windowed JSON export nrtop consumes.
package miniredis

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	nr "github.com/asplos17/nr"
	"github.com/asplos17/nr/internal/core"
	"github.com/asplos17/nr/internal/obs/prom"
	"github.com/asplos17/nr/internal/obs/tsdb"
	"github.com/asplos17/nr/internal/topology"
)

// startTelemetryServer runs an NR server with a fast telemetry cadence and
// a deliberately unmeetable read SLO (so breach accounting is exercised).
func startTelemetryServer(t *testing.T, extra ...nr.Option) *Server {
	t.Helper()
	opts := append([]nr.Option{
		nr.WithTelemetry(5*time.Millisecond, 32),
		nr.WithSLO(nr.OpRead, time.Nanosecond, 0),
	}, extra...)
	shared, err := NewShared(MethodNR, topology.New(2, 4, 1), 7, opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(shared, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// traffic drives enough commands through the keyspace for counters and
// distributions to be non-trivial.
func traffic(t *testing.T, srv *Server) {
	t.Helper()
	ex, err := srv.shared.Register()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		ex.Execute(StoreOp{Cmd: CmdSet, Key: "k", Member: "v"})
		ex.Execute(StoreOp{Cmd: CmdGet, Key: "k"})
	}
}

// waitWindows polls until the collector has derived at least one window.
func waitWindows(t *testing.T, srv *Server) {
	t.Helper()
	tel := srv.Telemetry()
	if tel == nil {
		t.Fatal("server built with WithTelemetry has no collector")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(tel.Snapshot()) > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no telemetry window within deadline")
}

func TestMetricsJSONCarriesTelemetry(t *testing.T) {
	srv := startTelemetryServer(t)
	traffic(t, srv)
	waitWindows(t, srv)

	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("plain GET Content-Type = %q, want JSON (the historical default)", ct)
	}
	var p struct {
		Telemetry *struct {
			IntervalSeconds float64          `json:"interval_seconds"`
			Windows         []tsdb.Window    `json:"windows"`
			SLOs            []tsdb.SLOStatus `json:"slos"`
		} `json:"telemetry"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if p.Telemetry == nil {
		t.Fatal("/metrics JSON missing telemetry section")
	}
	if p.Telemetry.IntervalSeconds != 0.005 {
		t.Errorf("interval_seconds = %v, want 0.005", p.Telemetry.IntervalSeconds)
	}
	if len(p.Telemetry.Windows) == 0 {
		t.Error("telemetry windows empty after traffic")
	}
	if len(p.Telemetry.SLOs) != 1 || p.Telemetry.SLOs[0].Class != "read" {
		t.Errorf("SLO statuses = %+v, want one read objective", p.Telemetry.SLOs)
	}
}

func TestMetricsPrometheusNegotiation(t *testing.T) {
	srv := startTelemetryServer(t)
	traffic(t, srv)
	waitWindows(t, srv)

	for _, req := range []struct {
		name   string
		target string
		accept string
	}{
		{"query param", "/metrics?format=prometheus", ""},
		{"accept text/plain", "/metrics", "text/plain"},
		{"accept openmetrics", "/metrics", "application/openmetrics-text"},
	} {
		r := httptest.NewRequest("GET", req.target, nil)
		if req.accept != "" {
			r.Header.Set("Accept", req.accept)
		}
		rec := httptest.NewRecorder()
		srv.MetricsHandler().ServeHTTP(rec, r)
		if ct := rec.Header().Get("Content-Type"); ct != prom.ContentType {
			t.Fatalf("%s: Content-Type = %q, want %q", req.name, ct, prom.ContentType)
		}
		text := rec.Body.String()
		if err := prom.Lint(text); err != nil {
			t.Fatalf("%s: live exposition fails lint: %v\n%s", req.name, err, text)
		}
		for _, family := range []string{
			"nrredis_commands_total", "nr_read_ops_total", "nr_update_ops_total",
			"nr_log_occupancy", "nr_replica_completed_lag",
			"nr_op_latency_seconds_bucket", "nr_combiner_batch_size_bucket",
			"nr_slo_target_p99_seconds", "nr_slo_windows_total",
		} {
			if !strings.Contains(text, family) {
				t.Errorf("%s: exposition missing %s", req.name, family)
			}
		}
	}
}

func TestMetricsPrometheusBaseline(t *testing.T) {
	// Baselines have no NR instance: the exposition still serves the server
	// families and lints clean.
	shared, err := NewShared(MethodSL, topology.New(1, 2, 1), 7)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(shared, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	text := rec.Body.String()
	if err := prom.Lint(text); err != nil {
		t.Fatalf("baseline exposition fails lint: %v\n%s", err, text)
	}
	if !strings.Contains(text, "nrredis_uptime_seconds") {
		t.Error("baseline exposition missing server families")
	}
	if strings.Contains(text, "nr_read_ops_total") {
		t.Error("baseline exposition claims NR families")
	}
}

func TestShardedMetricsCarryShardStats(t *testing.T) {
	shared, _, err := NewNRShared(topology.New(2, 4, 1), 7, 4, "", nil,
		nr.WithTelemetry(5*time.Millisecond, 16))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(shared, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	traffic(t, srv)
	waitWindows(t, srv)

	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var p struct {
		ShardStats []core.Stats    `json:"shard_stats"`
		Telemetry  json.RawMessage `json:"telemetry"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if len(p.ShardStats) != 4 {
		t.Fatalf("shard_stats len = %d, want 4", len(p.ShardStats))
	}
	var total uint64
	for _, s := range p.ShardStats {
		total += s.ReadOps + s.UpdateOps
	}
	if total == 0 {
		t.Error("per-shard counters all zero after traffic")
	}
	if p.Telemetry == nil {
		t.Error("sharded /metrics missing telemetry section")
	}

	// The sharded exposition lints clean too.
	rec = httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	if err := prom.Lint(rec.Body.String()); err != nil {
		t.Fatalf("sharded exposition fails lint: %v", err)
	}
}
