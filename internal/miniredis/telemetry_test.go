// Endpoint tests for the telemetry plane: /metrics serves the Prometheus
// exposition whatever the request asks for, and it passes the lint with a
// telemetry collector and SLOs attached, and on a baseline.
package miniredis

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	nr "github.com/asplos17/nr"
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

// TestMetricsHasOneRepresentation: /metrics answers every request with the
// exposition, including one that asks for JSON by header or by query.
func TestMetricsHasOneRepresentation(t *testing.T) {
	srv := startTelemetryServer(t)
	traffic(t, srv)
	waitWindows(t, srv)

	jsonAccept := httptest.NewRequest("GET", "/metrics", nil)
	jsonAccept.Header.Set("Accept", "application/json")
	for _, r := range []*http.Request{
		httptest.NewRequest("GET", "/metrics", nil),
		jsonAccept,
		httptest.NewRequest("GET", "/metrics?format=json", nil),
	} {
		fams := scrape(t, srv, r)
		for _, family := range []string{
			"nrredis_commands_total", "nr_read_ops_total", "nr_update_ops_total",
			"nr_log_occupancy", "nr_replica_completed_lag", "nr_replica_read_ops_total",
			"nr_replica_update_ops_total", "nr_replica_combine_seconds_total",
			"nr_op_latency_seconds", "nr_combiner_batch_size",
			"nr_slo_target_p99_seconds", "nr_slo_windows_total",
		} {
			if fams[family] == nil {
				t.Errorf("%s (Accept %q): exposition missing %s", r.URL, r.Header.Get("Accept"), family)
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

	fams := scrape(t, srv, httptest.NewRequest("GET", "/metrics", nil))
	if fams["nrredis_uptime_seconds"] == nil {
		t.Error("baseline exposition missing server families")
	}
	if fams["nr_read_ops_total"] != nil {
		t.Error("baseline exposition claims NR families")
	}
}
