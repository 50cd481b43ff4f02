package miniredis

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	nr "github.com/asplos17/nr"
	"github.com/asplos17/nr/internal/core"
	"github.com/asplos17/nr/internal/obs/prom"
	"github.com/asplos17/nr/internal/obs/prom/promtest"
	"github.com/asplos17/nr/internal/topology"
)

// infoCmd sends INFO and reads the multi-line bulk reply by its declared
// length (the generic test client reads bulks line-wise, which a multi-line
// INFO body would break).
func (c *client) infoCmd(t *testing.T) string {
	t.Helper()
	if _, err := c.conn.Write([]byte("*1\r\n$4\r\nINFO\r\n")); err != nil {
		t.Fatal(err)
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var n int
	if _, err := fmt.Sscanf(line, "$%d", &n); err != nil {
		t.Fatalf("INFO reply not a bulk string: %q", line)
	}
	buf := make([]byte, n+2) // body + trailing CRLF
	if _, err := io.ReadFull(c.r, buf); err != nil {
		t.Fatal(err)
	}
	return string(buf[:n])
}

func TestInfoCommandNR(t *testing.T) {
	_, addr := startServer(t, MethodNR)
	c := dial(t, addr)
	// Generate some traffic so counters are non-trivial.
	c.cmd(t, "SET", "k", "v")
	c.cmd(t, "GET", "k")

	info := c.infoCmd(t)
	for _, want := range []string{
		"# Server", "total_commands_processed:",
		"# NR", "read_ops:", "combine_rounds:", "log_occupancy:",
		"# Health", "poisoned:false",
		"# Latency", "read_p50_ns:", "update_p99_ns:",
	} {
		if !strings.Contains(info, want) {
			t.Errorf("INFO missing %q:\n%s", want, info)
		}
	}
	// Case-insensitive command name, and the server keeps serving after.
	if _, err := c.conn.Write([]byte("*1\r\n$4\r\ninfo\r\n")); err != nil {
		t.Fatal(err)
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var n int
	if _, err := fmt.Sscanf(line, "$%d", &n); err != nil {
		t.Fatalf("lowercase info reply not a bulk string: %q", line)
	}
	buf := make([]byte, n+2)
	if _, err := io.ReadFull(c.r, buf); err != nil {
		t.Fatal(err)
	}
	if got := c.cmd(t, "GET", "k"); got != "v" {
		t.Errorf("GET after INFO = %q, want v", got)
	}
}

func TestInfoCommandBaselineOmitsNRSections(t *testing.T) {
	_, addr := startServer(t, MethodSL)
	c := dial(t, addr)
	c.cmd(t, "SET", "k", "v")
	info := c.infoCmd(t)
	if !strings.Contains(info, "# Server") {
		t.Errorf("INFO missing server section:\n%s", info)
	}
	if strings.Contains(info, "# NR") {
		t.Errorf("spinlock INFO claims NR metrics:\n%s", info)
	}
}

// scrape serves r through srv's /metrics handler and parses the body: a
// 200 with the exposition's content type that passes promtest.Lint, its
// families by name.
func scrape(t *testing.T, srv *Server, r *http.Request) map[string]*prom.Family {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, r)
	if rec.Code != 200 {
		t.Fatalf("%s status = %d", r.URL, rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != prom.ContentType {
		t.Errorf("%s Content-Type = %q, want %q", r.URL, ct, prom.ContentType)
	}
	text := rec.Body.String()
	if err := promtest.Lint(text); err != nil {
		t.Fatalf("%s fails lint: %v\n%s", r.URL, err, text)
	}
	fams, err := prom.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*prom.Family, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	return byName
}

// firstValue returns the first sample of the named family, failing the test
// when the exposition lacks it.
func firstValue(t *testing.T, fams map[string]*prom.Family, name string) float64 {
	t.Helper()
	f := fams[name]
	if f == nil || len(f.Samples) == 0 {
		t.Fatalf("/metrics lacks %s", name)
	}
	return f.Samples[0].Value
}

func TestMetricsHandler(t *testing.T) {
	// Telemetry as nrredis runs it: the latency histograms come from the
	// collector's newest capture.
	shared, err := NewShared(MethodNR, topology.New(2, 4, 1), 7, nr.WithTelemetry(time.Hour, 1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(shared, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, serveOn(t, srv))
	c.cmd(t, "SET", "k", "v")
	c.cmd(t, "GET", "k")
	srv.Telemetry().Advance()

	fams := scrape(t, srv, httptest.NewRequest("GET", "/metrics", nil))
	if n := firstValue(t, fams, "nrredis_commands_total"); n < 2 {
		t.Errorf("total commands = %v, want >= 2", n)
	}
	if r, u := firstValue(t, fams, "nr_read_ops_total"), firstValue(t, fams, "nr_update_ops_total"); r < 1 || u < 1 {
		t.Errorf("nr ops: %v reads, %v updates, want >= 1 each", r, u)
	}
	if f := fams["nr_op_latency_seconds"]; f == nil || f.Type != "histogram" {
		t.Error("/metrics missing the latency histogram (NewShared attaches the metrics observer)")
	}
	if firstValue(t, fams, "nr_log_size") == 0 {
		t.Error("/metrics log gauges empty")
	}
}

func TestMetricsHandlerBaseline(t *testing.T) {
	srv, _ := startServer(t, MethodFC)
	for name := range scrape(t, srv, httptest.NewRequest("GET", "/metrics", nil)) {
		if strings.HasPrefix(name, "nr_") {
			t.Errorf("baseline /metrics claims NR family %s", name)
		}
	}
}

func TestHealthHandler(t *testing.T) {
	srv, addr := startServer(t, MethodNR)
	c := dial(t, addr)
	c.cmd(t, "SET", "k", "v")

	rec := httptest.NewRecorder()
	srv.HealthHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/health", nil))
	if rec.Code != 200 {
		t.Fatalf("/health status = %d, want 200 while healthy", rec.Code)
	}
	var h core.Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("/health not JSON: %v", err)
	}
	if h.Poisoned {
		t.Error("healthy server reports poisoned")
	}

	// Baselines always report ok.
	srv2, _ := startServer(t, MethodRWL)
	rec2 := httptest.NewRecorder()
	srv2.HealthHandler().ServeHTTP(rec2, httptest.NewRequest("GET", "/health", nil))
	if rec2.Code != 200 {
		t.Errorf("baseline /health = %d, want 200", rec2.Code)
	}
}

// TestHealthHandlerReportsPoisoned: a panic on one replica only (a
// non-deterministic Execute) poisons the keyspace once the other replica
// applies the same command cleanly, and /health turns 503 and reports it.
func TestHealthHandlerReportsPoisoned(t *testing.T) {
	srv, addr := startPanickyNR(t, func(n int) bool { return n == 0 })
	c := dial(t, addr)
	c.cmd(t, "SET", "kaboom", "x") // node 0's executor: its replica panics
	c.cmd(t, "GET", "kaboom")      // node 1's: its replica applies the SET cleanly

	rec := httptest.NewRecorder()
	srv.HealthHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/health", nil))
	if rec.Code != 503 {
		t.Errorf("/health status = %d, want 503 once poisoned", rec.Code)
	}
	var h core.Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("/health not JSON: %v", err)
	}
	if !h.Poisoned || h.PoisonReason == "" {
		t.Errorf("/health = %+v, want poisoned with a reason", h)
	}
}

func TestServerStatsCountsConnections(t *testing.T) {
	srv, addr := startServer(t, MethodNR)
	c1 := dial(t, addr)
	c1.cmd(t, "PING")
	c2 := dial(t, addr)
	c2.cmd(t, "PING")
	ss := srv.ServerStats()
	if ss.TotalConnections < 2 {
		t.Errorf("total connections = %d, want >= 2", ss.TotalConnections)
	}
	if ss.ConnectedClients < 2 {
		t.Errorf("connected clients = %d, want >= 2", ss.ConnectedClients)
	}
	if ss.TotalCommands < 2 {
		t.Errorf("total commands = %d, want >= 2", ss.TotalCommands)
	}
	if ss.UptimeSeconds < 0 {
		t.Errorf("uptime negative: %v", ss.UptimeSeconds)
	}
}
