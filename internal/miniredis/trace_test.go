package miniredis

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/asplos17/nr/internal/obs/prom"
	"github.com/asplos17/nr/internal/topology"
	"github.com/asplos17/nr/internal/trace"
)

// startTracedServer is startServer with a flight recorder wired through
// both the keyspace (NewSharedTraced) and the server (WithRecorder).
func startTracedServer(t *testing.T) (*Server, net.Addr) {
	t.Helper()
	rec := trace.New(trace.Config{RingSlots: 1024})
	shared, err := NewSharedTraced(MethodNR, topology.New(2, 4, 1), 7, rec)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(shared, 4, WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan net.Addr, 1)
	go func() {
		if err := srv.Serve("127.0.0.1:0", func(a net.Addr) { addrCh <- a }); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	addr := <-addrCh
	t.Cleanup(srv.Close)
	return srv, addr
}

func TestSlowlogOverRESP(t *testing.T) {
	_, addr := startTracedServer(t)
	c := dial(t, addr)
	for i := 0; i < 5; i++ {
		if got := c.cmd(t, "SET", "k", "v"); got != "+OK" {
			t.Fatalf("SET = %q", got)
		}
		if got := c.cmd(t, "GET", "k"); got != "v" {
			t.Fatalf("GET = %q", got)
		}
	}

	// LEN counts reconstructable ops; we ran 10 through the keyspace.
	lenReply := c.cmd(t, "SLOWLOG", "LEN")
	if !strings.HasPrefix(lenReply, ":") {
		t.Fatalf("SLOWLOG LEN = %q, want integer reply", lenReply)
	}
	if lenReply == ":0" {
		t.Fatal("SLOWLOG LEN = 0 after 10 traced ops")
	}

	// GET returns formatted span lines, slowest first, bounded by K.
	got := c.cmd(t, "SLOWLOG", "GET", "3")
	lines := strings.Split(got, ",")
	if len(lines) == 0 || len(lines) > 3 {
		t.Fatalf("SLOWLOG GET 3 returned %d lines: %q", len(lines), got)
	}
	if !strings.Contains(got, "update") && !strings.Contains(got, "read") {
		t.Fatalf("SLOWLOG GET lines carry no op class: %q", got)
	}

	// Default K works without an argument.
	if got := c.cmd(t, "SLOWLOG", "GET"); got == "" {
		t.Fatal("SLOWLOG GET (default K) returned nothing")
	}

	// RESET hides everything recorded so far.
	if got := c.cmd(t, "SLOWLOG", "RESET"); got != "+OK" {
		t.Fatalf("SLOWLOG RESET = %q", got)
	}
	if got := c.cmd(t, "SLOWLOG", "LEN"); got != ":0" {
		t.Fatalf("SLOWLOG LEN after RESET = %q, want :0", got)
	}

	// Errors: bad subcommand, bad K, no subcommand.
	if got := c.cmd(t, "SLOWLOG", "BOGUS"); !strings.HasPrefix(got, "-ERR") {
		t.Errorf("SLOWLOG BOGUS = %q, want error", got)
	}
	if got := c.cmd(t, "SLOWLOG", "GET", "notanint"); !strings.HasPrefix(got, "-ERR") {
		t.Errorf("SLOWLOG GET notanint = %q, want error", got)
	}
	if got := c.cmd(t, "SLOWLOG"); !strings.HasPrefix(got, "-ERR") {
		t.Errorf("bare SLOWLOG = %q, want error", got)
	}
}

func TestSlowlogWithoutRecorder(t *testing.T) {
	_, addr := startServer(t, MethodNR) // no recorder attached
	c := dial(t, addr)
	got := c.cmd(t, "SLOWLOG", "GET")
	if !strings.HasPrefix(got, "-ERR") || !strings.Contains(got, "-trace") {
		t.Fatalf("SLOWLOG without recorder = %q, want error pointing at -trace", got)
	}
}

func TestTraceHandler(t *testing.T) {
	srv, addr := startTracedServer(t)
	c := dial(t, addr)
	for i := 0; i < 3; i++ {
		c.cmd(t, "SET", "k", "v")
		c.cmd(t, "GET", "k")
	}

	// Default: Chrome trace-event JSON with the right Content-Type.
	rr := httptest.NewRecorder()
	srv.TraceHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/debug/trace status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("/debug/trace Content-Type = %q", ct)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/debug/trace body is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("/debug/trace traceEvents empty after traced ops")
	}

	// format=text: the top-K slowest report.
	rr = httptest.NewRecorder()
	srv.TraceHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace?format=text&k=5", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/debug/trace?format=text status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("text report Content-Type = %q", ct)
	}
	if !strings.Contains(rr.Body.String(), "flight recorder") {
		t.Errorf("text report missing header:\n%s", rr.Body.String())
	}
}

func TestTraceHandlerWithoutRecorder(t *testing.T) {
	srv, _ := startServer(t, MethodNR)
	rr := httptest.NewRecorder()
	srv.TraceHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("/debug/trace without recorder status = %d, want 404", rr.Code)
	}
}

// TestMetricsContentType pins the explicit Content-Type on /metrics (it
// must not rely on net/http sniffing).
func TestMetricsContentType(t *testing.T) {
	srv, _ := startServer(t, MethodNR)
	rr := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != prom.ContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", ct, prom.ContentType)
	}
}
