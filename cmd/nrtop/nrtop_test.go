package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	nr "github.com/asplos17/nr"
	"github.com/asplos17/nr/internal/baseline"
	"github.com/asplos17/nr/internal/miniredis"
	"github.com/asplos17/nr/internal/obs/prom"
	"github.com/asplos17/nr/internal/obs/prom/promtest"
	"github.com/asplos17/nr/internal/topology"
)

// liveServer serves /metrics of an in-process NR keyspace built as nrredis
// builds it, with a WAL, telemetry with one window (as nrredis keeps) and a
// read SLO no window can meet. traffic runs n SETs, then n GETs (one op in
// 16 per handle is timed, so an alternating pair would time only SETs), on
// each of two executors, then takes a telemetry capture; the cadence is an
// hour, so every capture is the test's own.
func liveServer(t *testing.T) (url string, traffic func(n int)) {
	t.Helper()
	shared, persist, err := miniredis.NewNRShared(topology.New(2, 2, 1), 1, t.TempDir(), nil,
		nr.WithTelemetry(time.Hour, 1), nr.WithSLO(nr.OpRead, time.Nanosecond, 0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(persist.Close)
	srv, err := miniredis.NewServer(shared, 2, miniredis.WithPersistence(persist))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.MetricsHandler())
	t.Cleanup(ts.Close)
	var exs [2]baseline.Executor[miniredis.StoreOp, miniredis.StoreResult]
	for i := range exs {
		if exs[i], err = shared.Register(); err != nil {
			t.Fatal(err)
		}
	}
	return ts.URL, func(n int) {
		for _, ex := range exs {
			for i := 0; i < n; i++ {
				ex.Execute(miniredis.StoreOp{Cmd: miniredis.CmdSet, Key: "k", Member: "v"})
			}
			for i := 0; i < n; i++ {
				ex.Execute(miniredis.StoreOp{Cmd: miniredis.CmdGet, Key: "k"})
			}
		}
		srv.Telemetry().Advance()
	}
}

func mustFetch(t *testing.T, url string) scrape {
	t.Helper()
	s, err := fetch(http.DefaultClient, url)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// wantRate is a counter's rate between two scrapes, computed as render
// computes it.
func wantRate(cur, prev scrape, name string, kv ...string) float64 {
	return (cur.get(name, kv...) - prev.get(name, kv...)) /
		(cur.get("nrredis_uptime_seconds") - prev.get("nrredis_uptime_seconds"))
}

// TestRenderFrame renders frames from three live scrapes with different
// traffic between them. Each frame's rates must be the counters' increase
// since the scrape just before it: ops/s from the exact op counters (not
// the latency histograms, which hold one op in 16), and per node from the
// replica counters.
func TestRenderFrame(t *testing.T) {
	url, traffic := liveServer(t)
	traffic(10)
	s0 := mustFetch(t, url)
	traffic(400)
	s1 := mustFetch(t, url)
	traffic(40)
	s2 := mustFetch(t, url)

	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := promtest.Lint(string(body)); err != nil {
		t.Fatalf("live exposition fails lint: %v\n%s", err, body)
	}

	var tp top
	if f := tp.render(s0); !strings.Contains(f, "warming up") {
		t.Errorf("first frame should warm up:\n%s", f)
	}
	for i, sc := range [][2]scrape{{s1, s0}, {s2, s1}} {
		cur, prev := sc[0], sc[1]
		frame := tp.render(cur)
		ops := wantRate(cur, prev, "nr_read_ops_total") + wantRate(cur, prev, "nr_update_ops_total")
		want := []string{
			"clients 0",
			"ops/s " + fmtCount(ops) + " ",
			"read/s " + fmtCount(wantRate(cur, prev, "nr_read_ops_total")) + " ",
			"LATENCY     read p50 ",
			"BATCH       mean ",
			"health ok",
			"NODE   LAG",
			"WAL         durable lag ",
			"appends/s " + fmtCount(wantRate(cur, prev, "nr_wal_appends_total")) + " ",
			"read    1ns ",
			"BREACH (",
		}
		for _, n := range []string{"0", "1"} {
			want = append(want, "   "+fmtCount(wantRate(cur, prev, "nr_replica_read_ops_total", "node", n))+" ")
		}
		for _, w := range want {
			if !strings.Contains(frame, w) {
				t.Errorf("frame %d missing %q\n%s", i+1, w, frame)
			}
		}
		// The sparkline has one bar per frame that had a previous scrape.
		_, hist, _ := strings.Cut(frame, "HISTORY     ")
		if bars, _, _ := strings.Cut(hist, "  ("); utf8.RuneCountInString(bars) != i+1 {
			t.Errorf("frame %d: sparkline %q, want %d bars", i+1, bars, i+1)
		}
		if strings.Contains(frame, "read p50 -") {
			t.Errorf("frame %d: no read latency from the histograms\n%s", i+1, frame)
		}
	}
}

func TestRenderFirstFrameAndBaseline(t *testing.T) {
	url, traffic := liveServer(t)
	traffic(10)
	var tp top
	frame := tp.render(mustFetch(t, url))
	if !strings.Contains(frame, "warming up") || strings.Contains(frame, "HISTORY") {
		t.Errorf("first frame should warm up, with no history:\n%s", frame)
	}

	// Baseline method: no NR families at all.
	shared, err := miniredis.NewShared(miniredis.MethodSL, topology.New(1, 2, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := miniredis.NewServer(shared, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.MetricsHandler())
	defer ts.Close()
	if frame := new(top).render(mustFetch(t, ts.URL)); !strings.Contains(frame, "no NR metrics") {
		t.Errorf("baseline frame should say so:\n%s", frame)
	}
}

func TestFetchAgainstServer(t *testing.T) {
	url, traffic := liveServer(t)
	traffic(10)
	s := mustFetch(t, url)
	if s.get("nr_update_ops_total") < 20 || s.get("nr_log_size") == 0 {
		t.Errorf("scrape lacks the NR counters: updates %v, log size %v",
			s.get("nr_update_ops_total"), s.get("nr_log_size"))
	}
	if len(s.labels("nr_replica_combine_seconds_total", "node")) != 2 {
		t.Errorf("scrape lacks the per-node combine time")
	}

	for _, h := range []http.HandlerFunc{
		http.NotFound,
		func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "not an exposition\n") },
	} {
		ts := httptest.NewServer(h)
		if _, err := fetch(ts.Client(), ts.URL); err == nil {
			t.Error("fetch accepted a failed or malformed scrape")
		}
		ts.Close()
	}
}

// TestQuantileInterpolates pins quantile to histogram_quantile over the
// increase between two scrapes: linear inside the bucket holding the rank,
// from 0 in the first bucket, the highest finite bound in the +Inf bucket.
func TestQuantileInterpolates(t *testing.T) {
	parse := func(counts ...int) scrape {
		text := "# HELP h x\n# TYPE h histogram\n"
		for i, le := range []string{"1", "2", "+Inf"} {
			text += fmt.Sprintf("h_bucket{c=\"a\",le=%q} %d\n", le, counts[i])
		}
		fams, err := prom.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		return fams[0].Samples
	}
	// Between the scrapes: 10 observations up to 1, 20 in (1, 2], 10 above 2.
	prev, cur := parse(5, 5, 5), parse(15, 35, 45)
	for _, c := range []struct{ q, want float64 }{
		{0.1, 0.4}, // rank 4 of the first bucket's 10, from 0
		{0.5, 1.5}, // rank 20: 10 past le=1, half of (1, 2]'s 20
		{0.9, 2},   // rank 36 lies in +Inf: the highest finite bound
	} {
		if got := quantile(c.q, cur, prev, "h", "c", "a"); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(0.5, cur, cur, "h", "c", "a"); got != 0 {
		t.Errorf("quantile with no increase = %v, want 0", got)
	}
}
