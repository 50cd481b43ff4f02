// Command nrtop is a live terminal dashboard for a running nrredis: it
// scrapes the Prometheus exposition on /metrics and renders throughput,
// latency tails, combiner batch distribution, replica and WAL durability
// lag, and SLO status — top(1) for the NR plane, no dependencies beyond the
// standard library and an ANSI terminal.
//
// Usage:
//
//	nrredis -metrics 127.0.0.1:6390 &
//	nrtop -addr http://127.0.0.1:6390
//
// Every rate is a counter delta between two scrapes over the server's
// uptime delta, and the sparkline is the ops/s of nrtop's own frames. Tails
// are estimated from the histograms' `le` buckets as PromQL's
// histogram_quantile does: linearly inside the bucket that holds the rank.
// The latency ladder is powers of 4 from 64ns to about 4.3s, so a latency
// quantile is known to within its bucket, a factor of 4; the batch ladder is
// powers of 2. The latency histograms hold one op in 16 per handle. They,
// the batch sizes and the per-node combining time (BUSY) come from the
// server's newest telemetry capture (nrredis -telemetry, on by default), so
// their deltas span whole capture intervals: BUSY reads true when -interval
// is a multiple of the server's cadence (both 1s by default), and high or
// low on a frame whose scrapes straddle one capture more or fewer.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"github.com/asplos17/nr/internal/obs/prom"
)

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:6390", "nrredis metrics base URL")
		interval = flag.Duration("interval", time.Second, "poll cadence")
		once     = flag.Bool("once", false, "scrape twice, -interval apart, render one frame without ANSI control codes and exit")
		frames   = flag.Int("frames", 0, "exit after this many frames; 0 runs until interrupted")
	)
	flag.Parse()

	client := &http.Client{Timeout: 5 * time.Second}
	scrapeOrExit := func() scrape {
		s, err := fetch(client, *addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nrtop: %v\n", err)
			os.Exit(1)
		}
		return s
	}
	var t top
	if *once {
		t.prev = scrapeOrExit()
		time.Sleep(*interval)
		fmt.Print(t.render(scrapeOrExit()))
		return
	}
	for n := 1; ; n++ {
		// Home + clear-to-end redraw; avoids full-screen flicker.
		fmt.Print("\x1b[H\x1b[2J" + t.render(scrapeOrExit()))
		if *frames > 0 && n >= *frames {
			return
		}
		time.Sleep(*interval)
	}
}

// fetch scrapes base's /metrics and parses the exposition.
func fetch(client *http.Client, base string) (scrape, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	fams, err := prom.Parse(string(body))
	if err != nil {
		return nil, fmt.Errorf("parsing /metrics: %v", err)
	}
	var s scrape
	for _, f := range fams {
		s = append(s, f.Samples...)
	}
	return s, nil
}
