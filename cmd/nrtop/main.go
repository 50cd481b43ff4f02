// Command nrtop is a live terminal dashboard for a running nrredis: it
// polls the /metrics JSON endpoint and renders per-window throughput,
// latency tails, combiner batch distribution, replica and WAL durability
// lag, and SLO status — top(1) for the NR plane, no dependencies beyond the
// standard library and an ANSI terminal.
//
// Usage:
//
//	nrredis -metrics 127.0.0.1:6390 &
//	nrtop -addr http://127.0.0.1:6390
//
// The windowed sections (latency, batch, ops/s sparkline, SLOs) come from
// the server-side telemetry collector (nrredis -telemetry, on by default);
// without it nrtop falls back to client-side rates derived from the
// cumulative counters between polls.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"
)

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:6390", "nrredis metrics base URL")
		interval = flag.Duration("interval", time.Second, "poll cadence")
		once     = flag.Bool("once", false, "render a single frame without ANSI control codes and exit")
		frames   = flag.Int("frames", 0, "exit after this many frames; 0 runs until interrupted")
	)
	flag.Parse()

	client := &http.Client{Timeout: 5 * time.Second}
	var prev *payload
	var prevAt time.Time
	n := 0
	for {
		cur, err := fetch(client, *addr)
		now := time.Now()
		if err != nil {
			fmt.Fprintf(os.Stderr, "nrtop: %v\n", err)
			os.Exit(1)
		}
		frame := render(cur, prev, now.Sub(prevAt))
		if *once {
			fmt.Print(frame)
			return
		}
		// Home + clear-to-end redraw; avoids full-screen flicker.
		fmt.Print("\x1b[H\x1b[2J" + frame)
		prev, prevAt = cur, now
		n++
		if *frames > 0 && n >= *frames {
			return
		}
		time.Sleep(*interval)
	}
}

// fetch polls the JSON representation of /metrics.
func fetch(client *http.Client, base string) (*payload, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	var p payload
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %v", err)
	}
	return &p, nil
}
