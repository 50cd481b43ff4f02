package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/asplos17/nr/internal/core"
	"github.com/asplos17/nr/internal/miniredis"
	"github.com/asplos17/nr/internal/obs/tsdb"
)

// samplePayload is a representative /metrics body: NR keyspace with
// telemetry, one SLO in breach, and a WAL.
func samplePayload() *payload {
	return &payload{
		Server: miniredis.ServerStats{
			UptimeSeconds:    125,
			ConnectedClients: 3,
			TotalConnections: 17,
			TotalCommands:    1234567,
		},
		NR: &core.Metrics{
			Stats: core.Stats{ReadOps: 1100000, UpdateOps: 140000},
			Log:   core.LogGauges{Tail: 5000, Completed: 4990, Occupancy: 0.12},
			Replicas: []core.ReplicaGauges{
				{Node: 0, CompletedLag: 2, ReaderAcquires: 90000, Registered: 4},
				{Node: 1, CompletedLag: 7, ReaderAcquires: 80000, Registered: 4},
			},
			Persist: &core.PersistGauges{Fsyncs: 321, DurableLag: 12},
		},
		Telemetry: &telemetryPayload{
			IntervalSeconds: 1,
			Windows: []tsdb.Window{
				{OpsPerSec: 90000},
				{
					OpsPerSec: 123456, ReadOpsPerSec: 110000, UpdateOpsPerSec: 13456,
					CombinesPerSec: 420, BatchMean: 12.5, BatchP50: 8, BatchP99: 64,
					ReadP50Ns: 850, ReadP99Ns: 12400, ReadP999Ns: 93000,
					UpdateP50Ns: 2100, UpdateP99Ns: 51000, UpdateP999Ns: 410000,
					HasWAL: true, WALAppendsPerSec: 13000, WALFsyncsPerSec: 55,
					FsyncMeanNs: 1800000, DurableLag: 12,
					Nodes: []tsdb.NodeWindow{
						{Node: 0, ReadOpsPerSec: 60000, UpdateOpsPerSec: 7000, CombineBusyFrac: 0.41},
						{Node: 1, ReadOpsPerSec: 50000, UpdateOpsPerSec: 6456, CombineBusyFrac: 0.38},
					},
				},
			},
			SLOs: []tsdb.SLOStatus{{
				Class: "read", P99Ns: 10000, P999Ns: 100000,
				CurrentP99Ns: 12400, CurrentP999Ns: 93000,
				Breached: true, BreachedWindows: 3, TotalWindows: 60, BudgetBurn: 5,
			}},
		},
	}
}

func TestRenderFrame(t *testing.T) {
	cur := samplePayload()
	prev := samplePayload()
	prev.Server.TotalCommands -= 100000

	frame := render(cur, prev, time.Second)
	for _, want := range []string{
		"nrtop",                      // header
		"clients 3",                  // server stats
		"ops/s 123.5k",               // windowed throughput
		"p99 12.4µs",                 // read tail from the window
		"BATCH       mean 12.5",      // batch distribution
		"HISTORY",                    // sparkline
		"occupancy 12.0%",            // log gauge
		"NODE",                       // replica table header
		"WAL         durable lag 12", // durability
		"BREACH (3/60 windows)",      // SLO state
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q\n%s", want, frame)
		}
	}
}

func TestRenderFirstFrameAndBaseline(t *testing.T) {
	// First frame: no previous poll, telemetry still warming up.
	cur := samplePayload()
	cur.Telemetry.Windows = nil
	frame := render(cur, nil, 0)
	if !strings.Contains(frame, "warming up") {
		t.Errorf("first frame without windows should warm up:\n%s", frame)
	}

	// Baseline method: no NR block at all.
	frame = render(&payload{}, nil, 0)
	if !strings.Contains(frame, "no NR metrics") {
		t.Errorf("baseline frame should say so:\n%s", frame)
	}
}

func TestFetchAgainstServer(t *testing.T) {
	want := samplePayload()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(want)
	}))
	defer ts.Close()

	got, err := fetch(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got.Server.TotalCommands != want.Server.TotalCommands {
		t.Errorf("TotalCommands = %d, want %d", got.Server.TotalCommands, want.Server.TotalCommands)
	}
	if got.NR == nil || got.NR.Stats.ReadOps != want.NR.Stats.ReadOps {
		t.Errorf("NR stats did not round-trip: %+v", got.NR)
	}
	if got.Telemetry == nil || len(got.Telemetry.Windows) != 2 {
		t.Fatalf("telemetry did not round-trip: %+v", got.Telemetry)
	}
	if w := got.Telemetry.Windows[1]; w.OpsPerSec != 123456 {
		t.Errorf("window ops/s = %v, want 123456", w.OpsPerSec)
	}
	if len(got.Telemetry.SLOs) != 1 || !got.Telemetry.SLOs[0].Breached {
		t.Errorf("SLO did not round-trip: %+v", got.Telemetry.SLOs)
	}
}
