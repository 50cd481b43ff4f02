package main

import (
	"math"
	"testing"
	"time"
)

// smokeConfig is a run a fraction of a second long: one round of 200ms,
// one set-up, small calibrations and a short recovery epilogue.
func smokeConfig(t *testing.T, root, serverBin string) runConfig {
	return runConfig{
		seed: 7, seconds: 200 * time.Millisecond, warm: 20 * time.Millisecond, rounds: 1, setups: 1,
		root: root, scratch: t.TempDir(), calibBatch: 200, epilogueOps: 2000, serverBin: serverBin,
	}
}

// Every workload runs end to end, untraced and traced, verifies its
// outputs, and emits exactly the metric names spec.go (and so
// BENCHMARK.json) lists.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads, child server included")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	serverBin, _, err := buildServer(root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name, list := w.name+"/end-to-end", endToEnd
			if traced {
				name, list = w.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := smokeConfig(t, root, serverBin)
				cfg.traced = traced
				res, err := runWorkload(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.FailShare != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, attempted %d, failed %d: %v", res.Correct, res.Attempted, res.Failed, res.Checks)
				}
				if len(res.Metrics) != len(list) {
					t.Errorf("emitted %d metrics, spec lists %d", len(res.Metrics), len(list))
				}
				for _, spec := range list {
					m, ok := res.Metrics[spec.name]
					if !ok || m.Unit != spec.unit {
						t.Errorf("metric %s: emitted %+v (present %v), want unit %s", spec.name, m, ok, spec.unit)
					}
					if !traced && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, must never be 0", spec.name, m.Value)
					}
				}
				if !traced {
					return
				}
				value := func(name string) float64 { return res.Metrics[name].Value }
				if w.kind == kindWire {
					if got := value("server.writes_per_req"); got < 0.99 || got > 1.01 {
						t.Errorf("server.writes_per_req = %v, today one write per command", got)
					}
					var sum float64
					for _, row := range res.Ledger[:len(res.Ledger)-1] {
						sum += row.Us
					}
					if rtt := res.Ledger[len(res.Ledger)-1].Us; math.Abs(sum-rtt) > 1e-6*math.Abs(rtt) || rtt <= 0 {
						t.Errorf("ledger rows sum to %v us, client rtt is %v us", sum, rtt)
					}
				} else {
					if got := value("store.execs_per_update"); got != libNodes {
						t.Errorf("store.execs_per_update = %v, want one per replica", got)
					}
					if value("core.update_self_ns") <= 0 {
						t.Errorf("core.update_self_ns = %v", value("core.update_self_ns"))
					}
				}
				if w.kind == kindDurable && value("persist.wal_bytes_per_op") <= 0 {
					t.Errorf("persist.wal_bytes_per_op = %v", value("persist.wal_bytes_per_op"))
				}
			})
		}
	}
}
