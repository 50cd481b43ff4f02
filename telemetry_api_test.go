// Public-surface tests for the continuous telemetry plane: WithTelemetry /
// WithSLO wiring on plain and persistent instances, the unified
// snapshot's WAL durability gauges, and the reader-acquisition counter.
package nr_test

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	nr "github.com/asplos17/nr"
)

// TestUnifiedSnapshotCarriesDurableLag is the regression test that a
// persistent instance's Metrics() snapshot folds in the WAL: Persist is
// non-nil, counters flow, and DurableLag closes to zero after an explicit
// SyncWAL.
func TestUnifiedSnapshotCarriesDurableLag(t *testing.T) {
	dir := t.TempDir()
	inst := smallPersistent(t, dir)
	defer inst.Close()
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		h.Execute(kvOp{Key: i % 5, Delta: 1})
	}

	m := inst.Metrics()
	if m.Persist == nil {
		t.Fatal("persistent instance's snapshot has no Persist gauges")
	}
	// The WAL follows the log, so right after the acks it may hold any
	// prefix; whatever it lacks is durable lag, with no gauge of its own.
	if m.Persist.Appends > 100 || m.Persist.DurableIndex+m.Persist.DurableLag != 100 {
		t.Errorf("before SyncWAL: Appends = %d, DurableIndex %d + DurableLag %d, want <= 100 and = 100",
			m.Persist.Appends, m.Persist.DurableIndex, m.Persist.DurableLag)
	}
	if err := inst.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	m = inst.Metrics()
	if m.Persist.Appends != 100 {
		t.Errorf("Persist.Appends = %d after SyncWAL, want 100", m.Persist.Appends)
	}
	if m.Persist.Fsyncs == 0 || m.Persist.FsyncNanos == 0 {
		t.Errorf("after SyncWAL: Fsyncs = %d, FsyncNanos = %d, want both > 0",
			m.Persist.Fsyncs, m.Persist.FsyncNanos)
	}
	if m.Persist.DurableIndex < 100 {
		t.Errorf("DurableIndex = %d, want >= 100 after sync", m.Persist.DurableIndex)
	}
	if m.Persist.DurableLag != 0 {
		t.Errorf("DurableLag = %d after SyncWAL, want 0", m.Persist.DurableLag)
	}

	// A transient instance must not grow the gauges.
	plain, err := nr.New(newKV, nr.WithNodes(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if m := plain.Metrics(); m.Persist != nil {
		t.Error("transient instance's snapshot claims Persist gauges")
	}
}

func TestWithTelemetryWindows(t *testing.T) {
	inst, err := nr.New(newKV,
		nr.WithNodes(2, 2, 1),
		nr.WithTelemetry(2*time.Millisecond, 16),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	tel := inst.Telemetry()
	if tel == nil {
		t.Fatal("Telemetry() nil on an instance built with WithTelemetry")
	}

	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		for i := uint64(0); i < 50; i++ {
			h.Execute(kvOp{Key: i, Delta: 1})
			h.Execute(kvOp{Key: i, Read: true})
		}
		if ws := tel.Snapshot(); len(ws) > 0 {
			var traffic *nr.TelemetryWindow
			for i := range ws {
				if ws[i].OpsPerSec > 0 {
					traffic = &ws[i]
					break
				}
			}
			if traffic != nil {
				if traffic.ReadOpsPerSec <= 0 || traffic.UpdateOpsPerSec <= 0 {
					t.Errorf("traffic window has zero class rate: %+v", traffic)
				}
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no telemetry window with traffic within deadline")
		}
	}
	// Reader instrumentation flows into the unified snapshot: the reads
	// above acquired the distributed read lock.
	if m := inst.Metrics(); m.Stats.ReaderAcquires == 0 {
		t.Error("Stats.ReaderAcquires = 0 after read traffic")
	}
}

// TestWithSLOBreachNotify: a breached SLO fires the flight recorder's
// automatic dump, with the breached class in its reason.
func TestWithSLOBreachNotify(t *testing.T) {
	var fired atomic.Int32
	var gotReason atomic.Value
	rec := nr.NewFlightRecorder(nr.TraceConfig{OnDump: func(reason string, _ nr.TraceSnapshot) {
		fired.Add(1)
		gotReason.Store(reason)
	}})
	inst, err := nr.New(newKV,
		nr.WithNodes(1, 2, 1),
		nr.WithTelemetry(2*time.Millisecond, 16),
		// 1ns p99: every window with read traffic breaches.
		nr.WithSLO(nr.OpRead, time.Nanosecond, 0),
		nr.WithFlightRecorderInstance(rec),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for fired.Load() == 0 && time.Now().Before(deadline) {
		for i := uint64(0); i < 100; i++ {
			h.Execute(kvOp{Key: i, Read: true})
		}
		time.Sleep(time.Millisecond)
	}
	if fired.Load() == 0 {
		t.Fatal("unmeetable SLO never fired the recorder's dump")
	}
	if r, _ := gotReason.Load().(string); r != "slo-breach-read" {
		t.Errorf("dump reason = %q, want slo-breach-read", r)
	}
	sts := inst.Telemetry().SLOStatuses()
	if len(sts) != 1 || sts[0].BreachedWindows == 0 || !strings.Contains(sts[0].Class, "read") {
		t.Errorf("SLO statuses = %+v, want breached read objective", sts)
	}
	if sts[0].BudgetBurn <= 1 {
		t.Errorf("BudgetBurn = %v, want > 1 when every window breaches", sts[0].BudgetBurn)
	}
}

// telemetryInstances builds the two shapes the collector captures: a plain
// 2-node instance and a durable one. The hour-long interval leaves every
// capture to the test's own Advance calls.
func telemetryInstances(t *testing.T, windows int) []telemetryCase {
	t.Helper()
	build := func(extra ...nr.Option) *nr.Instance[kvOp, uint64] {
		opts := append([]nr.Option{nr.WithNodes(2, 2, 1), nr.WithTelemetry(time.Hour, windows)}, extra...)
		inst, err := nr.New(newKV, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(inst.Close)
		return inst
	}
	return []telemetryCase{
		{"plain", build()},
		{"durable", build(nr.WithPersistence(t.TempDir(), kvCodec{}, groupInterval(time.Millisecond)))},
	}
}

type telemetryCase struct {
	name string
	inst *nr.Instance[kvOp, uint64]
}

// TestTelemetryCaptureDoesNotAllocate pins the collector's tick on a real
// instance at zero allocations once the ring is full: the snapshot refill,
// the WAL gauges of a durable instance included, and the bucket capture.
func TestTelemetryCaptureDoesNotAllocate(t *testing.T) {
	for _, tc := range telemetryInstances(t, 4) {
		inst := tc.inst
		t.Run(tc.name, func(t *testing.T) {
			h, err := inst.Register()
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 100; i++ {
				h.Execute(kvOp{Key: i % 5, Delta: 1})
				h.Execute(kvOp{Key: i % 5, Read: true})
			}
			tel := inst.Telemetry()
			for range 8 { // fill the ring and size every slot
				tel.Advance()
			}
			if n := testing.AllocsPerRun(100, tel.Advance); n != 0 {
				t.Errorf("Advance allocates %v per tick, want 0", n)
			}
		})
	}
}

// TestTelemetryWindowsReconcileWithSnapshot drives ops from handles on both
// nodes between manual captures and checks every window against the
// instance's own snapshot taken at the same point: rates times the window
// length are the Stats, per-replica and WAL counter deltas, and the gauges
// are the snapshot's.
func TestTelemetryWindowsReconcileWithSnapshot(t *testing.T) {
	const rounds = 3
	for _, tc := range telemetryInstances(t, 8) {
		inst, name := tc.inst, tc.name
		t.Run(name, func(t *testing.T) {
			var hs [2]*nr.Handle[kvOp, uint64]
			for n := range hs {
				h, err := inst.RegisterOnNode(n)
				if err != nil {
					t.Fatal(err)
				}
				hs[n] = h
			}
			tel := inst.Telemetry()
			durable := name == "durable"
			capture := func() nr.Metrics {
				if durable {
					// The WAL follower trails the log; settle it so the
					// capture and the snapshot read the same Appends.
					if err := inst.SyncWAL(); err != nil {
						t.Fatal(err)
					}
				}
				tel.Advance()
				return inst.Metrics()
			}
			snaps := []nr.Metrics{capture()}
			for r := 1; r <= rounds; r++ {
				for n, h := range hs {
					for i := 0; i < 10*r+n; i++ {
						h.Execute(kvOp{Key: uint64(i % 7), Delta: 1})
					}
					for i := 0; i < 30*r; i++ {
						h.Execute(kvOp{Key: uint64(i % 7), Read: true})
					}
				}
				snaps = append(snaps, capture())
			}

			ws := tel.Snapshot()
			if len(ws) != rounds+1 {
				t.Fatalf("%d windows, want %d (one since New's capture, one per round)", len(ws), rounds+1)
			}
			ws = ws[1:] // New's capture to the first manual one: no traffic
			for k, w := range ws {
				prev, cur := &snaps[k], &snaps[k+1]
				if w.Seconds <= 0 {
					t.Fatalf("window %d: Seconds = %v", k, w.Seconds)
				}
				// reconcile checks that a window rate times its length is
				// the snapshot counter's delta over the same interval.
				reconcile := func(what string, perSec float64, cur, prev uint64) {
					t.Helper()
					if got := uint64(math.Round(perSec * w.Seconds)); got != cur-prev {
						t.Errorf("window %d: %s rate × Seconds = %d, snapshot delta %d", k, what, got, cur-prev)
					}
				}
				reconcile("ReadOps", w.ReadOpsPerSec, cur.Stats.ReadOps, prev.Stats.ReadOps)
				reconcile("UpdateOps", w.UpdateOpsPerSec, cur.Stats.UpdateOps, prev.Stats.UpdateOps)
				reconcile("Combines", w.CombinesPerSec, cur.Stats.Combines, prev.Stats.Combines)
				reconcile("ReaderRefreshes", w.ReaderRefreshPerSec, cur.Stats.ReaderRefreshes, prev.Stats.ReaderRefreshes)
				reconcile("ReaderAcquires", w.ReaderAcquiresPerSec, cur.Stats.ReaderAcquires, prev.Stats.ReaderAcquires)
				if want := uint64(2 * 30 * (k + 1)); cur.Stats.ReadOps-prev.Stats.ReadOps != want {
					t.Errorf("window %d: %d reads in Stats, drove %d", k, cur.Stats.ReadOps-prev.Stats.ReadOps, want)
				}
				if w.LogOccupancy != cur.Log.Occupancy {
					t.Errorf("window %d: LogOccupancy %v, snapshot %v", k, w.LogOccupancy, cur.Log.Occupancy)
				}
				var maxLag uint64
				for _, r := range cur.Replicas {
					maxLag = max(maxLag, r.CompletedLag)
				}
				if w.MaxReplicaLag != maxLag {
					t.Errorf("window %d: MaxReplicaLag %d, snapshot %d", k, w.MaxReplicaLag, maxLag)
				}
				if len(w.Nodes) != len(cur.Replicas) {
					t.Fatalf("window %d: %d node windows, %d replicas", k, len(w.Nodes), len(cur.Replicas))
				}
				for n, nw := range w.Nodes {
					rc, rp := &cur.Replicas[n], &prev.Replicas[n]
					node := fmt.Sprintf("node %d ", n)
					reconcile(node+"ReadOps", nw.ReadOpsPerSec, rc.ReadOps, rp.ReadOps)
					reconcile(node+"UpdateOps", nw.UpdateOpsPerSec, rc.UpdateOps, rp.UpdateOps)
					reconcile(node+"Combines", nw.CombinesPerSec, rc.Combines, rp.Combines)
					reconcile(node+"ReaderRefreshes", nw.ReaderRefreshPerSec, rc.ReaderRefreshes, rp.ReaderRefreshes)
					reconcile(node+"ReaderAcquires", nw.ReaderAcquiresPerSec, rc.ReaderAcquires, rp.ReaderAcquires)
					if want := uint64(10*(k+1) + n); rc.UpdateOps-rp.UpdateOps != want {
						t.Errorf("window %d node %d: %d updates in the replica gauges, drove %d", k, n, rc.UpdateOps-rp.UpdateOps, want)
					}
					if nw.CompletedLag != rc.CompletedLag {
						t.Errorf("window %d node %d: CompletedLag %d, snapshot %d", k, n, nw.CompletedLag, rc.CompletedLag)
					}
				}
				if w.HasWAL != durable {
					t.Errorf("window %d: HasWAL = %v on a %s instance", k, w.HasWAL, name)
				}
				if !durable {
					continue
				}
				reconcile("WAL appends", w.WALAppendsPerSec, cur.Persist.Appends, prev.Persist.Appends)
				reconcile("WAL fsyncs", w.WALFsyncsPerSec, cur.Persist.Fsyncs, prev.Persist.Fsyncs)
				if appends, want := cur.Persist.Appends-prev.Persist.Appends, uint64(2*10*(k+1)+1); appends != want {
					t.Errorf("window %d: %d WAL appends, drove %d updates", k, appends, want)
				}
				if w.DurableLag != cur.Persist.DurableLag {
					t.Errorf("window %d: DurableLag %d, snapshot %d", k, w.DurableLag, cur.Persist.DurableLag)
				}
			}
		})
	}
}
