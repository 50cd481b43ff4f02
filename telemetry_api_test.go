// Public-surface tests for the continuous telemetry plane: WithTelemetry /
// WithSLO wiring on plain, sharded, and persistent instances, the unified
// snapshot's WAL durability gauges, and the reader-acquisition counter.
package nr_test

import (
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

func TestWithSLOBreachNotify(t *testing.T) {
	var fired atomic.Int32
	var gotClass atomic.Value
	inst, err := nr.New(newKV,
		nr.WithNodes(1, 2, 1),
		nr.WithTelemetry(2*time.Millisecond, 16),
		// 1ns p99: every window with read traffic breaches.
		nr.WithSLO(nr.OpRead, time.Nanosecond, 0),
		nr.WithSLONotify(func(ev nr.BreachEvent) {
			fired.Add(1)
			gotClass.Store(ev.Status.Class)
		}),
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
		t.Fatal("unmeetable SLO never fired the breach callback")
	}
	if c, _ := gotClass.Load().(string); c != "read" {
		t.Errorf("breach class = %q, want read", c)
	}
	sts := inst.Telemetry().SLOStatuses()
	if len(sts) != 1 || sts[0].BreachedWindows == 0 || !strings.Contains(sts[0].Class, "read") {
		t.Errorf("SLO statuses = %+v, want breached read objective", sts)
	}
	if sts[0].BudgetBurn <= 1 {
		t.Errorf("BudgetBurn = %v, want > 1 when every window breaches", sts[0].BudgetBurn)
	}
}

func TestShardedTelemetryAggregates(t *testing.T) {
	inst, err := nr.NewSharded(newKV, 4,
		nr.KeyMapper(4, func(op kvOp) (uint64, bool) { return op.Key, true }),
		nr.WithNodes(2, 4, 1),
		nr.WithTelemetry(2*time.Millisecond, 16),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	tel := inst.Telemetry()
	if tel == nil {
		t.Fatal("Telemetry() nil on a sharded instance built with WithTelemetry")
	}
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		for i := uint64(0); i < 200; i++ {
			h.Execute(kvOp{Key: i, Delta: 1})
		}
		if w, ok := tel.Last(); ok && w.UpdateOpsPerSec > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sharded collector derived no traffic window within deadline")
		}
	}
}
