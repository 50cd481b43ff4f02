package nr_test

import (
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	nr "github.com/asplos17/nr"
)

func newRegister() nr.Sequential[regOp, int] { return &register{} }

func TestOptionsConfigureTopology(t *testing.T) {
	inst, err := nr.New(newRegister, nr.WithNodes(3, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if inst.Replicas() != 3 {
		t.Errorf("Replicas = %d, want 3", inst.Replicas())
	}
	// 3 nodes × 2 threads: exactly 6 registrations succeed.
	for k := 0; k < 6; k++ {
		if _, err := inst.Register(); err != nil {
			t.Fatalf("registration %d failed: %v", k, err)
		}
	}
	if _, err := inst.Register(); err == nil {
		t.Error("7th registration on a 6-thread topology succeeded")
	}
}

func TestLaterOptionWins(t *testing.T) {
	inst, err := nr.New(newRegister, nr.WithNodes(4, 2, 1), nr.WithLogEntries(512), nr.WithNodes(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if inst.Replicas() != 2 {
		t.Errorf("Replicas = %d, want 2 (later option should win)", inst.Replicas())
	}
}

func TestWithMetricsPopulatesObserved(t *testing.T) {
	inst, err := nr.New(newRegister, nr.WithNodes(2, 2, 1), nr.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	const writes, reads = 50, 150
	for k := 0; k < writes; k++ {
		h.Execute(regOp{write: true, val: k})
	}
	for k := 0; k < reads; k++ {
		h.Execute(regOp{})
	}
	m := inst.Metrics()
	if m.Observed == nil {
		t.Fatal("Metrics().Observed == nil on an instance built WithMetrics")
	}
	if m.Observed.Read.Count != reads {
		t.Errorf("observed reads = %d, want %d", m.Observed.Read.Count, reads)
	}
	if m.Observed.Update.Count != writes {
		t.Errorf("observed updates = %d, want %d", m.Observed.Update.Count, writes)
	}
	if m.Stats.ReadOps != reads || m.Stats.UpdateOps != writes {
		t.Errorf("Stats = %d/%d, want %d/%d", m.Stats.ReadOps, m.Stats.UpdateOps, reads, writes)
	}
	// The snapshot marshals to JSON (the export surfaces depend on this).
	if _, err := json.Marshal(m); err != nil {
		t.Errorf("Metrics snapshot does not marshal: %v", err)
	}
}

func TestWithoutMetricsObservedIsNil(t *testing.T) {
	inst, err := nr.New(newRegister, nr.WithNodes(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if m := inst.Metrics(); m.Observed != nil {
		t.Error("Observed non-nil without WithMetrics")
	}
}

// countingObserver counts OpDone events through the public Observer alias.
type countingObserver struct {
	nr.NopObserver
	n  int64
	mu sync.Mutex
}

func (c *countingObserver) OpDone(node int, class nr.OpClass, elapsed time.Duration) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func TestWithObserverComposesWithWithMetrics(t *testing.T) {
	co := &countingObserver{}
	inst, err := nr.New(newRegister, nr.WithNodes(1, 2, 1), nr.WithObserver(co), nr.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	const total = 40
	for k := 0; k < total; k++ {
		h.Execute(regOp{write: k%2 == 0, val: k})
	}
	co.mu.Lock()
	seen := co.n
	co.mu.Unlock()
	if seen != total {
		t.Errorf("custom observer saw %d OpDone events, want %d", seen, total)
	}
	m := inst.Metrics()
	if m.Observed == nil {
		t.Fatal("built-in metrics lost when composed with a custom observer")
	}
	if got := m.Observed.Read.Count + m.Observed.Update.Count; got != total {
		t.Errorf("built-in metrics saw %d ops, want %d", got, total)
	}
}

func TestWithObserverNilIsIgnored(t *testing.T) {
	inst, err := nr.New(newRegister, nr.WithNodes(1, 1, 1), nr.WithObserver(nil))
	if err != nil {
		t.Fatal(err)
	}
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Execute(regOp{write: true, val: 3}); got != 3 {
		t.Errorf("Execute = %d, want 3", got)
	}
}

func TestRegisterAfterCloseReturnsErrClosed(t *testing.T) {
	inst, err := nr.New(newRegister, nr.WithNodes(2, 2, 1), nr.WithDedicatedCombiners())
	if err != nil {
		t.Fatal(err)
	}
	inst.Close()
	if _, err := inst.Register(); !errors.Is(err, nr.ErrClosed) {
		t.Errorf("Register after Close: err = %v, want nr.ErrClosed", err)
	}
	if _, err := inst.RegisterOnNode(0); !errors.Is(err, nr.ErrClosed) {
		t.Errorf("RegisterOnNode after Close: err = %v, want nr.ErrClosed", err)
	}
}

func TestWithStallThresholdSurfacesStalls(t *testing.T) {
	inst, err := nr.New(newRegister, nr.WithNodes(1, 2, 1), nr.WithStallThreshold(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	h.Execute(regOp{write: true, val: 1})
	if hl := inst.Health(); hl.Poisoned || len(hl.StalledNodes) != 0 {
		t.Errorf("healthy instance reports %+v", hl)
	}
}
