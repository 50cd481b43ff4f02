package obs

import (
	"testing"
	"time"
)

func TestMetricsSnapshotAggregatesAcrossNodes(t *testing.T) {
	m := NewMetrics(2)
	m.OpDone(0, OpRead, 100*time.Nanosecond)
	m.OpDone(1, OpRead, 200*time.Nanosecond)
	m.OpDone(0, OpUpdate, time.Microsecond)
	m.CombineEnd(0, 3, 3, time.Microsecond)
	m.CombineEnd(1, 5, 5, time.Microsecond)
	m.CombineEnd(1, 0, 0, time.Nanosecond) // an empty round: time, no batch

	s := m.Snapshot()
	if s.Read.Count != 2 {
		t.Errorf("merged read count = %d, want 2", s.Read.Count)
	}
	if s.Update.Count != 1 {
		t.Errorf("merged update count = %d, want 1", s.Update.Count)
	}
	if s.Batch.Count != 2 || s.Batch.Max != 5 || s.Batch.Mean != 4 {
		t.Errorf("merged batch dist = %+v, want count 2 max 5 mean 4", s.Batch)
	}
	if s.Read.MeanNs != 150 || s.Read.MaxNs != 200 || s.Read.P50Ns != 96 {
		t.Errorf("merged read latency = %+v, want mean 150 max 200 p50 96 (100's bucket)", s.Read)
	}
	if len(s.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2", len(s.Nodes))
	}
	n0, n1 := s.Nodes[0], s.Nodes[1]
	if n0.Batch.P50 != 3 || n1.Batch.P50 != 5 {
		t.Errorf("per-node batch p50 = %d/%d, want 3/5 (small sizes are exact)", n0.Batch.P50, n1.Batch.P50)
	}
	if n0.CombineNanos != 1000 || n1.CombineNanos != 1001 {
		t.Errorf("combine ns = %d/%d, want 1000/1001", n0.CombineNanos, n1.CombineNanos)
	}
}

func TestMetricsOutOfRangeNodeClampsToZero(t *testing.T) {
	m := NewMetrics(2)
	m.OpDone(-1, OpRead, time.Nanosecond)
	m.OpDone(99, OpUpdate, time.Nanosecond)
	s := m.Snapshot()
	if s.Nodes[0].Read.Count != 1 || s.Nodes[0].Update.Count != 1 {
		t.Errorf("clamped events not on node 0: %+v", s.Nodes[0])
	}
}

// recorder counts events per hook for composition tests.
type recorder struct {
	Nop
	combines, ops int
}

func (r *recorder) CombineEnd(int, int, int, time.Duration) { r.combines++ }
func (r *recorder) OpDone(int, OpClass, time.Duration)      { r.ops++ }

func TestCombine(t *testing.T) {
	if Combine() != Observer(Nop{}) {
		t.Error("Combine() != Nop{}")
	}
	if Combine(nil, nil) != Observer(Nop{}) {
		t.Error("Combine(nil, nil) != Nop{}")
	}
	r := &recorder{}
	if got := Combine(nil, r); got != Observer(r) {
		t.Error("Combine with one live observer should return it unwrapped")
	}
	m := NewMetrics(1)
	o := Combine(r, m)
	if _, isMulti := o.(Multi); !isMulti {
		t.Fatalf("Combine(two) = %T, want Multi", o)
	}
	// Fan-out reaches both.
	o.CombineEnd(0, 2, 2, time.Nanosecond)
	o.OpDone(0, OpRead, time.Nanosecond)
	if r.combines != 1 || r.ops != 1 {
		t.Errorf("recorder missed events: %+v", r)
	}
	if s := m.Snapshot(); s.Read.Count != 1 || s.Batch.Count != 1 {
		t.Errorf("metrics missed events: read count = %d, batch count = %d", s.Read.Count, s.Batch.Count)
	}
}

func TestOpClassString(t *testing.T) {
	if OpRead.String() != "read" || OpUpdate.String() != "update" || NumOpClasses.String() != "unknown" {
		t.Error("OpClass.String mismatch")
	}
}
