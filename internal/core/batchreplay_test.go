package core

import (
	"testing"

	"github.com/asplos17/nr/internal/topology"
)

// TestBatchReplayLocksOncePerBatch pins the batch-aware replay contract on
// helper nodes: when a reader on an idle node catches its replica up past N
// log entries appended elsewhere, it takes the replica writer lock once for
// the whole contiguous batch — not once per entry. The rwlock's
// WriterAcquires counter is the witness.
func TestBatchReplayLocksOncePerBatch(t *testing.T) {
	const updates = 32
	inst, err := New(func() Sequential[mlOp, int64] {
		return &mlCells{cells: make([]int64, 1)}
	}, Options{Topology: topology.New(2, 2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	h0, err := inst.RegisterOnNode(0)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < updates; k++ {
		h0.Execute(mlOp{kind: 0, class: 0, delta: 1})
	}

	var m Metrics
	inst.MetricsInto(&m, false)
	before := m.Replicas[1].WriterAcquires
	if m.Replicas[1].LocalTail != 0 {
		t.Fatalf("node 1 replayed %d entries before its first read", m.Replicas[1].LocalTail)
	}

	h1, err := inst.RegisterOnNode(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := h1.Execute(mlOp{kind: 1, class: 0}); got != updates {
		t.Fatalf("node-1 read = %d, want %d", got, updates)
	}

	inst.MetricsInto(&m, false)
	if m.Replicas[1].LocalTail != updates {
		t.Fatalf("node 1 localTail = %d after read, want %d", m.Replicas[1].LocalTail, updates)
	}
	delta := m.Replicas[1].WriterAcquires - before
	if delta == 0 {
		t.Fatal("node-1 read refreshed without taking the replica writer lock — counter broken")
	}
	if delta > 2 {
		t.Fatalf("node-1 catch-up over %d entries took the writer lock %d times, want once per batch (<= 2)",
			updates, delta)
	}
}
