package topology

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	tp := New(4, 14, 2)
	if got := tp.Nodes(); got != 4 {
		t.Errorf("Nodes() = %d, want 4", got)
	}
	if got := tp.CoresPerNode(); got != 14 {
		t.Errorf("CoresPerNode() = %d, want 14", got)
	}
	if got := tp.SMT(); got != 2 {
		t.Errorf("SMT() = %d, want 2", got)
	}
	if got := tp.ThreadsPerNode(); got != 28 {
		t.Errorf("ThreadsPerNode() = %d, want 28", got)
	}
	if got := tp.TotalThreads(); got != 112 {
		t.Errorf("TotalThreads() = %d, want 112", got)
	}
}

func TestPresetTopologies(t *testing.T) {
	if got := Intel4x14x2().TotalThreads(); got != 112 {
		t.Errorf("Intel preset threads = %d, want 112", got)
	}
	if got := AMD8x6().TotalThreads(); got != 48 {
		t.Errorf("AMD preset threads = %d, want 48", got)
	}
	if got := AMD8x6().Nodes(); got != 8 {
		t.Errorf("AMD preset nodes = %d, want 8", got)
	}
}

func TestValidate(t *testing.T) {
	bad := []Topology{
		{nodes: 0, coresPerNode: 1, smt: 1},
		{nodes: 1, coresPerNode: 0, smt: 1},
		{nodes: 1, coresPerNode: 1, smt: 0},
		{nodes: -1, coresPerNode: 2, smt: 2},
	}
	for _, tp := range bad {
		if err := tp.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", tp)
		}
	}
	if err := New(1, 1, 1).Validate(); err != nil {
		t.Errorf("Validate(1,1,1) = %v, want nil", err)
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0,1,1) did not panic")
		}
	}()
	New(0, 1, 1)
}

func TestNodeOfFillPolicy(t *testing.T) {
	tp := New(4, 14, 2) // 28 threads/node
	cases := []struct{ thread, node int }{
		{0, 0}, {27, 0}, {28, 1}, {55, 1}, {56, 2}, {84, 3}, {111, 3},
		{112, 0}, // wraps when oversubscribed
	}
	for _, c := range cases {
		if got := tp.NodeOf(c.thread); got != c.node {
			t.Errorf("NodeOf(%d) = %d, want %d", c.thread, got, c.node)
		}
	}
}

func TestNodeOfPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NodeOf(-1) did not panic")
		}
	}()
	Intel4x14x2().NodeOf(-1)
}

func TestFillPlacementMatchesNodeOf(t *testing.T) {
	tp := Intel4x14x2()
	p := NewFillPlacement(tp)
	for i := 0; i < tp.TotalThreads(); i++ {
		th, node := p.Next()
		if th != i {
			t.Fatalf("thread id = %d, want %d", th, i)
		}
		if want := tp.NodeOf(i); node != want {
			t.Fatalf("placement node for thread %d = %d, want %d", i, node, want)
		}
	}
	if p.Assigned() != tp.TotalThreads() {
		t.Errorf("Assigned() = %d, want %d", p.Assigned(), tp.TotalThreads())
	}
}

func TestString(t *testing.T) {
	tp := New(2, 3, 1)
	if s := tp.String(); !strings.Contains(s, "2 nodes") || !strings.Contains(s, "6 threads") {
		t.Errorf("String() = %q, missing dimensions", s)
	}
}

// Property: every thread maps to a valid node, and the mapping is contiguous
// in blocks of ThreadsPerNode.
func TestNodeOfProperties(t *testing.T) {
	f := func(nodes, cores, smt uint8, thread uint16) bool {
		tp := New(int(nodes%8)+1, int(cores%16)+1, int(smt%4)+1)
		n := tp.NodeOf(int(thread))
		if n < 0 || n >= tp.Nodes() {
			return false
		}
		// All threads within the same block share a node.
		block := int(thread) / tp.ThreadsPerNode()
		return n == block%tp.Nodes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
