package core

import (
	"sync"
	"testing"

	"github.com/asplos17/nr/internal/topology"
	"github.com/asplos17/nr/internal/waittest"
)

// TestRegisterExhaustionInterleavedWithRegisterOnNode interleaves fill-order
// Register with explicit RegisterOnNode until both are exhausted: the total
// handed out must be exactly the hardware-thread count, failures must be
// errors (never panics), and per-node capacity must hold.
func TestRegisterExhaustionInterleavedWithRegisterOnNode(t *testing.T) {
	topo := topology.New(3, 2, 2) // 3 nodes × 4 threads
	inst := newCounterInstance(t, Options{Topology: topo, LogEntries: 64})
	perNode := make(map[int]int)
	granted := 0
	// Alternate: explicitly grab a slot on node 2, then fill-register, so the
	// fill path has to skip over explicitly consumed positions.
	for i := 0; ; i++ {
		var h *Handle[ctrOp, uint64]
		var err error
		if i%2 == 0 {
			h, err = inst.RegisterOnNode(2)
			if err != nil {
				// Node 2 full; keep going with fill registration only.
				h, err = inst.Register()
			}
		} else {
			h, err = inst.Register()
		}
		if err != nil {
			break
		}
		granted++
		perNode[h.Node()]++
		if granted > topo.TotalThreads() {
			t.Fatalf("granted %d handles, topology has %d threads", granted, topo.TotalThreads())
		}
	}
	if granted != topo.TotalThreads() {
		t.Errorf("granted %d handles, want %d", granted, topo.TotalThreads())
	}
	for n := 0; n < topo.Nodes(); n++ {
		if perNode[n] != topo.ThreadsPerNode() {
			t.Errorf("node %d got %d handles, want %d", n, perNode[n], topo.ThreadsPerNode())
		}
	}
	// Both styles must now fail cleanly.
	if _, err := inst.Register(); err == nil {
		t.Error("Register succeeded beyond capacity")
	}
	if _, err := inst.RegisterOnNode(0); err == nil {
		t.Error("RegisterOnNode succeeded beyond capacity")
	}
	// Every granted handle still works (spot check via fresh handles is
	// impossible now, so run one op per node through explicit inspection).
	inst.Quiesce()
}

// TestConcurrentRegistrationExhaustion hammers both registration paths from
// many goroutines; exactly TotalThreads must win and the losers must all
// get errors.
func TestConcurrentRegistrationExhaustion(t *testing.T) {
	topo := topology.New(2, 2, 2)
	inst := newCounterInstance(t, Options{Topology: topo, LogEntries: 64})
	const contenders = 32
	var wg sync.WaitGroup
	wins := make(chan *Handle[ctrOp, uint64], contenders)
	for g := 0; g < contenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var h *Handle[ctrOp, uint64]
			var err error
			if g%2 == 0 {
				h, err = inst.Register()
			} else {
				h, err = inst.RegisterOnNode(g % topo.Nodes())
			}
			if err == nil {
				wins <- h
			}
		}(g)
	}
	wg.Wait()
	close(wins)
	var handles []*Handle[ctrOp, uint64]
	for h := range wins {
		handles = append(handles, h)
	}
	if len(handles) != topo.TotalThreads() {
		t.Fatalf("%d registrations succeeded, want exactly %d", len(handles), topo.TotalThreads())
	}
	// All winners are usable concurrently.
	for _, h := range handles {
		wg.Add(1)
		go func(h *Handle[ctrOp, uint64]) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				h.Execute(ctrInc)
			}
		}(h)
	}
	wg.Wait()
	h := handles[0]
	if got := h.Execute(ctrRead); got != uint64(len(handles)*50) {
		t.Errorf("count = %d, want %d", got, len(handles)*50)
	}
}

// TestCloseIdempotentAndOptional: Close may be called twice, and an
// instance need not be closed at all.
func TestCloseIdempotentAndOptional(t *testing.T) {
	inst := newCounterInstance(t, smallTopo())
	inst.Close()
	inst.Close()                       // second Close is a no-op
	newCounterInstance(t, smallTopo()) // never closed
}

// TestDoubleCloseIsIdempotent: Close twice, and concurrently, must not
// panic or hang.
func TestDoubleCloseIsIdempotent(t *testing.T) {
	waittest.Deadline(t)
	inst := newCounterInstance(t, Options{Topology: topology.New(2, 2, 1), LogEntries: 64})
	inst.Close()
	inst.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() { defer wg.Done(); inst.Close() }()
	}
	wg.Wait()
}

// TestHandleUsableAfterClose: existing handles keep executing reads and
// updates correctly after Close, per its documented contract.
func TestHandleUsableAfterClose(t *testing.T) {
	waittest.Deadline(t)
	inst, err := New[ctrOp, uint64](func() Sequential[ctrOp, uint64] { return &counter{} },
		Options{Topology: topology.New(2, 2, 1), LogEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		h.Execute(ctrInc)
	}
	inst.Close()
	for k := 0; k < 10; k++ {
		if got := h.Execute(ctrInc); got != uint64(11+k) {
			t.Fatalf("increment %d after Close returned %d", k, got)
		}
	}
	if got := h.Execute(ctrRead); got != 20 {
		t.Errorf("read after Close = %d, want 20", got)
	}
}

// TestRegisterAfterCloseSucceeds: Close does not gate registration on
// either path, and the new handles execute — an idle node's replica is
// drained by helping, not by a background goroutine Close could stop.
func TestRegisterAfterCloseSucceeds(t *testing.T) {
	waittest.Deadline(t)
	inst, err := New[ctrOp, uint64](func() Sequential[ctrOp, uint64] { return &counter{} },
		Options{Topology: topology.New(2, 2, 1), LogEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	inst.Close()
	h, err := inst.Register()
	if err != nil {
		t.Fatalf("Register after Close: %v", err)
	}
	h1, err := inst.RegisterOnNode(1)
	if err != nil {
		t.Fatalf("RegisterOnNode after Close: %v", err)
	}
	// More updates than the log holds, all from one node: node 1's replica
	// must still be drained for the log to wrap.
	for k := 1; k <= 200; k++ {
		if got := h.Execute(ctrInc); got != uint64(k) {
			t.Fatalf("increment %d on post-Close handle = %d", k, got)
		}
	}
	if got := h1.Execute(ctrRead); got != 200 {
		t.Errorf("read on post-Close RegisterOnNode handle = %d, want 200", got)
	}
}

// TestRegisterOnNodeRangeErrors pins the out-of-range diagnostics.
func TestRegisterOnNodeRangeErrors(t *testing.T) {
	inst := newCounterInstance(t, Options{Topology: topology.New(2, 2, 1), LogEntries: 64})
	for _, node := range []int{-1, 2, 99} {
		if _, err := inst.RegisterOnNode(node); err == nil {
			t.Errorf("RegisterOnNode(%d) succeeded on a 2-node topology", node)
		}
	}
}
