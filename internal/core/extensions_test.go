package core

import (
	"sync"
	"testing"
	"time"

	"github.com/asplos17/nr/internal/ds"
	"github.com/asplos17/nr/internal/topology"
	"github.com/asplos17/nr/internal/waittest"
)

// TestDedicatedCombinersRefreshIdleNodes: with dedicated combiners, a node
// whose threads never execute operations still keeps its replica fresh —
// the §6 inactive-replica fix.
func TestDedicatedCombinersRefreshIdleNodes(t *testing.T) {
	opts := Options{
		Topology:           topology.New(2, 2, 1),
		LogEntries:         64, // tiny: an inactive replica would wedge the log quickly
		DedicatedCombiners: true,
	}
	inst := newCounterInstance(t, opts)
	defer inst.Close()
	// Only node 0 threads run; node 1 is completely idle.
	h0, err := inst.RegisterOnNode(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 5000; i++ {
		if got := h0.Execute(ctrInc); got != i {
			t.Fatalf("inc #%d = %d", i, got)
		}
	}
	// The idle node's replica must have been refreshed in the background.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var v uint64
		inst.InspectReplica(1, func(s Sequential[ctrOp, uint64]) { v = s.(*counter).v })
		if v == 5000 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle replica stuck at %d, want 5000", v)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCloseIdempotentAndOptional(t *testing.T) {
	with := newCounterInstance(t, Options{Topology: topology.New(2, 2, 1), LogEntries: 256, DedicatedCombiners: true})
	with.Close()
	with.Close() // second Close is a no-op
	without := newCounterInstance(t, smallTopo())
	without.Close() // Close without dedicated combiners is a no-op
}

func TestDedicatedCombinersUnderConcurrency(t *testing.T) {
	opts := Options{Topology: topology.New(2, 2, 1), LogEntries: 128, DedicatedCombiners: true}
	inst := newCounterInstance(t, opts)
	defer inst.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		h, err := inst.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(h *Handle[ctrOp, uint64]) {
			defer wg.Done()
			var prev uint64
			for i := 0; i < 2000; i++ {
				v := h.Execute(ctrInc)
				if v <= prev {
					t.Errorf("non-monotonic increment %d after %d", v, prev)
					return
				}
				prev = v
			}
		}(h)
	}
	wg.Wait()
	inst.Quiesce()
	for n := 0; n < inst.Replicas(); n++ {
		inst.InspectReplica(n, func(s Sequential[ctrOp, uint64]) {
			if got := s.(*counter).v; got != 8000 {
				t.Errorf("replica %d = %d, want 8000", n, got)
			}
		})
	}
}

// TestFakeUpdateFastPath: deletes of absent keys ride the read path and
// never reach the log; real deletes still work.
func TestFakeUpdateFastPath(t *testing.T) {
	opts := Options{Topology: topology.New(2, 2, 1), LogEntries: 256}
	waittest.Deadline(t)
	inst, err := New[ds.DictOp, ds.DictResult](
		func() Sequential[ds.DictOp, ds.DictResult] { return ds.NewFastPathDict(5) }, opts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	// No-op deletes: fast path, no log growth.
	for k := int64(0); k < 100; k++ {
		if r := h.Execute(ds.DictOp{Kind: ds.DictDelete, Key: k}); r.OK {
			t.Fatalf("delete of absent key %d reported OK", k)
		}
	}
	if tail := inst.LogTail(); tail != 0 {
		t.Errorf("fake updates appended %d log entries, want 0", tail)
	}
	if st := inst.Stats(); st.UpdateOps != 0 {
		t.Errorf("fake updates counted as updates: %+v", st)
	}
	// Real update path still works and subsequent no-op delete is fast.
	h.Execute(ds.DictOp{Kind: ds.DictInsert, Key: 7, Value: 70})
	if r := h.Execute(ds.DictOp{Kind: ds.DictDelete, Key: 7}); !r.OK {
		t.Error("delete of present key failed")
	}
	if r := h.Execute(ds.DictOp{Kind: ds.DictDelete, Key: 7}); r.OK {
		t.Error("second delete reported OK")
	}
	if tail := inst.LogTail(); tail != 2 {
		t.Errorf("log tail = %d, want 2 (insert + real delete)", tail)
	}
}

// TestFakeUpdateConcurrent: the fast path must stay linearizable when real
// deletes race no-op deletes on the same keys.
func TestFakeUpdateConcurrent(t *testing.T) {
	opts := Options{Topology: topology.New(2, 2, 1), LogEntries: 256}
	waittest.Deadline(t)
	inst, err := New[ds.DictOp, ds.DictResult](
		func() Sequential[ds.DictOp, ds.DictResult] { return ds.NewFastPathDict(9) }, opts)
	if err != nil {
		t.Fatal(err)
	}
	const threads, per = 4, 1500
	var wg sync.WaitGroup
	deletes := make([]int, threads)
	inserts := make([]int, threads)
	for g := 0; g < threads; g++ {
		h, err := inst.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, h *Handle[ds.DictOp, ds.DictResult]) {
			defer wg.Done()
			rng := uint64(g)*2654435761 + 7
			for i := 0; i < per; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				k := int64(rng % 16)
				if rng%2 == 0 {
					if h.Execute(ds.DictOp{Kind: ds.DictInsert, Key: k, Value: 1}).OK {
						inserts[g]++
					}
				} else {
					if h.Execute(ds.DictOp{Kind: ds.DictDelete, Key: k}).OK {
						deletes[g]++
					}
				}
			}
		}(g, h)
	}
	wg.Wait()
	totIns, totDel := 0, 0
	for g := range deletes {
		totIns += inserts[g]
		totDel += deletes[g]
	}
	// Conservation: successful inserts - successful deletes = final size.
	var final int
	inst.InspectReplica(0, func(s Sequential[ds.DictOp, ds.DictResult]) {
		final = s.(*ds.FastPathDict).Len()
	})
	if totIns-totDel != final {
		t.Errorf("inserts(%d) - deletes(%d) = %d, but final size %d",
			totIns, totDel, totIns-totDel, final)
	}
}
