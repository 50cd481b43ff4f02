package core

import (
	"strings"
	"sync"
	"testing"

	"github.com/asplos17/nr/internal/ds"
	"github.com/asplos17/nr/internal/topology"
	"github.com/asplos17/nr/internal/waittest"
)

// TestStatsCountEachOpOnceDeterministic walks a FakeUpdater structure
// through every dispatch outcome single-threaded and checks the per-class
// counters after each op: a fake update that fails its read-path attempt
// (delete of a present key) must count only as an update, never as both a
// read and an update.
func TestStatsCountEachOpOnceDeterministic(t *testing.T) {
	waittest.Deadline(t)
	inst, err := New[ds.DictOp, ds.DictResult](
		func() Sequential[ds.DictOp, ds.DictResult] { return ds.NewFastPathDict(3) },
		Options{Topology: topology.New(1, 2, 1), LogEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, reads, updates uint64) {
		t.Helper()
		s := inst.Stats()
		if s.ReadOps != reads || s.UpdateOps != updates {
			t.Fatalf("%s: ReadOps=%d UpdateOps=%d, want %d/%d", step, s.ReadOps, s.UpdateOps, reads, updates)
		}
	}
	// Plain read.
	h.Execute(ds.DictOp{Kind: ds.DictLookup, Key: 1})
	check("lookup", 1, 0)
	// Fake update resolved on the read path (delete of absent key).
	h.Execute(ds.DictOp{Kind: ds.DictDelete, Key: 1})
	check("no-op delete", 2, 0)
	// Real update (insert has no fake fast path on this structure).
	h.Execute(ds.DictOp{Kind: ds.DictInsert, Key: 1, Value: 10})
	check("insert", 2, 1)
	// Fake update that FAILS its read-path attempt: the key exists, so
	// TryReadOnly reports done=false and the op falls through to the log.
	// Before the fix this op counted as one read AND one update.
	h.Execute(ds.DictOp{Kind: ds.DictDelete, Key: 1})
	check("real delete (fake fallthrough)", 2, 2)
}

// TestStatsReadPlusUpdateEqualsOpsExecuted drives a fake-update-heavy
// concurrent workload — a dense key range so deletes constantly flip between
// the fast path (absent key) and the fallthrough (present key) — and asserts
// ReadOps+UpdateOps equals exactly the number of operations executed.
func TestStatsReadPlusUpdateEqualsOpsExecuted(t *testing.T) {
	waittest.Deadline(t)
	inst, err := New[ds.DictOp, ds.DictResult](
		func() Sequential[ds.DictOp, ds.DictResult] { return ds.NewFastPathDict(11) },
		Options{Topology: topology.New(2, 2, 1), LogEntries: 128})
	if err != nil {
		t.Fatal(err)
	}
	const threads, per = 4, 2000
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		h, err := inst.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, h *Handle[ds.DictOp, ds.DictResult]) {
			defer wg.Done()
			rng := uint64(g)*2654435761 + 13
			for i := 0; i < per; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				k := int64(rng % 8) // dense: deletes often hit present keys
				switch rng % 4 {
				case 0:
					h.Execute(ds.DictOp{Kind: ds.DictLookup, Key: k})
				case 1:
					h.Execute(ds.DictOp{Kind: ds.DictInsert, Key: k, Value: rng})
				default: // delete-heavy: exercises both fake-update outcomes
					h.Execute(ds.DictOp{Kind: ds.DictDelete, Key: k})
				}
			}
		}(g, h)
	}
	wg.Wait()
	s := inst.Stats()
	if got, want := s.ReadOps+s.UpdateOps, uint64(threads*per); got != want {
		t.Errorf("ReadOps(%d)+UpdateOps(%d) = %d, want %d ops executed",
			s.ReadOps, s.UpdateOps, got, want)
	}
	if s.ReadOps == 0 || s.UpdateOps == 0 {
		t.Errorf("workload did not exercise both classes: %+v", s)
	}
}

// TestRegisterExhaustionReportsAssignedVsSkipped mixes explicit and fill
// placement until exhaustion and checks the failure error reports how many
// handles were actually assigned and how many fill positions were skipped
// over explicitly filled nodes — not just the walked-position count.
func TestRegisterExhaustionReportsAssignedVsSkipped(t *testing.T) {
	topo := topology.New(2, 2, 1) // 2 nodes × 2 threads
	inst := newCounterInstance(t, Options{Topology: topo, LogEntries: 64})
	// Fill node 1 explicitly: its two fill positions will be skipped later.
	for k := 0; k < topo.ThreadsPerNode(); k++ {
		if _, err := inst.RegisterOnNode(1); err != nil {
			t.Fatal(err)
		}
	}
	// Fill placement hands out the rest (node 0).
	granted := topo.ThreadsPerNode()
	for {
		_, err := inst.Register()
		if err != nil {
			if granted != topo.TotalThreads() {
				t.Fatalf("granted %d handles before exhaustion, want %d", granted, topo.TotalThreads())
			}
			msg := err.Error()
			if !strings.Contains(msg, "4 of 4 handles assigned") {
				t.Errorf("exhaustion error does not report assigned count: %q", msg)
			}
			if !strings.Contains(msg, "2 fill positions skipped") {
				t.Errorf("exhaustion error does not report skipped count: %q", msg)
			}
			break
		}
		granted++
		if granted > topo.TotalThreads() {
			t.Fatalf("granted %d handles, topology has %d threads", granted, topo.TotalThreads())
		}
	}
}
