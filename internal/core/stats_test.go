package core

import (
	"strings"
	"sync"
	"testing"

	"github.com/asplos17/nr/internal/ds"
	"github.com/asplos17/nr/internal/topology"
	"github.com/asplos17/nr/internal/waittest"
)

// TestStatsCountEachOpOnceDeterministic walks a dictionary through reads
// and updates single-threaded and checks the per-class counters after each
// op: every op counts once, in its own class, whether or not it changed the
// structure.
func TestStatsCountEachOpOnceDeterministic(t *testing.T) {
	waittest.Deadline(t)
	inst, err := New[ds.DictOp, ds.DictResult](
		func() Sequential[ds.DictOp, ds.DictResult] { return ds.NewSkipListDict(3) },
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
	// An update that changes nothing (delete of an absent key) is still
	// an update.
	h.Execute(ds.DictOp{Kind: ds.DictDelete, Key: 1})
	check("no-op delete", 1, 1)
	h.Execute(ds.DictOp{Kind: ds.DictInsert, Key: 1, Value: 10})
	check("insert", 1, 2)
	h.Execute(ds.DictOp{Kind: ds.DictDelete, Key: 1})
	check("real delete", 1, 3)
}

// TestStatsReadPlusUpdateEqualsOpsExecuted drives a delete-heavy concurrent
// workload — a dense key range so deletes constantly flip between absent and
// present keys — and asserts ReadOps+UpdateOps equals exactly the number of
// operations executed.
func TestStatsReadPlusUpdateEqualsOpsExecuted(t *testing.T) {
	waittest.Deadline(t)
	inst, err := New[ds.DictOp, ds.DictResult](
		func() Sequential[ds.DictOp, ds.DictResult] { return ds.NewSkipListDict(11) },
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
				default: // delete-heavy: hits both absent and present keys
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

// TestStatsAndHealthMatchMetrics pins Stats and Health, which read the
// counters and the failure state directly, to the matching fields of the
// full Metrics snapshot: at rest, after reads, updates and a contained
// panic, and once the instance is poisoned.
func TestStatsAndHealthMatchMetrics(t *testing.T) {
	inst := newBombInstance(t, smallTopo())
	check := func(step string) {
		t.Helper()
		m := inst.Metrics()
		if s := inst.Stats(); s != m.Stats {
			t.Errorf("%s: Stats() = %+v, Metrics().Stats = %+v", step, s, m.Stats)
		}
		if h := inst.Health(); h != m.Health {
			t.Errorf("%s: Health() = %+v, Metrics().Health = %+v", step, h, m.Health)
		}
	}
	check("fresh")
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	for k := int32(1); k <= 20; k++ {
		h.Execute(bombOp{Key: k, Delta: 1})
		h.Execute(bombOp{Key: 0})
	}
	check("reads and updates")
	if _, err := h.TryExecute(bombOp{Key: -1, Delta: 1}); err == nil {
		t.Fatal("panicking op returned no error")
	}
	inst.Quiesce()
	check("contained panic")
	if inst.Stats().Panics == 0 {
		t.Fatal("contained panic not counted")
	}
	inst.poison("test: poisoned by hand")
	check("poisoned")
	if !inst.Health().Poisoned {
		t.Fatal("Health does not report the poisoning")
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
