package core

import (
	"runtime"
	"testing"

	"github.com/asplos17/nr/internal/topology"
	"github.com/asplos17/nr/internal/trace"
	"github.com/asplos17/nr/internal/waittest"
)

// registerOn registers a handle on node and warms up its slot, the log and
// the replicas with one update.
func registerOn(t *testing.T, inst *Instance[ctrOp, uint64], node int) *Handle[ctrOp, uint64] {
	t.Helper()
	h, err := inst.RegisterOnNode(node)
	if err != nil {
		t.Fatal(err)
	}
	h.Execute(ctrInc)
	return h
}

// TestSpinWaitsDoNotAllocate pins the wait loops of the update and read
// paths: a reader waiting on an active combiner or on another reader's
// refresh (waitReplicaTail), a full log whose laggard cannot be helped
// (reserveConsuming), an op waiting for its node's combiner (combine) and a
// cross-class update waiting for its replica's cross applier
// (advanceCrossTo) at fewer than one allocation per 100 spins, yielding on
// every turn and never parking (waittest.Window), and a combiner's waits on
// holes in the log (waitGet) at fewer than one per four waits. Each test
// holds what the loop waits for while a second goroutine spins on it.
func TestSpinWaitsDoNotAllocate(t *testing.T) {
	check := func(t *testing.T, mallocs uint64) {
		t.Helper()
		if mallocs >= waittest.Yields/100 {
			t.Errorf("%d mallocs over about %d spins, want fewer than one per 100 spins", mallocs, waittest.Yields)
		}
	}

	t.Run("holes", func(t *testing.T) {
		// Node 1's next op must wait for a reservation nobody has filled
		// yet; the hole is filled once the op has yielded on it, so each
		// hole is one pass through waitGet's hole-wait branch. The log
		// outlasts every hole: nothing replays node 0's replica, so a full
		// log would leave this goroutine's own Reserve waiting.
		const holes = 200
		inst := newCounterInstance(t, Options{Topology: topology.New(2, 2, 1), LogEntries: 1024,
			Trace: trace.New(trace.Config{RingSlots: 1024})})
		h := registerOn(t, inst, 1)
		turn, done := make(chan struct{}), make(chan struct{})
		go func() {
			for range holes {
				<-turn
				h.Execute(ctrInc)
			}
			close(done)
		}()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range holes {
			idx := inst.logs[0].Reserve(1)
			turn <- struct{}{}
			runtime.Gosched() // the op reserves behind the hole and yields on it
			// Tagged for node 2, which does not exist: no replica answers it.
			inst.logs[0].Fill(idx, entry[ctrOp]{op: ctrInc, tag: opTag(entryOp, 2, 0, 0)})
		}
		<-done
		runtime.ReadMemStats(&after)
		waits := 0
		for _, e := range inst.TraceSnapshot().Events() {
			if e.Kind == trace.KHoleWait {
				waits++
			}
		}
		if waits < holes/2 {
			t.Fatalf("%d hole waits recorded, want about %d", waits, holes)
		}
		if n := after.Mallocs - before.Mallocs; n >= holes/4 {
			t.Errorf("%d mallocs over %d hole waits, want fewer than %d", n, waits, holes/4)
		}
	})

	t.Run("reader-behind-combiner", func(t *testing.T) {
		inst := newCounterInstance(t, smallTopo())
		h0 := registerOn(t, inst, 0)
		h1 := registerOn(t, inst, 1)
		h0.Execute(ctrInc) // node 1's replica is now behind
		lock := &inst.replicas[1].logs[0].combinerLock
		lock.Lock()
		check(t, waittest.Window(t, func() { h1.Execute(ctrRead) }, lock.Unlock))
	})

	t.Run("reader-behind-refresher", func(t *testing.T) {
		inst := newCounterInstance(t, smallTopo())
		h0 := registerOn(t, inst, 0)
		h1 := registerOn(t, inst, 1)
		h0.Execute(ctrInc) // node 1's replica is now behind, with no combiner
		lock := &inst.replicas[1].logs[0].refresher
		lock.Lock()
		check(t, waittest.Window(t, func() { h1.Execute(ctrRead) }, lock.Unlock))
	})

	t.Run("log-full", func(t *testing.T) {
		inst := newCounterInstance(t, Options{Topology: topology.New(2, 2, 1), LogEntries: 8})
		h := registerOn(t, inst, 0)
		// Node 1's replica lock is held, so the appender can neither help it
		// nor reserve until it is released.
		rw := inst.replicas[1].logs[0].rw
		rw.Lock()
		check(t, waittest.Window(t, func() {
			for range 16 {
				h.Execute(ctrInc)
			}
		}, rw.Unlock))
		if st := inst.Stats(); st.HelpedEntries == 0 {
			t.Errorf("the full log was not drained by helping: %+v", st)
		}
	})

	t.Run("waiting-for-combiner", func(t *testing.T) {
		inst := newCounterInstance(t, smallTopo())
		h := registerOn(t, inst, 0)
		lock := &inst.replicas[0].logs[0].combinerLock
		lock.Lock()
		check(t, waittest.Window(t, func() { h.Execute(ctrInc) }, lock.Unlock))
	})

	t.Run("cross-applier-busy", func(t *testing.T) {
		inst := newCrossCells(t, 2, Options{Topology: topology.New(2, 2, 1)})
		h := registerCross(t, inst, 0)
		h.Execute(mlOp{kind: 3, delta: 1})
		lock := &inst.replicas[0].crossApply
		lock.Lock()
		check(t, waittest.Window(t, func() { h.Execute(mlOp{kind: 3, delta: 1}) }, lock.Unlock))
	})
}

// TestKickNeverBlocks pins Follower.Kick as a wake that never waits: an
// appender on a full log kicks the follower on every turn of its spin, so a
// Kick with the last wake still pending must return at once rather than
// wait for the follower to take it (a Kick that waits fails the test's
// waittest.Deadline).
func TestKickNeverBlocks(t *testing.T) {
	f, err := newCounterInstance(t, smallTopo()).Follow()
	if err != nil {
		t.Fatal(err)
	}
	f.Kick()
	f.Kick() // the first wake is still pending
	<-f.Wake()
}
