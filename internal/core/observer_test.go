package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/asplos17/nr/internal/ds"
	"github.com/asplos17/nr/internal/obs"
	"github.com/asplos17/nr/internal/topology"
	"github.com/asplos17/nr/internal/trace"
)

// recordingObserver tallies every hook event so tests can reconcile the
// event stream against the instance's own Stats counters.
type recordingObserver struct {
	combineRounds   atomic.Uint64 // CombineEnd with a non-empty batch
	batchSum        atomic.Uint64
	appendSum       atomic.Uint64
	readerRefreshes atomic.Uint64
	refreshEntries  atomic.Uint64
	helps           atomic.Uint64
	helpEntries     atomic.Uint64
	tailRetries     atomic.Uint64
	writerWaits     atomic.Uint64
	stalls          atomic.Uint64
	panics          atomic.Uint64
	opDone          [obs.NumOpClasses]atomic.Uint64
}

func (r *recordingObserver) CombineEnd(node, batch, appended int, elapsed time.Duration) {
	if batch == 0 {
		return
	}
	r.combineRounds.Add(1)
	r.batchSum.Add(uint64(batch))
	r.appendSum.Add(uint64(appended))
}

func (r *recordingObserver) ReaderRefresh(node, entries int) {
	r.readerRefreshes.Add(1)
	r.refreshEntries.Add(uint64(entries))
}

func (r *recordingObserver) Help(node, entries int) {
	r.helps.Add(1)
	r.helpEntries.Add(uint64(entries))
}

func (r *recordingObserver) LogTailRetry(node, retries int) { r.tailRetries.Add(uint64(retries)) }

func (r *recordingObserver) WriterWait(node, spins int) { r.writerWaits.Add(1) }

func (r *recordingObserver) Stall(node int, held time.Duration) { r.stalls.Add(1) }

func (r *recordingObserver) PanicContained(node int, idx uint64) { r.panics.Add(1) }

func (r *recordingObserver) OpDone(node int, class obs.OpClass, elapsed time.Duration) {
	if class < obs.NumOpClasses {
		r.opDone[class].Add(1)
	}
}

// sampledOps counts the sampled ops among a handle's first n, by class:
// op k (0-based) has seq k+1 and is a read when read(k). The total is
// ⌈n/trace.SampleEvery⌉.
func sampledOps(n int, read func(k int) bool) (reads, updates uint64) {
	for k := 0; k < n; k++ {
		if !trace.Sampled(uint32(k + 1)) {
			continue
		}
		if read(k) {
			reads++
		} else {
			updates++
		}
	}
	return reads, updates
}

// TestObserverReconcilesWithStats runs a concurrent mixed workload with a
// recording observer attached and checks that the event stream and the
// instance's Stats counters tell the same story: round and rare events
// match their counters exactly, and OpDone fires for exactly the sampled
// ops of each class (the counter structure has no FakeUpdater, so every op
// keeps its class).
func TestObserverReconcilesWithStats(t *testing.T) {
	rec := &recordingObserver{}
	inst := newCounterInstance(t, Options{
		Topology:   topology.New(2, 2, 2),
		LogEntries: 128, // small log forces recycling, helping, refreshes
		Observer:   rec,
	})
	const goroutines, per = 8, 400
	isRead := func(k int) bool { return k%3 == 0 }
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		h, err := inst.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				if isRead(k) {
					h.Execute(ctrRead)
				} else {
					h.Execute(ctrInc)
				}
			}
		}(g)
	}
	wg.Wait()
	s := inst.Stats()

	reads, updates := sampledOps(per, isRead)
	if got, want := rec.opDone[obs.OpRead].Load(), goroutines*reads; got != want {
		t.Errorf("OpDone(read) events = %d, want %d sampled reads", got, want)
	}
	if got, want := rec.opDone[obs.OpUpdate].Load(), goroutines*updates; got != want {
		t.Errorf("OpDone(update) events = %d, want %d sampled updates", got, want)
	}
	if perHandle := uint64((per + trace.SampleEvery - 1) / trace.SampleEvery); reads+updates != perHandle {
		t.Errorf("sampled ops per handle = %d, want ⌈%d/%d⌉ = %d", reads+updates, per, trace.SampleEvery, perHandle)
	}
	if s.ReadOps+s.UpdateOps != goroutines*per {
		t.Errorf("Stats.ReadOps+UpdateOps = %d, want %d ops executed", s.ReadOps+s.UpdateOps, goroutines*per)
	}
	if got := rec.combineRounds.Load(); got != s.Combines {
		t.Errorf("non-empty CombineEnd events = %d, Stats.Combines = %d", got, s.Combines)
	}
	if got := rec.batchSum.Load(); got != s.CombinedOps {
		t.Errorf("sum of CombineEnd batches = %d, Stats.CombinedOps = %d", got, s.CombinedOps)
	}
	if got := rec.appendSum.Load(); got != s.CombinedOps {
		t.Errorf("sum of CombineEnd appends = %d, Stats.CombinedOps = %d", got, s.CombinedOps)
	}
	if got := rec.readerRefreshes.Load(); got != s.ReaderRefreshes {
		t.Errorf("ReaderRefresh events = %d, Stats.ReaderRefreshes = %d", got, s.ReaderRefreshes)
	}
	if got := rec.helpEntries.Load(); got != s.HelpedEntries {
		t.Errorf("Help entry sum = %d, Stats.HelpedEntries = %d", got, s.HelpedEntries)
	}
	if got := rec.panics.Load(); got != s.Panics {
		t.Errorf("PanicContained events = %d, Stats.Panics = %d", got, s.Panics)
	}
}

// TestObserverSeesContainedPanic: a panicking Execute must fire
// PanicContained on the observer as well as count in Stats.
func TestObserverSeesContainedPanic(t *testing.T) {
	rec := &recordingObserver{}
	inst, err := New[ctrOp, uint64](func() Sequential[ctrOp, uint64] { return &panicky{} },
		Options{Topology: topology.New(1, 2, 1), LogEntries: 64, Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.TryExecute(ctrInc); err == nil {
		t.Fatal("panicky op succeeded")
	}
	// One panic per replica application (1 node here).
	if got, want := rec.panics.Load(), inst.Stats().Panics; got != want {
		t.Errorf("PanicContained events = %d, Stats.Panics = %d", got, want)
	}
	if rec.panics.Load() == 0 {
		t.Error("no PanicContained event for a contained panic")
	}
}

// panicky always panics on updates, succeeds on reads.
type panicky struct{}

func (p *panicky) Execute(op ctrOp) uint64 {
	if op == ctrInc {
		panic("poison")
	}
	return 0
}

func (p *panicky) IsReadOnly(op ctrOp) bool { return op == ctrRead }

// TestMetricsSnapshotReconciles attaches the built-in obs.Metrics observer
// and checks its snapshot and the unified Metrics() snapshot against the
// Stats counters and the log's position invariants: the batch distribution
// counts every round, the latency histograms exactly the sampled ops.
func TestMetricsSnapshotReconciles(t *testing.T) {
	mo := obs.NewMetrics(2)
	inst := newCounterInstance(t, Options{
		Topology:   topology.New(2, 2, 1),
		LogEntries: 256,
		Observer:   mo,
	})
	const goroutines, per = 4, 300
	isRead := func(k int) bool { return k%3 == 0 }
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		h, err := inst.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < per; k++ {
				if isRead(k) {
					h.Execute(ctrRead)
				} else {
					h.Execute(ctrInc)
				}
			}
		}()
	}
	wg.Wait()

	m := inst.Metrics()
	if m.Observed != nil {
		t.Error("core filled Metrics().Observed; the nr layer owns the observer and fills it")
	}
	o := mo.Snapshot()
	reads, updates := sampledOps(per, isRead)
	if o.Read.Count != goroutines*reads {
		t.Errorf("observed read latency count = %d, want %d sampled reads", o.Read.Count, goroutines*reads)
	}
	if o.Update.Count != goroutines*updates {
		t.Errorf("observed update latency count = %d, want %d sampled updates", o.Update.Count, goroutines*updates)
	}
	if m.Stats.ReadOps != goroutines*per/3 || m.Stats.UpdateOps != goroutines*per*2/3 {
		t.Errorf("Stats = %d reads / %d updates, want %d / %d", m.Stats.ReadOps, m.Stats.UpdateOps, goroutines*per/3, goroutines*per*2/3)
	}
	if o.Batch.Count != m.Stats.Combines {
		t.Errorf("batch dist count = %d, Stats.Combines = %d", o.Batch.Count, m.Stats.Combines)
	}
	// The merged batch distribution's sum is CombinedOps: every combined op
	// sits in exactly one round's batch.
	var sum uint64
	for _, n := range o.Nodes {
		sum += sumDist(t, n)
	}
	if sum != m.Stats.CombinedOps {
		t.Errorf("batch dist sum = %d, Stats.CombinedOps = %d", sum, m.Stats.CombinedOps)
	}

	// Gauge invariants: Tail >= Completed >= MinTail, occupancy in [0,1],
	// and per-replica lag consistent with the gauges.
	if m.Log.Tail < m.Log.Completed {
		t.Errorf("Tail %d < Completed %d", m.Log.Tail, m.Log.Completed)
	}
	if m.Log.Completed < m.Log.MinTail {
		t.Errorf("Completed %d < MinTail %d", m.Log.Completed, m.Log.MinTail)
	}
	if m.Log.Occupancy < 0 || m.Log.Occupancy > 1 {
		t.Errorf("Occupancy = %v outside [0,1]", m.Log.Occupancy)
	}
	if len(m.Replicas) != 2 {
		t.Fatalf("replica gauges = %d, want 2", len(m.Replicas))
	}
	var registered int
	for _, r := range m.Replicas {
		registered += r.Registered
		if r.LocalTail < m.Log.MinTail {
			t.Errorf("replica %d LocalTail %d < MinTail %d", r.Node, r.LocalTail, m.Log.MinTail)
		}
	}
	if registered != goroutines {
		t.Errorf("registered gauges sum to %d, want %d", registered, goroutines)
	}

	// After Quiesce every replica has absorbed all completed entries.
	inst.Quiesce()
	m = inst.Metrics()
	for _, r := range m.Replicas {
		if r.CompletedLag != 0 {
			t.Errorf("replica %d CompletedLag = %d after Quiesce", r.Node, r.CompletedLag)
		}
	}
}

// sumDist extracts a node's batch-size sum from its mean and count (the
// snapshot doesn't carry the raw sum; mean*count reconstructs it exactly
// because both derive from the same atomic counters).
func sumDist(t *testing.T, n obs.NodeSnapshot) uint64 {
	t.Helper()
	return uint64(n.Batch.Mean*float64(n.Batch.Count) + 0.5)
}

// TestNoObserverHotPathDoesNotAllocate pins the acceptance criterion: with
// no observer attached, every path an op can take completes without heap
// allocation — the read and the combined update, and, on one goroutine and
// deterministically, the paths that need a second node or a full log: a
// combiner replaying another node's entries first, a full log drained by
// helping the idle node, a FakeUpdater's read fast path, and a multi-log
// instance routing through its mapper.
func TestNoObserverHotPathDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name string
		// setup builds an instance and returns one op and its Stats.
		setup func(t *testing.T) (op func(), stats func() Stats)
		// reached checks that the ops took the path the case is about.
		reached func(before, after Stats) bool
	}{
		{name: "read", setup: func(t *testing.T) (func(), func() Stats) {
			inst := newCounterInstance(t, smallTopo())
			h := registerOn(t, inst, 0)
			return func() { h.Execute(ctrRead) }, inst.Stats
		}},
		{name: "update", setup: func(t *testing.T) (func(), func() Stats) {
			inst := newCounterInstance(t, smallTopo())
			h := registerOn(t, inst, 0)
			return func() { h.Execute(ctrInc) }, inst.Stats
		}},
		{name: "replay-other-node", setup: func(t *testing.T) (func(), func() Stats) {
			// Each node's combiner first replays the other node's last entry
			// (waitGet, applyEntry) before appending its own.
			inst := newCounterInstance(t, smallTopo())
			h0, h1 := registerOn(t, inst, 0), registerOn(t, inst, 1)
			return func() { h0.Execute(ctrInc); h1.Execute(ctrInc) }, inst.Stats
		}},
		{name: "log-full-helping", setup: func(t *testing.T) (func(), func() Stats) {
			// Only node 0 is active and the log holds 8 entries: each run
			// of 16 ops fills the log, and the appender replays node 1's
			// replica for it (reserveConsuming, helpLaggards, refreshTo).
			inst := newCounterInstance(t, Options{Topology: topology.New(2, 2, 1), LogEntries: 8})
			h := registerOn(t, inst, 0)
			return func() {
				for range 16 {
					h.Execute(ctrInc)
				}
			}, inst.Stats
		}, reached: func(before, after Stats) bool { return after.HelpedEntries > before.HelpedEntries }},
		{name: "fake-update", setup: func(t *testing.T) (func(), func() Stats) {
			// Deleting an absent key is resolved on the read path (safeRead
			// through FakeUpdater.TryReadOnly) and never logged.
			inst, err := New[ds.DictOp, ds.DictResult](
				func() Sequential[ds.DictOp, ds.DictResult] { return ds.NewFastPathDict(5) }, smallTopo())
			if err != nil {
				t.Fatal(err)
			}
			h, err := inst.Register()
			if err != nil {
				t.Fatal(err)
			}
			h.Execute(ds.DictOp{Kind: ds.DictInsert, Key: 1, Value: 1})
			return func() { h.Execute(ds.DictOp{Kind: ds.DictDelete, Key: 2}) }, inst.Stats
		}, reached: func(before, after Stats) bool {
			return after.UpdateOps == before.UpdateOps && after.ReadOps > before.ReadOps
		}},
		{name: "multi-log", setup: func(t *testing.T) (func(), func() Stats) {
			// Two logs and a mapper: opClass routes each op to its class.
			inst := newMultiLog(t, 2, Options{Topology: topology.New(2, 2, 1), LogEntries: 256})
			h, err := inst.Register()
			if err != nil {
				t.Fatal(err)
			}
			h.Execute(mlOp{kind: 0, class: 1, delta: 1})
			return func() {
				h.Execute(mlOp{kind: 0, class: 1, delta: 1})
				h.Execute(mlOp{kind: 1, class: 0})
			}, inst.Stats
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			op, stats := tc.setup(t)
			before := stats()
			if avg := testing.AllocsPerRun(200, op); avg != 0 {
				t.Errorf("%s allocates %.1f objects/op, want 0", tc.name, avg)
			}
			if tc.reached != nil && !tc.reached(before, stats()) {
				t.Errorf("%s: ops did not take the path under test (stats before %+v, after %+v)", tc.name, before, stats())
			}
		})
	}
}
