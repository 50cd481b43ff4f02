package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/asplos17/nr/internal/obs"
	"github.com/asplos17/nr/internal/topology"
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

// TestObserverReconcilesWithStats runs a concurrent mixed workload with a
// recording observer attached and checks that the event stream and the
// instance's Stats counters tell the same story. The counter structure has
// no FakeUpdater, so OpRead events must equal ReadOps exactly and OpUpdate
// events UpdateOps.
func TestObserverReconcilesWithStats(t *testing.T) {
	rec := &recordingObserver{}
	inst := newCounterInstance(t, Options{
		Topology:   topology.New(2, 2, 2),
		LogEntries: 128, // small log forces recycling, helping, refreshes
		Observer:   rec,
	})
	const goroutines, per = 8, 400
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
				if k%4 == 0 {
					h.Execute(ctrRead)
				} else {
					h.Execute(ctrInc)
				}
			}
		}(g)
	}
	wg.Wait()
	s := inst.Stats()

	if got := rec.opDone[obs.OpRead].Load(); got != s.ReadOps {
		t.Errorf("OpDone(read) events = %d, Stats.ReadOps = %d", got, s.ReadOps)
	}
	if got := rec.opDone[obs.OpUpdate].Load(); got != s.UpdateOps {
		t.Errorf("OpDone(update) events = %d, Stats.UpdateOps = %d", got, s.UpdateOps)
	}
	if want := uint64(goroutines * per); rec.opDone[obs.OpRead].Load()+rec.opDone[obs.OpUpdate].Load() != want {
		t.Errorf("total OpDone events != %d ops executed", want)
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
// Stats counters and the log's position invariants.
func TestMetricsSnapshotReconciles(t *testing.T) {
	mo := obs.NewMetrics(2)
	inst := newCounterInstance(t, Options{
		Topology:   topology.New(2, 2, 1),
		LogEntries: 256,
		Observer:   mo,
	})
	const goroutines, per = 4, 300
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
				if k%3 == 0 {
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
	if o.Read.Count != m.Stats.ReadOps {
		t.Errorf("observed read latency count = %d, Stats.ReadOps = %d", o.Read.Count, m.Stats.ReadOps)
	}
	if o.Update.Count != m.Stats.UpdateOps {
		t.Errorf("observed update latency count = %d, Stats.UpdateOps = %d", o.Update.Count, m.Stats.UpdateOps)
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
// no observer attached, reads and combined updates complete without heap
// allocation.
func TestNoObserverHotPathDoesNotAllocate(t *testing.T) {
	inst := newCounterInstance(t, smallTopo())
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	h.Execute(ctrInc) // warm up slots, log, replicas
	if avg := testing.AllocsPerRun(200, func() { h.Execute(ctrRead) }); avg != 0 {
		t.Errorf("read path allocates %.1f objects/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { h.Execute(ctrInc) }); avg != 0 {
		t.Errorf("update path allocates %.1f objects/op, want 0", avg)
	}
}
