package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/asplos17/nr/internal/obs"
	"github.com/asplos17/nr/internal/topology"
	"github.com/asplos17/nr/internal/trace"
	"github.com/asplos17/nr/internal/waittest"
)

// recordingObserver tallies every hook event so tests can reconcile the
// event stream against the instance's own Stats counters.
type recordingObserver struct {
	combineRounds atomic.Uint64 // CombineEnd with a non-empty batch
	batchSum      atomic.Uint64
	appendSum     atomic.Uint64
	tailRetries   atomic.Uint64
	writerWaits   atomic.Uint64
	opDone        [obs.NumOpClasses]atomic.Uint64
}

func (r *recordingObserver) CombineEnd(node, batch, appended int, elapsed time.Duration) {
	if batch == 0 {
		return
	}
	r.combineRounds.Add(1)
	r.batchSum.Add(uint64(batch))
	r.appendSum.Add(uint64(appended))
}

func (r *recordingObserver) LogTailRetry(node, retries int) { r.tailRetries.Add(uint64(retries)) }

func (r *recordingObserver) WriterWait(node, spins int) { r.writerWaits.Add(1) }

func (r *recordingObserver) OpDone(node int, class obs.OpClass, elapsed time.Duration) {
	if class < obs.NumOpClasses {
		r.opDone[class].Add(1)
	}
}

// sampledOps counts the sampled ops among a handle's first n, by class:
// op k (0-based) has seq k+1 and is a read when read(k). The total is one
// per whole block of trace.SampleEvery seqs, plus at most one in a last,
// partial block.
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

// TestSamplerSeesAlternatingClasses: a handle that alternates an update and
// a read has both classes timed and traced. A sampler at one fixed offset
// of each block of trace.SampleEvery seqs would see only the class at that
// offset's parity.
func TestSamplerSeesAlternatingClasses(t *testing.T) {
	rec := &recordingObserver{}
	tr := trace.New(trace.Config{RingSlots: 1 << 13})
	opts := smallTopo()
	opts.Observer, opts.Trace = rec, tr
	inst := newCounterInstance(t, opts)
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	const ops = 1024
	for k := 0; k < ops; k++ {
		if k%2 == 0 {
			h.Execute(ctrInc)
		} else {
			h.Execute(ctrRead)
		}
	}
	const quarter = ops / trace.SampleEvery / 4
	updates, reads := rec.opDone[obs.OpUpdate].Load(), rec.opDone[obs.OpRead].Load()
	if updates+reads != ops/trace.SampleEvery || updates < quarter || reads < quarter {
		t.Errorf("OpDone: %d updates, %d reads; want %d in all, each class at least %d", updates, reads, ops/trace.SampleEvery, quarter)
	}
	spans := map[string]int{}
	for _, sp := range trace.Reconstruct(inst.TraceSnapshot()) {
		if sp.Complete {
			spans[sp.Class]++
		}
	}
	if spans["update"] != int(updates) || spans["read"] != int(reads) {
		t.Errorf("complete spans %v, want the %d updates and %d reads OpDone saw", spans, updates, reads)
	}
}

// TestObserverReconcilesWithStats runs a concurrent mixed workload with a
// recording observer attached and checks that the event stream and the
// instance's Stats counters tell the same story: round and contention events
// match their counters exactly, and OpDone fires for exactly the sampled
// ops of each class.
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
	if lo := uint64(per / trace.SampleEvery); reads+updates < lo || reads+updates > lo+1 {
		t.Errorf("sampled ops per handle = %d, want one in each of the %d whole blocks of %d seqs (and at most one more)", reads+updates, lo, trace.SampleEvery)
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
	reconcile(t, rec, inst.Metrics())
}

// reconcile checks that the observer's tally and the instance's counters
// agree on every hooked event: each is counted once, in core, and the hook
// fires once per count. The events without a hook (reader refreshes,
// helping, stalls, panics) are counted in Stats alone.
func reconcile(t *testing.T, rec *recordingObserver, m Metrics) {
	t.Helper()
	var g ReplicaGauges
	for _, r := range m.Replicas {
		g.Combines += r.Combines
		g.TailRetries += r.TailRetries
		g.WriterWaits += r.WriterWaits
	}
	s := m.Stats
	for _, c := range []struct {
		name             string
		event, stat, gau uint64
	}{
		{"non-empty CombineEnd / Combines", rec.combineRounds.Load(), s.Combines, g.Combines},
		{"LogTailRetry retries / TailRetries", rec.tailRetries.Load(), s.TailRetries, g.TailRetries},
		{"WriterWait / WriterWaits", rec.writerWaits.Load(), s.WriterWaits, g.WriterWaits},
	} {
		if c.event != c.stat || c.stat != c.gau {
			t.Errorf("%s: observer %d, Stats %d, replica gauges %d", c.name, c.event, c.stat, c.gau)
		}
	}
}

// holdKey is the key whose update waits inside Execute until the
// schedule's hold channel closes (a stalled combiner).
const holdKey = 99

// holding is bomb (a negative key panics) with a gate on holdKey.
type holding struct {
	*bomb
	hold chan struct{}
}

func (h holding) Execute(op bombOp) int64 {
	if op.Key == holdKey {
		<-h.hold
	}
	return h.bomb.Execute(op)
}

// handleOn registers a handle on node without running an op through it.
func handleOn(t *testing.T, i *Instance[bombOp, int64], node int) *Handle[bombOp, int64] {
	t.Helper()
	h, err := i.RegisterOnNode(node)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestObserverReconcilesOnFixedSchedules drives each rare protocol event on
// a fixed schedule — a reader refresh, helping out of a full 8-entry log, a
// writer waiting out a held read lock, a combiner stalled inside Execute, a
// contained panic — and checks that it happened exactly as often as the schedule
// makes it and that a counting observer agrees with Stats / ReplicaGauges
// on the events it has hooks for.
// Each schedule runs again with no observer attached: core.New puts
// obs.Nop in its place, so every hook site runs without a nil check.
func TestObserverReconcilesOnFixedSchedules(t *testing.T) {
	type inst = Instance[bombOp, int64]
	for _, tc := range []struct {
		name string
		opts Options
		run  func(t *testing.T, i *inst, hold chan struct{})
		// event reads the schedule's event count; want is its exact value
		// (0: any positive count).
		event func(m Metrics) uint64
		want  uint64
	}{
		{name: "reader-refresh", opts: Options{Topology: topology.New(2, 2, 1), LogEntries: 64},
			run: func(t *testing.T, i *inst, _ chan struct{}) {
				// Node 1's replica is one entry behind and no combiner runs
				// there: its reader replays the entry itself.
				handleOn(t, i, 0).Execute(bombOp{Key: 1, Delta: 1})
				if got := handleOn(t, i, 1).Execute(bombOp{}); got != 1 {
					t.Errorf("read on node 1 = %d, want 1", got)
				}
			},
			event: func(m Metrics) uint64 { return m.Replicas[1].ReaderRefreshes }, want: 1},
		{name: "help", opts: Options{Topology: topology.New(2, 2, 1), LogEntries: 8},
			run: func(t *testing.T, i *inst, _ chan struct{}) {
				// Only node 0 runs ops: the log fills, and its blocked
				// appender replays node 1's replica to recycle entries.
				h := handleOn(t, i, 0)
				for range 16 {
					h.Execute(bombOp{Key: 1, Delta: 1})
				}
			},
			event: func(m Metrics) uint64 { return m.Stats.HelpedEntries }},
		{name: "writer-wait", opts: Options{Topology: topology.New(1, 2, 1), LogEntries: 64},
			run: func(t *testing.T, i *inst, _ chan struct{}) {
				// Reader slot 1 holds the replica's read lock while slot 0's
				// combiner appends: its write acquisition has to spin.
				h := handleOn(t, i, 0)
				rw := i.replicas[0].logs[0].rw
				rw.RLock(1)
				done := make(chan struct{})
				go func() {
					h.Execute(bombOp{Key: 1, Delta: 1})
					close(done)
				}()
				// The combiner takes the writer lock right after filling its
				// entry; no test-visible state says it has, so give it time.
				for _, ok := i.logs[0].Get(0); !ok; _, ok = i.logs[0].Get(0) {
					time.Sleep(100 * time.Microsecond)
				}
				time.Sleep(50 * time.Millisecond)
				rw.RUnlock(1)
				<-done
			},
			event: func(m Metrics) uint64 { return m.Replicas[0].WriterWaits }, want: 1},
		{name: "stall", opts: Options{Topology: topology.New(1, 2, 1), LogEntries: 64},
			run: func(t *testing.T, i *inst, hold chan struct{}) {
				// One combiner round held inside Execute while the node's
				// other handle posts behind it; the held round and the
				// waiter's round are counted once each.
				h, h2 := handleOn(t, i, 0), handleOn(t, i, 0)
				done := make(chan struct{})
				go func() {
					h.Execute(bombOp{Key: holdKey, Delta: 1})
					close(done)
				}()
				for _, ok := i.logs[0].Get(0); !ok; _, ok = i.logs[0].Get(0) {
					time.Sleep(100 * time.Microsecond)
				}
				waited := make(chan struct{})
				go func() {
					h2.Execute(bombOp{Key: 1, Delta: 1})
					close(waited)
				}()
				time.Sleep(10 * time.Millisecond)
				close(hold)
				<-done
				<-waited
			},
			event: func(m Metrics) uint64 { return m.Stats.Combines }, want: 2},
		{name: "panic", opts: Options{Topology: topology.New(1, 2, 1), LogEntries: 64},
			run: func(t *testing.T, i *inst, _ chan struct{}) {
				var pe *PanicError
				if _, err := handleOn(t, i, 0).TryExecute(bombOp{Key: -1, Delta: 1}); !errors.As(err, &pe) {
					t.Errorf("TryExecute of a panicking op: err = %v, want a *PanicError", err)
				}
			},
			event: func(m Metrics) uint64 { return m.Stats.Panics }, want: 1},
	} {
		for _, observed := range []bool{true, false} {
			name := tc.name + "/no-observer"
			rec := &recordingObserver{}
			opts := tc.opts
			if observed {
				name = tc.name + "/observer"
				opts.Observer = rec
			}
			t.Run(name, func(t *testing.T) {
				hold := make(chan struct{})
				waittest.Deadline(t)
				i, err := New[bombOp, int64](func() Sequential[bombOp, int64] { return holding{newBomb(), hold} }, opts)
				if err != nil {
					t.Fatal(err)
				}
				tc.run(t, i, hold)
				m := i.Metrics()
				if got := tc.event(m); tc.want != 0 && got != tc.want || got == 0 {
					t.Errorf("%s events = %d, want %d (0: any positive count)", tc.name, got, tc.want)
				}
				if observed {
					reconcile(t, rec, m)
				}
			})
		}
	}
}

// TestTailRetriesCountedOnce: a log-tail CAS lost to the other node's
// combiner is counted in Stats.TailRetries and the loser's ReplicaGauges
// exactly as the LogTailRetry hook reports it. A lost CAS needs two
// combiners on two CPUs, so the test runs bursts of updates from both
// nodes until the observer has seen one.
func TestTailRetriesCountedOnce(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("a tail CAS is lost only to a combiner running on another CPU")
	}
	rec := &recordingObserver{}
	inst := newCounterInstance(t, Options{Topology: topology.New(2, 1, 1), LogEntries: 1 << 10, Observer: rec})
	hs := [2]*Handle[ctrOp, uint64]{registerOn(t, inst, 0), registerOn(t, inst, 1)}
	bursts := 0
	for deadline := time.Now().Add(10 * time.Second); rec.tailRetries.Load() == 0 && time.Now().Before(deadline); bursts++ {
		var wg sync.WaitGroup
		for _, h := range hs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 2000 {
					h.Execute(ctrInc)
				}
			}()
		}
		wg.Wait()
	}
	if rec.tailRetries.Load() == 0 {
		t.Fatalf("no tail CAS was lost in %d bursts of 2 × 2000 updates on two nodes", bursts)
	}
	t.Logf("%d tail retries after %d bursts", rec.tailRetries.Load(), bursts)
	reconcile(t, rec, inst.Metrics())
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
// helping the idle node, and a multi-log instance routing through its
// mapper.
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
			// replica for it (reserveConsuming, helpLaggards, replayTo).
			inst := newCounterInstance(t, Options{Topology: topology.New(2, 2, 1), LogEntries: 8})
			h := registerOn(t, inst, 0)
			return func() {
				for range 16 {
					h.Execute(ctrInc)
				}
			}, inst.Stats
		}, reached: func(before, after Stats) bool { return after.HelpedEntries > before.HelpedEntries }},
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
