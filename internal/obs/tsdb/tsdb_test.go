package tsdb

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/asplos17/nr/internal/obs"
)

// fakeClock steps a deterministic clock for Advance-driven tests.
type fakeClock struct {
	t time.Time
}

func (f *fakeClock) now() time.Time       { return f.t }
func (f *fakeClock) step(d time.Duration) { f.t = f.t.Add(d) }
func newClock() *fakeClock                { return &fakeClock{t: time.Unix(1000, 0)} }
func testConfig(clk *fakeClock, cfg Config) Config {
	cfg.now = clk.now
	return cfg
}

func TestWindowRatesFromCounterDeltas(t *testing.T) {
	clk := newClock()
	var g Gauges
	c := New(testConfig(clk, Config{
		Interval: time.Second,
		Windows:  4,
		Source:   func(dst *Gauges) { *dst = g },
	}))

	// Two seconds, 1000 reads and 100 updates per second.
	for i := 1; i <= 2; i++ {
		g.ReadOps = uint64(i) * 1000
		g.UpdateOps = uint64(i) * 100
		g.LogOccupancy = 0.25
		clk.step(time.Second)
		c.Advance()
	}

	w, ok := c.Last()
	if !ok {
		t.Fatal("no window after two captures")
	}
	if w.ReadOpsPerSec != 1000 || w.UpdateOpsPerSec != 100 {
		t.Errorf("rates = %v read/s %v upd/s, want 1000/100", w.ReadOpsPerSec, w.UpdateOpsPerSec)
	}
	if w.OpsPerSec != 1100 {
		t.Errorf("OpsPerSec = %v, want 1100", w.OpsPerSec)
	}
	if w.LogOccupancy != 0.25 {
		t.Errorf("LogOccupancy = %v, want 0.25 (closing capture's gauge)", w.LogOccupancy)
	}
	if w.Seconds != 1 {
		t.Errorf("Seconds = %v, want 1", w.Seconds)
	}

	ws := c.Snapshot()
	if len(ws) != 2 {
		t.Fatalf("Snapshot len = %d, want 2", len(ws))
	}
	if !ws[0].End.Equal(ws[1].Start) {
		t.Errorf("windows not adjacent: %v then %v", ws[0].End, ws[1].Start)
	}
}

func TestRingEvictsOldestWindows(t *testing.T) {
	clk := newClock()
	var reads uint64
	c := New(testConfig(clk, Config{
		Interval: time.Second,
		Windows:  3,
		Source: func(dst *Gauges) {
			reads += 10
			dst.ReadOps = reads
		},
	}))

	for i := 0; i < 10; i++ {
		clk.step(time.Second)
		c.Advance()
	}
	if n := c.Samples(); n != 4 { // Windows+1 ring slots
		t.Errorf("Samples = %d, want 4", n)
	}
	ws := c.Snapshot()
	if len(ws) != 3 {
		t.Fatalf("Snapshot len = %d, want 3 retained windows", len(ws))
	}
	for i, w := range ws {
		if w.ReadOpsPerSec != 10 {
			t.Errorf("window %d rate = %v, want 10", i, w.ReadOpsPerSec)
		}
	}
}

func TestCounterResetClampsToZero(t *testing.T) {
	clk := newClock()
	var g Gauges
	c := New(testConfig(clk, Config{Windows: 4, Source: func(dst *Gauges) { *dst = g }}))

	g.ReadOps = 1000
	clk.step(time.Second)
	c.Advance()
	g.ReadOps = 50 // went backwards (reset / racy capture)
	clk.step(time.Second)
	c.Advance()

	w, _ := c.Last()
	if w.ReadOpsPerSec != 0 {
		t.Errorf("rate over a counter reset = %v, want clamped 0", w.ReadOpsPerSec)
	}
}

func TestWindowLatencyTailsFromBucketDeltas(t *testing.T) {
	clk := newClock()
	m := obs.NewMetrics(2)
	c := New(testConfig(clk, Config{Windows: 4, Observed: m}))

	// First interval: all reads fast.
	for i := 0; i < 1000; i++ {
		m.OpDone(0, obs.OpRead, time.Microsecond)
	}
	clk.step(time.Second)
	c.Advance()

	// Second interval: slow tail appears. The window must report it even
	// though lifetime-cumulative percentiles would still be dominated by the
	// earlier fast traffic.
	for i := 0; i < 90; i++ {
		m.OpDone(0, obs.OpRead, time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		m.OpDone(0, obs.OpRead, 10*time.Millisecond)
	}
	clk.step(time.Second)
	c.Advance()

	w, _ := c.Last()
	if w.ReadP99Ns < uint64((5 * time.Millisecond).Nanoseconds()) {
		t.Errorf("window p99 = %dns, want the interval's own 10ms tail visible", w.ReadP99Ns)
	}
	if w.ReadP50Ns > uint64((100 * time.Microsecond).Nanoseconds()) {
		t.Errorf("window p50 = %dns, want ~1µs", w.ReadP50Ns)
	}

	ws := c.Snapshot()
	if first := ws[0]; first.ReadP99Ns >= uint64((5 * time.Millisecond).Nanoseconds()) {
		t.Errorf("first window p99 = %dns, should not see the later tail", first.ReadP99Ns)
	}
}

func TestWindowBatchDistribution(t *testing.T) {
	clk := newClock()
	m := obs.NewMetrics(1)
	c := New(testConfig(clk, Config{Windows: 4, Observed: m}))

	for i := 0; i < 100; i++ {
		m.CombineEnd(0, 8, 8, time.Microsecond)
	}
	clk.step(time.Second)
	c.Advance()

	w, _ := c.Last()
	if w.BatchMean < 7 || w.BatchMean > 9 {
		t.Errorf("BatchMean = %v, want ~8", w.BatchMean)
	}
	if w.BatchP50 < 8 {
		t.Errorf("BatchP50 = %d, want >= 8", w.BatchP50)
	}
	if len(w.Nodes) != 1 || w.Nodes[0].CombinesPerSec != 100 {
		t.Errorf("node window = %+v, want 100 combines/s on node 0", w.Nodes)
	}
}

// TestNodeWindowFromReplicaGauges: a node's lag and read-lock acquisition
// rate come from the replica gauges the Source samples, matched by node.
func TestNodeWindowFromReplicaGauges(t *testing.T) {
	clk := newClock()
	var g Gauges
	c := New(testConfig(clk, Config{
		Windows:  4,
		Observed: obs.NewMetrics(2),
		Source:   func(dst *Gauges) { *dst = g },
	}))
	for i := uint64(1); i <= 2; i++ {
		g.Replicas = []ReplicaGauge{
			{Node: 0, ReaderAcquires: 500 * i},
			{Node: 1, ReaderAcquires: 30 * i, CompletedLag: 7},
		}
		clk.step(time.Second)
		c.Advance()
	}
	w, _ := c.Last()
	if len(w.Nodes) != 2 {
		t.Fatalf("node windows = %+v, want 2", w.Nodes)
	}
	if got := w.Nodes[0].ReaderAcquiresPerSec; got != 500 {
		t.Errorf("node 0 reader acquires/s = %v, want 500", got)
	}
	if got := w.Nodes[1]; got.ReaderAcquiresPerSec != 30 || got.CompletedLag != 7 {
		t.Errorf("node 1 window = %+v, want 30 acquires/s and lag 7", got)
	}
}

func TestSLOBreachAndBudget(t *testing.T) {
	clk := newClock()
	m := obs.NewMetrics(1)
	var breaches []BreachEvent
	c := New(testConfig(clk, Config{
		Windows:           8,
		Observed:          m,
		SLOs:              []SLO{{Class: obs.OpRead, P99: time.Millisecond, Budget: 0.5}},
		OnBreach:          func(ev BreachEvent) { breaches = append(breaches, ev) },
		BreachMinInterval: time.Nanosecond, // no rate limit for the test
	}))

	// Window 1: healthy.
	for i := 0; i < 100; i++ {
		m.OpDone(0, obs.OpRead, time.Microsecond)
	}
	clk.step(time.Second)
	c.Advance()
	if got := c.SLOStatuses(); got[0].Breached || got[0].TotalWindows != 1 {
		t.Fatalf("healthy window judged wrong: %+v", got[0])
	}
	if len(breaches) != 0 {
		t.Fatalf("breach fired on a healthy window")
	}

	// Window 2: p99 blows through 1ms.
	for i := 0; i < 100; i++ {
		m.OpDone(0, obs.OpRead, 20*time.Millisecond)
	}
	clk.step(time.Second)
	c.Advance()

	st := c.SLOStatuses()[0]
	if !st.Breached || st.BreachedWindows != 1 || st.TotalWindows != 2 {
		t.Fatalf("breached window judged wrong: %+v", st)
	}
	if st.BudgetBurn != 1 { // 1 of 2 windows breached, budget 0.5
		t.Errorf("BudgetBurn = %v, want 1.0", st.BudgetBurn)
	}
	if len(breaches) != 1 || breaches[0].Status.Class != "read" {
		t.Fatalf("breach callback = %+v, want one read-class event", breaches)
	}

	// Window 3: no traffic — not judged, state holds.
	clk.step(time.Second)
	c.Advance()
	if st := c.SLOStatuses()[0]; st.TotalWindows != 2 {
		t.Errorf("no-traffic window was judged: %+v", st)
	}
}

func TestSLOBreachRateLimit(t *testing.T) {
	clk := newClock()
	m := obs.NewMetrics(1)
	var fired atomic.Int32
	c := New(testConfig(clk, Config{
		Windows:           8,
		Observed:          m,
		SLOs:              []SLO{{Class: obs.OpRead, P99: time.Millisecond}},
		OnBreach:          func(BreachEvent) { fired.Add(1) },
		BreachMinInterval: 30 * time.Second,
	}))

	for w := 0; w < 5; w++ {
		for i := 0; i < 100; i++ {
			m.OpDone(0, obs.OpRead, 20*time.Millisecond)
		}
		clk.step(time.Second)
		c.Advance()
	}
	if got := fired.Load(); got != 1 {
		t.Errorf("OnBreach fired %d times in 5s of sustained breach, want 1 (rate-limited)", got)
	}
	if st := c.SLOStatuses()[0]; st.BreachedWindows != 5 {
		t.Errorf("BreachedWindows = %d, want 5 (counting is not rate-limited)", st.BreachedWindows)
	}
}

func TestLatestCum(t *testing.T) {
	clk := newClock()
	m := obs.NewMetrics(1)
	c := New(testConfig(clk, Config{Windows: 4, Observed: m}))

	for i := 0; i < 42; i++ {
		m.OpDone(0, obs.OpRead, time.Microsecond)
	}
	clk.step(time.Second)
	c.Advance()

	var cum obs.Cum
	if !c.LatestCum(&cum) {
		t.Fatal("LatestCum found nothing")
	}
	if got := cum.Latency[obs.OpRead].Total; got != 42 {
		t.Errorf("latest capture read count = %d, want 42", got)
	}
}

func TestCloseWithoutStart(t *testing.T) {
	c := New(Config{Windows: 2})
	c.Close() // must not hang or panic
	c = New(Config{Windows: 2})
	c.Start()
	c.Close()
	c.Close() // idempotent
}

// TestConcurrentStress drives captures and every reader concurrently; run
// with -race it is the collector's data-race regression test.
func TestConcurrentStress(t *testing.T) {
	m := obs.NewMetrics(2)
	var ops atomic.Uint64
	c := New(Config{
		Interval: time.Millisecond,
		Windows:  16,
		Observed: m,
		Source:   func(dst *Gauges) { dst.ReadOps = ops.Load() },
		SLOs:     []SLO{{Class: obs.OpRead, P99: time.Microsecond}},
		OnBreach: func(BreachEvent) {},
	})
	defer c.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writers: observer traffic on both nodes.
	for n := 0; n < 2; n++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.OpDone(node, obs.OpRead, 5*time.Millisecond)
				m.CombineEnd(node, 4, 4, time.Microsecond)
				ops.Add(1)
			}
		}(n)
	}
	// Capture cadence, driven hard.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			c.Advance()
		}
	}()
	// Readers: every derived view.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cum obs.Cum
			for i := 0; i < 200; i++ {
				_ = c.Snapshot()
				_, _ = c.Last()
				_ = c.SLOStatuses()
				_ = c.LatestCum(&cum)
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	timer := time.NewTimer(30 * time.Second)
	defer timer.Stop()
	// Let the workers run; the writers stop once the others are done.
	go func() {
		time.Sleep(100 * time.Millisecond)
		close(stop)
	}()
	select {
	case <-done:
	case <-timer.C:
		t.Fatal("stress test wedged")
	}
}

// TestAdvanceDoesNotAllocate pins the collector's tick at zero allocations
// once the ring is full: the capture (Source, obs.ReadCum into a reused
// slot) and the SLO judgment of a window with traffic and no breach.
func TestAdvanceDoesNotAllocate(t *testing.T) {
	clk := newClock()
	m := obs.NewMetrics(2)
	c := New(testConfig(clk, Config{
		Windows:  4,
		Source:   func(g *Gauges) { g.LogTail += 10 },
		Observed: m,
		SLOs:     []SLO{{Class: obs.OpRead, P99: time.Second, P999: time.Second}},
	}))
	tick := func() {
		m.OpDone(0, obs.OpRead, time.Microsecond)
		m.OpDone(1, obs.OpUpdate, 2*time.Microsecond)
		clk.step(time.Second)
		c.Advance()
	}
	for i := 0; i < 8; i++ { // fill the ring and size every capture
		tick()
	}
	if n := testing.AllocsPerRun(100, tick); n != 0 {
		t.Errorf("Advance allocates %v per tick, want 0", n)
	}
	if st := c.SLOStatuses()[0]; st.Breached || st.TotalWindows < 100 {
		t.Errorf("SLO status %+v, want judged windows and no breach", st)
	}
}
