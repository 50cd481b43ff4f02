package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/asplos17/nr/internal/obs"
	"github.com/asplos17/nr/internal/topology"
	"github.com/asplos17/nr/internal/trace"
)

// phaseNames flattens a span's phase sequence for ordering assertions.
func phaseNames(sp trace.OpSpan) []string {
	out := make([]string, len(sp.Phases))
	for i, p := range sp.Phases {
		out[i] = p.Name
	}
	return out
}

// indexOf returns the position of name in names, -1 if absent.
func indexOf(names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}

// TestTraceEndToEndSpans is the acceptance e2e: run real update and read
// ops through an instance with the flight recorder attached, then
// reconstruct complete span chains from the snapshot and check milestone
// ordering and node attribution.
func TestTraceEndToEndSpans(t *testing.T) {
	rec := trace.New(trace.Config{RingSlots: 1024})
	opts := smallTopo()
	opts.Trace = rec
	inst := newCounterInstance(t, opts)
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		h.Execute(ctrInc)
		h.Execute(ctrRead)
	}

	spans := trace.Reconstruct(inst.TraceSnapshot())
	var update, read *trace.OpSpan
	for i := range spans {
		sp := &spans[i]
		if !sp.Complete {
			continue
		}
		if sp.Class == "update" && update == nil {
			update = sp
		}
		if sp.Class == "read" && read == nil {
			read = sp
		}
	}
	if update == nil || read == nil {
		t.Fatalf("missing complete spans (update=%v read=%v) in %d spans", update != nil, read != nil, len(spans))
	}

	// Node attribution: both spans must carry the registering handle's node.
	if update.Node != h.Node() || read.Node != h.Node() {
		t.Errorf("span nodes = (update %d, read %d), want handle node %d", update.Node, read.Node, h.Node())
	}

	// Update chain: slot-publish → combiner-pickup → log-fill → execute →
	// respond → op-end, strictly in that order.
	names := phaseNames(*update)
	chain := []string{"slot-publish", "combiner-pickup", "log-fill", "execute", "respond", "op-end"}
	last := -1
	for _, m := range chain {
		idx := indexOf(names, m)
		if idx < 0 {
			t.Fatalf("update span lacks %q: phases %v", m, names)
		}
		if idx <= last {
			t.Fatalf("update milestone %q out of order: phases %v", m, names)
		}
		last = idx
	}
	if update.StartNs > update.EndNs {
		t.Errorf("update span window inverted: [%d, %d]", update.StartNs, update.EndNs)
	}
	if update.LogIndex == 0 && update.Seq > 1 {
		t.Errorf("update span has no log index: %+v", update)
	}

	// Read chain: tail-read → rlock → op-end.
	names = phaseNames(*read)
	last = -1
	for _, m := range []string{"tail-read", "rlock", "op-end"} {
		idx := indexOf(names, m)
		if idx < 0 {
			t.Fatalf("read span lacks %q: phases %v", m, names)
		}
		if idx <= last {
			t.Fatalf("read milestone %q out of order: phases %v", m, names)
		}
		last = idx
	}
}

// TestTraceSpansAcrossNodes checks attribution when two nodes submit: each
// node's spans carry that node's id, and log indexes over all update spans
// are distinct (each op has exactly one log position).
func TestTraceSpansAcrossNodes(t *testing.T) {
	rec := trace.New(trace.Config{RingSlots: 1024})
	opts := Options{Topology: topology.New(2, 2, 1), LogEntries: 256, Trace: rec}
	inst := newCounterInstance(t, opts)
	h0, err := inst.RegisterOnNode(0)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := inst.RegisterOnNode(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		h0.Execute(ctrInc)
		h1.Execute(ctrInc)
	}
	seenIdx := map[uint64]uint64{} // log index -> token
	for _, sp := range trace.Reconstruct(inst.TraceSnapshot()) {
		if sp.Class != "update" || !sp.Complete {
			continue
		}
		if sp.Node != 0 && sp.Node != 1 {
			t.Errorf("update span on impossible node %d", sp.Node)
		}
		if prev, dup := seenIdx[sp.LogIndex]; dup {
			t.Errorf("log index %d claimed by tokens %#x and %#x", sp.LogIndex, prev, sp.Token)
		}
		seenIdx[sp.LogIndex] = sp.Token
	}
	if len(seenIdx) != 6 {
		t.Errorf("distinct update log indexes = %d, want 6", len(seenIdx))
	}
}

// TestTwoPostedOpsShareOneReservation pins the one-CAS k-entry reservation
// (§5.1) deterministically, with nothing configured: an op left posted by
// one handle and an op executed by another handle of the same node must go
// through one combining round that reserves both log entries at once.
func TestTwoPostedOpsShareOneReservation(t *testing.T) {
	obsv := &recordingObserver{}
	opts := smallTopo()
	opts.Trace = trace.New(trace.Config{RingSlots: 256})
	opts.Observer = obsv
	inst := newCounterInstance(t, opts)
	h1, err := inst.RegisterOnNode(0)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := inst.RegisterOnNode(0)
	if err != nil {
		t.Fatal(err)
	}
	before := inst.Stats()
	h1.PostAndAbandon(ctrInc)
	// The combiner collects slots in index order, so h1's op is applied
	// first and h2's increment returns 2.
	if got := h2.Execute(ctrInc); got != 2 {
		t.Fatalf("second increment of the round = %d, want 2", got)
	}
	after := inst.Stats()
	if d := after.Combines - before.Combines; d != 1 {
		t.Errorf("Combines grew by %d, want 1 round for both ops", d)
	}
	if d := after.CombinedOps - before.CombinedOps; d != 2 {
		t.Errorf("CombinedOps grew by %d, want 2", d)
	}
	var reserves []uint64
	for _, e := range inst.TraceSnapshot().Events() {
		if e.Kind == trace.KLogReserve {
			reserves = append(reserves, e.B)
		}
	}
	if len(reserves) != 1 || reserves[0] != 2 {
		t.Errorf("log reservations (entries each) = %v, want one reservation of 2", reserves)
	}
	if got := obsv.tailRetries.Load(); got != 0 {
		t.Errorf("LogTailRetry reported %d retries on an uncontended tail", got)
	}
}

// TestTraceHotPathDoesNotAllocate pins the recorder-attached hot path at
// zero allocations per op, for both classes.
func TestTraceHotPathDoesNotAllocate(t *testing.T) {
	rec := trace.New(trace.Config{RingSlots: 1024})
	opts := smallTopo()
	opts.Trace = rec
	inst := newCounterInstance(t, opts)
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	h.Execute(ctrInc) // warm up (first combine primes scratch reuse)
	if n := testing.AllocsPerRun(200, func() { h.Execute(ctrRead) }); n != 0 {
		t.Errorf("traced read allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { h.Execute(ctrInc) }); n != 0 {
		t.Errorf("traced update allocates %v per op, want 0", n)
	}
}

// TestTraceProfileLabelsSampled exercises the pprof-labeled sampling path:
// every rate-th op dispatches through dispatchLabeled and must still return
// correct results and record its span end.
func TestTraceProfileLabelsSampled(t *testing.T) {
	rec := trace.New(trace.Config{RingSlots: 256, ProfileSampleRate: 2})
	opts := smallTopo()
	opts.Trace = rec
	inst := newCounterInstance(t, opts)
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		if got := h.Execute(ctrInc); got != i {
			t.Fatalf("inc #%d through sampled path = %d", i, got)
		}
	}
	var completes int
	for _, sp := range trace.Reconstruct(inst.TraceSnapshot()) {
		if sp.Complete {
			completes++
		}
	}
	if completes != 10 {
		t.Errorf("complete spans = %d, want 10 (sampled ops must still close)", completes)
	}
}

// TestTraceRecorderAccessors covers the instance-level trace API.
func TestTraceRecorderAccessors(t *testing.T) {
	plain := newCounterInstance(t, smallTopo())
	if plain.TraceRecorder() != nil {
		t.Error("untraced instance reports a recorder")
	}
	if snap := plain.TraceSnapshot(); len(snap.Rings) != 0 {
		t.Error("untraced snapshot not empty")
	}
	rec := trace.New(trace.Config{RingSlots: 64})
	opts := smallTopo()
	opts.Trace = rec
	traced := newCounterInstance(t, opts)
	if traced.TraceRecorder() != rec {
		t.Error("TraceRecorder does not round-trip")
	}
}

// TestMetricsSnapshotRacesClose is the observability-tear regression test:
// Metrics(), Stats(), Health(), and TraceSnapshot() must be safe and
// tear-free while ops run and the instance shuts down. Run under -race via
// `make tier1-race`.
func TestMetricsSnapshotRacesClose(t *testing.T) {
	rec := trace.New(trace.Config{RingSlots: 256})
	opts := Options{
		Topology:           topology.New(2, 2, 1),
		LogEntries:         256,
		DedicatedCombiners: true,
		StallThreshold:     50 * time.Millisecond,
		Trace:              rec,
	}
	opts.Observer = obs.NewMetrics(2)
	inst := newCounterInstance(t, opts)
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // snapshot reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := inst.Metrics()
			if m.Observed != nil && m.Observed.Update.Count > 0 && m.Observed.Update.MaxNs < m.Observed.Update.P50Ns {
				t.Error("torn latency snapshot: max below p50")
			}
			_ = inst.Health()
			_ = inst.TraceSnapshot()
		}
	}()
	go func() { // op driver
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			if _, err := h.TryExecute(ctrInc); err != nil {
				return // poisoned or closed: fine, we only care about races
			}
			if _, err := h.TryExecute(ctrRead); err != nil {
				return
			}
		}
	}()

	time.Sleep(10 * time.Millisecond)
	inst.Close() // concurrent with both loops
	// Snapshots must stay safe after Close too.
	_ = inst.Metrics()
	_ = inst.TraceSnapshot()
	close(stop)
	wg.Wait()
}

// TestTraceSlowReportFromInstance smoke-tests the text exporter against a
// real instance's snapshot (not a hand-built fixture).
func TestTraceSlowReportFromInstance(t *testing.T) {
	rec := trace.New(trace.Config{RingSlots: 256})
	opts := smallTopo()
	opts.Trace = rec
	inst := newCounterInstance(t, opts)
	h, _ := inst.Register()
	for i := 0; i < 20; i++ {
		h.Execute(ctrInc)
	}
	var sb strings.Builder
	if err := trace.WriteSlowReport(&sb, inst.TraceSnapshot(), 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "update") {
		t.Fatalf("slow report has no update lines:\n%s", sb.String())
	}
}
