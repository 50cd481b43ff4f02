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
// ordering and node attribution. Of 32 ops — 16 updates, then 16 reads —
// exactly the sampled two (seq 1, an update; one of seqs 17..32, a read)
// have spans.
func TestTraceEndToEndSpans(t *testing.T) {
	rec := trace.New(trace.Config{RingSlots: 1024})
	opts := smallTopo()
	opts.Trace = rec
	inst := newCounterInstance(t, opts)
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*trace.SampleEvery; i++ {
		if i < trace.SampleEvery {
			h.Execute(ctrInc)
		} else {
			h.Execute(ctrRead)
		}
	}

	readSeq := uint32(trace.SampleEvery + 1)
	for !trace.Sampled(readSeq) {
		readSeq++
	}
	spans := trace.Reconstruct(inst.TraceSnapshot())
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want the 2 sampled ops of 32", len(spans))
	}
	var update, read *trace.OpSpan
	for i := range spans {
		sp := &spans[i]
		if !sp.Complete {
			t.Fatalf("sampled span incomplete: %+v", *sp)
		}
		if sp.Class == "update" && sp.Seq == 1 {
			update = sp
		}
		if sp.Class == "read" && sp.Seq == readSeq {
			read = sp
		}
	}
	if update == nil || read == nil {
		t.Fatalf("missing complete spans (update seq 1 = %v, read seq %d = %v) in %+v", update != nil, readSeq, read != nil, spans)
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
	if update.LogIndex != 0 {
		t.Errorf("first update's span log index = %d, want 0: %+v", update.LogIndex, update)
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
// are distinct (each op has exactly one log position). Each handle runs 40
// ops, of which the trace.Sampled ones have spans.
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
	const per = 40
	for i := 0; i < per; i++ {
		h0.Execute(ctrInc)
		h1.Execute(ctrInc)
	}
	seenIdx := map[uint64]uint64{} // log index -> token
	for _, sp := range trace.Reconstruct(inst.TraceSnapshot()) {
		if sp.Class != "update" || !sp.Complete {
			t.Errorf("span is not a complete update: %+v", sp)
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
	reads, updates := sampledOps(per, func(int) bool { return false })
	if want := int(2 * (reads + updates)); len(seenIdx) != want {
		t.Errorf("distinct update log indexes = %d, want %d (the sampled ops of both handles)", len(seenIdx), want)
	}
}

// postOnly publishes op to h's combining slot as combine does, without
// waiting for a response or competing for the combiner lock.
func postOnly(h *Handle[ctrOp, uint64], op ctrOp) {
	s := &h.inst.replicas[h.node].slots[h.slot]
	h.seq++
	s.op, s.seq = op, h.seq
	s.state.Store(slotPosted)
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
	postOnly(h1, ctrInc)
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
// zero allocations per op, for both classes. Each measured call runs 32 ops
// (two sampling periods), so sampled and unsampled ops both run in every
// call and an allocation on either branch shows.
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
	const perCall = 2 * trace.SampleEvery
	for _, tc := range []struct {
		class string
		op    ctrOp
	}{{"read", ctrRead}, {"update", ctrInc}} {
		if n := testing.AllocsPerRun(50, func() {
			for range perCall {
				h.Execute(tc.op)
			}
		}); n != 0 {
			t.Errorf("traced %s allocates %v per %d ops, want 0", tc.class, n, perCall)
		}
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
// tear-free while ops run. Run under -race via `make tier1-race`.
func TestMetricsSnapshotRacesClose(t *testing.T) {
	rec := trace.New(trace.Config{RingSlots: 256})
	opts := Options{
		Topology:   topology.New(2, 2, 1),
		LogEntries: 256,
		Trace:      rec,
	}
	mo := obs.NewMetrics(2)
	opts.Observer = mo
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
			_ = inst.Metrics()
			if o := mo.Snapshot(); o.Update.Count > 0 && o.Update.MaxNs < o.Update.P50Ns {
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
				return // poisoned: fine, we only care about races
			}
			if _, err := h.TryExecute(ctrRead); err != nil {
				return
			}
		}
	}()

	time.Sleep(10 * time.Millisecond)
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
