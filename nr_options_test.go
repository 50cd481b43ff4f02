package nr_test

import (
	"encoding/json"
	"errors"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	nr "github.com/asplos17/nr"
	"github.com/asplos17/nr/internal/trace"
)

func newRegister() nr.Sequential[regOp, int] { return &register{} }

func TestOptionsConfigureTopology(t *testing.T) {
	inst, err := nr.New(newRegister, nr.WithNodes(3, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if inst.Replicas() != 3 {
		t.Errorf("Replicas = %d, want 3", inst.Replicas())
	}
	// 3 nodes × 2 threads: exactly 6 registrations succeed.
	for k := 0; k < 6; k++ {
		if _, err := inst.Register(); err != nil {
			t.Fatalf("registration %d failed: %v", k, err)
		}
	}
	if _, err := inst.Register(); err == nil {
		t.Error("7th registration on a 6-thread topology succeeded")
	}
}

func TestLaterOptionWins(t *testing.T) {
	inst, err := nr.New(newRegister, nr.WithNodes(4, 2, 1), nr.WithLogEntries(512), nr.WithNodes(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if inst.Replicas() != 2 {
		t.Errorf("Replicas = %d, want 2 (later option should win)", inst.Replicas())
	}
}

func TestWithMetricsPopulatesObserved(t *testing.T) {
	inst, err := nr.New(newRegister, nr.WithNodes(2, 2, 1), nr.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	const writes, reads = 50, 150
	for k := 0; k < writes; k++ {
		h.Execute(regOp{write: true, val: k})
	}
	for k := 0; k < reads; k++ {
		h.Execute(regOp{})
	}
	m := inst.Metrics()
	if m.Observed == nil {
		t.Fatal("Metrics().Observed == nil on an instance built WithMetrics")
	}
	// The latency histograms hold the sampled ops: one in each of the 12
	// whole blocks of 16 seqs, here seqs 1, 22, 43, 49 of the writes and 8
	// of the reads (69 .. 190); block 12 samples seq 205, past the run.
	sampledReads, sampledWrites := sampledOps(writes+reads, func(k int) bool { return k >= writes })
	if sampledReads != 8 || sampledWrites != 4 {
		t.Fatalf("sampledOps = %d reads / %d writes, want 8 / 4", sampledReads, sampledWrites)
	}
	if m.Observed.Read.Count != sampledReads {
		t.Errorf("observed reads = %d, want the %d sampled", m.Observed.Read.Count, sampledReads)
	}
	if m.Observed.Update.Count != sampledWrites {
		t.Errorf("observed updates = %d, want the %d sampled", m.Observed.Update.Count, sampledWrites)
	}
	if m.Stats.ReadOps != reads || m.Stats.UpdateOps != writes {
		t.Errorf("Stats = %d/%d, want %d/%d", m.Stats.ReadOps, m.Stats.UpdateOps, reads, writes)
	}
	// The snapshot marshals to JSON (the export surfaces depend on this).
	if _, err := json.Marshal(m); err != nil {
		t.Errorf("Metrics snapshot does not marshal: %v", err)
	}
}

func TestWithoutMetricsObservedIsNil(t *testing.T) {
	inst, err := nr.New(newRegister, nr.WithNodes(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if m := inst.Metrics(); m.Observed != nil {
		t.Error("Observed non-nil without WithMetrics")
	}
}

func TestWithObserverComposesWithWithMetrics(t *testing.T) {
	co := &classObserver{}
	inst, err := nr.New(newRegister, nr.WithNodes(1, 2, 1), nr.WithObserver(co), nr.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	const total = 40
	for k := 0; k < total; k++ {
		h.Execute(regOp{write: k%2 == 0, val: k})
	}
	// Both observers see the same sampled ops: seqs 1 and 22 (block 2
	// samples seq 43, past the run).
	reads, updates := sampledOps(total, func(k int) bool { return k%2 != 0 })
	sampled := reads + updates
	if reads == 0 || updates == 0 {
		t.Fatalf("sampledOps = %d reads / %d updates, want both classes", reads, updates)
	}
	if seen := co.ops[nr.OpRead].Load() + co.ops[nr.OpUpdate].Load(); seen != sampled {
		t.Errorf("custom observer saw %d OpDone events, want the %d sampled ops", seen, sampled)
	}
	m := inst.Metrics()
	if m.Observed == nil {
		t.Fatal("built-in metrics lost when composed with a custom observer")
	}
	if got := m.Observed.Read.Count + m.Observed.Update.Count; got != sampled {
		t.Errorf("built-in metrics saw %d ops, want the %d sampled", got, sampled)
	}
	if st := m.Stats; st.ReadOps+st.UpdateOps != total {
		t.Errorf("Stats count %d ops, want all %d", st.ReadOps+st.UpdateOps, total)
	}
}

// sampledOps counts the sampled ops among one handle's first n, by class:
// op k (0-based) has seq k+1 and is a read when read(k).
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

// classObserver counts OpDone events by class, through the public Observer
// alias.
type classObserver struct {
	nr.NopObserver
	ops [2]atomic.Uint64
}

func (c *classObserver) OpDone(node int, class nr.OpClass, elapsed time.Duration) {
	c.ops[class].Add(1)
}

// TestObservationSamplesOneOpInSixteen pins the sampling contract end to
// end, deterministically: two handles on two nodes each run 100 mixed ops
// under WithMetrics, a custom observer and a flight recorder. OpDone, the
// latency histograms and the reconstructed spans each cover exactly the
// sampled ops (trace.Sampled: one per block of 16 seqs), every span is
// complete, no per-op event
// belongs to an unsampled op, Stats counts every op, and a contained panic
// in an unsampled op still leaves its KPanic, carrying the op's token.
func TestObservationSamplesOneOpInSixteen(t *testing.T) {
	rec := nr.NewFlightRecorder(nr.TraceConfig{RingSlots: 4096})
	co := &classObserver{}
	inst, err := nr.New(newPanickyMap, nr.WithNodes(2, 2, 1), nr.WithMetrics(), nr.WithObserver(co),
		nr.WithFlightRecorderInstance(rec))
	if err != nil {
		t.Fatal(err)
	}
	const per, boom = 100, 5 // op 5 (seq 6) of handle 0 panics: unsampled
	isRead := func(k int) bool { return k%3 == 0 }
	var panicTok uint64
	for node := 0; node < 2; node++ {
		h, err := inst.RegisterOnNode(node)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < per; k++ {
			op := mapOp{get: isRead(k), key: "k" + strconv.Itoa(k%7), val: k}
			if node == 0 && k == boom {
				op.key = "kaboom"
			}
			_, err := h.TryExecute(op)
			if node == 0 && k == boom {
				var pe *nr.PanicError
				if !errors.As(err, &pe) {
					t.Fatalf("op %d: err = %v, want the contained panic", k, err)
				}
				panicTok = h.LastToken()
			} else if err != nil {
				t.Fatalf("node %d op %d: %v", node, k, err)
			}
		}
	}
	reads, updates := sampledOps(per, isRead)
	reads, updates = 2*reads, 2*updates
	if lo := uint64(per / trace.SampleEvery); reads+updates < 2*lo || reads+updates > 2*(lo+1) || reads == 0 || updates == 0 {
		t.Fatalf("sampled = %d reads + %d updates, want one per whole block of 16 seqs (%d) per handle, of both classes", reads, updates, lo)
	}

	if got := [2]uint64{co.ops[nr.OpRead].Load(), co.ops[nr.OpUpdate].Load()}; got != [2]uint64{reads, updates} {
		t.Errorf("OpDone events (read, update) = %v, want the sampled (%d, %d)", got, reads, updates)
	}
	m := inst.Metrics()
	if m.Observed.Read.Count != reads || m.Observed.Update.Count != updates {
		t.Errorf("Observed counts = %d reads / %d updates, want the sampled %d / %d",
			m.Observed.Read.Count, m.Observed.Update.Count, reads, updates)
	}
	if st := m.Stats; st.ReadOps != 2*34 || st.UpdateOps != 2*66 || st.Panics != 2 {
		t.Errorf("Stats = %d reads / %d updates / %d panics, want 68 / 132 / 2 (one panic per replica)",
			st.ReadOps, st.UpdateOps, st.Panics)
	}
	if m.Observed.Batch.Count != m.Stats.Combines {
		t.Errorf("batch distribution counts %d rounds, Stats.Combines = %d", m.Observed.Batch.Count, m.Stats.Combines)
	}

	snap := inst.TraceSnapshot()
	spans := nr.ReconstructSpans(snap)
	if uint64(len(spans)) != reads+updates {
		t.Errorf("spans = %d, want the %d sampled ops", len(spans), reads+updates)
	}
	for _, sp := range spans {
		if !trace.Sampled(sp.Seq) || !sp.Complete {
			t.Errorf("span seq %d (complete %v): want only complete spans of sampled ops", sp.Seq, sp.Complete)
		}
	}
	perOp := map[trace.Kind]uint64{}
	panicked := false
	for _, e := range snap.Events() {
		tok := e.A
		switch e.Kind {
		case trace.KPanic:
			panicked = panicked || e.B == panicTok
			continue
		case trace.KReplay:
			tok = e.B
		case trace.KSlotPublish, trace.KPickup, trace.KLogFill, trace.KExecute, trace.KRespond,
			trace.KTailRead, trace.KRLock, trace.KOpEnd:
		default:
			continue
		}
		perOp[e.Kind]++
		if _, _, seq := trace.TokenParts(tok); !trace.Sampled(seq) {
			t.Errorf("%s event of unsampled op seq %d", e.Kind, seq)
		}
	}
	if perOp[trace.KTailRead] != reads || perOp[trace.KSlotPublish] != updates || perOp[trace.KOpEnd] != reads+updates {
		t.Errorf("per-op events %v: want %d tail-reads, %d slot-publishes, %d op-ends", perOp, reads, updates, reads+updates)
	}
	if !panicked {
		t.Errorf("no KPanic event carrying the unsampled panicking op's token %#x", panicTok)
	}
}

func TestWithObserverNilIsIgnored(t *testing.T) {
	inst, err := nr.New(newRegister, nr.WithNodes(1, 1, 1), nr.WithObserver(nil))
	if err != nil {
		t.Fatal(err)
	}
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Execute(regOp{write: true, val: 3}); got != 3 {
		t.Errorf("Execute = %d, want 3", got)
	}
}

func TestRegisterAfterCloseSucceeds(t *testing.T) {
	inst, err := nr.New(newRegister, nr.WithNodes(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	inst.Close()
	h, err := inst.Register()
	if err != nil {
		t.Fatalf("Register after Close: %v", err)
	}
	if got := h.Execute(regOp{write: true, val: 7}); got != 7 {
		t.Errorf("Execute on a post-Close handle = %d, want 7", got)
	}
	h1, err := inst.RegisterOnNode(1)
	if err != nil {
		t.Fatalf("RegisterOnNode after Close: %v", err)
	}
	if got := h1.Execute(regOp{}); got != 7 {
		t.Errorf("read on a post-Close RegisterOnNode handle = %d, want 7", got)
	}
}
