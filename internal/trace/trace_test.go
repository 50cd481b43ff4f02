package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// ring returns a fresh recorder+ring pair with the given slot count.
func ring(t *testing.T, slots int) (*Recorder, *Ring) {
	t.Helper()
	rec := New(Config{RingSlots: slots})
	return rec, rec.AcquireRing()
}

func TestConfigRingSlotsRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1024}, {-3, 1024}, {1, 1}, {2, 2}, {3, 4}, {1000, 1024}, {4096, 4096}, {5000, 8192},
	} {
		if got := (Config{RingSlots: tc.in}).ringSlots(); got != tc.want {
			t.Errorf("ringSlots(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestConfigRingSlotsIsCapped: rounding a request above 2^62 up to a power
// of two overflowed to 0 and never finished, hanging the first AcquireRing.
func TestConfigRingSlotsIsCapped(t *testing.T) {
	for _, in := range []int{maxRingSlots + 1, math.MaxInt64/2 + 2, math.MaxInt} {
		got := make(chan int, 1)
		go func() { got <- (Config{RingSlots: in}).ringSlots() }()
		select {
		case n := <-got:
			if n != maxRingSlots {
				t.Errorf("ringSlots(%d) = %d, want %d", in, n, maxRingSlots)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("ringSlots(%d) did not return within 5s", in)
		}
	}
}

// TestRingLayout pins the writers' position counter on a later cache line
// than the slots header every snapshot reads.
func TestRingLayout(t *testing.T) {
	var g Ring
	slotsEnd := unsafe.Offsetof(g.slots) + unsafe.Sizeof(g.slots) - 1
	if pos := unsafe.Offsetof(g.pos); pos/64 <= slotsEnd/64 {
		t.Errorf("Ring.pos (offset %d) is not on a later 64-byte line than Ring.slots (ends at %d)", pos, slotsEnd)
	}
}

func TestTokenRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		node, slot int
		seq        uint32
	}{{0, 0, 0}, {3, 17, 42}, {255, 1023, 1<<32 - 1}} {
		node, slot, seq := TokenParts(Token(tc.node, tc.slot, tc.seq))
		if node != tc.node || slot != tc.slot || seq != tc.seq {
			t.Errorf("TokenParts(Token(%d,%d,%d)) = (%d,%d,%d)", tc.node, tc.slot, tc.seq, node, slot, seq)
		}
	}
}

func TestRecordAndSnapshot(t *testing.T) {
	rec, g := ring(t, 16)
	g.Record(KTailRead, 2, 7, 9)
	g.Record(KRLock, 2, 7, 0)
	snap := rec.Snapshot()
	if len(snap.Rings) != 1 {
		t.Fatalf("rings = %d, want 1", len(snap.Rings))
	}
	evs := snap.Rings[0].Events
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	e := evs[0]
	if e.Kind != KTailRead || e.Node != 2 || e.A != 7 || e.B != 9 || e.Ring != 0 {
		t.Errorf("event 0 = %+v", e)
	}
	if evs[1].Ts < e.Ts {
		t.Errorf("timestamps not monotone: %d then %d", e.Ts, evs[1].Ts)
	}
}

// TestRingWrapAround drives a small ring far past its capacity and checks
// that the snapshot holds exactly the newest events, oldest first.
func TestRingWrapAround(t *testing.T) {
	const slots, total = 8, 100
	rec, g := ring(t, slots)
	for i := 0; i < total; i++ {
		g.Record(KOpEnd, 0, uint64(i), 1)
	}
	evs := rec.Snapshot().Rings[0].Events
	if len(evs) != slots {
		t.Fatalf("events after wrap = %d, want %d", len(evs), slots)
	}
	for i, e := range evs {
		if want := uint64(total - slots + i); e.A != want {
			t.Errorf("event %d: A = %d, want %d (overwrite-oldest order)", i, e.A, want)
		}
	}
}

// TestConcurrentWritersSameRing exercises the tolerated sharing mode: many
// goroutines recording into one ring. Every surviving event must be
// internally consistent (the A==B invariant below), and the fetch-add must
// have handed out distinct slots (no event observed twice). At rest a lone
// writer leaves a full ring. Several may leave fewer: a writer preempted
// between its position fetch-add and its seal can re-seal its slot after a
// later lap's writer did, and the snapshot drops that slot (the tolerated
// cross-lap tear) — at most one slot per writer.
func TestConcurrentWritersSameRing(t *testing.T) {
	const total, slots = 16000, 1024
	for _, writers := range []int{1, 8} {
		t.Run(fmt.Sprintf("writers=%d", writers), func(t *testing.T) {
			perWriter := total / writers
			rec, g := ring(t, slots)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						v := uint64(w)<<32 | uint64(i)
						g.Record(KOpEnd, w, v, v)
					}
				}(w)
			}
			// Snapshot concurrently with the writers: every event that
			// survives the seqlock + lap floor must still satisfy A == B.
			for i := 0; i < 50; i++ {
				for _, e := range rec.Snapshot().Rings[0].Events {
					if e.A != e.B {
						t.Fatalf("torn event escaped snapshot: %+v", e)
					}
				}
			}
			wg.Wait()
			evs := rec.Snapshot().Rings[0].Events
			if writers == 1 && len(evs) != slots {
				t.Fatalf("quiescent snapshot = %d events, want the full ring %d", len(evs), slots)
			}
			if len(evs) < slots-writers || len(evs) > slots {
				t.Fatalf("quiescent snapshot = %d events, want %d..%d (a full ring less at most one slot per writer)", len(evs), slots-writers, slots)
			}
			seen := make(map[uint64]bool, len(evs))
			for _, e := range evs {
				if e.A != e.B {
					t.Fatalf("torn event at rest: %+v", e)
				}
				if seen[e.A] {
					t.Fatalf("event %x recorded into two live slots", e.A)
				}
				seen[e.A] = true
			}
		})
	}
}

func TestResetHidesOldEvents(t *testing.T) {
	rec, g := ring(t, 64)
	g.Record(KOpEnd, 0, 1, 0)
	g.Record(KOpEnd, 0, 2, 0)
	rec.Reset()
	// The reset cut is a clock watermark; make the next event's stamp land
	// strictly after it even on a coarse clock.
	time.Sleep(time.Millisecond)
	g.Record(KOpEnd, 0, 3, 0)
	evs := rec.Snapshot().Rings[0].Events
	if len(evs) != 1 || evs[0].A != 3 {
		t.Fatalf("post-reset events = %+v, want only A=3", evs)
	}
}

func TestNilRecorderAndRingAreNoOps(t *testing.T) {
	var rec *Recorder
	if g := rec.AcquireRing(); g != nil {
		t.Fatal("nil recorder handed out a ring")
	}
	var g *Ring
	g.Record(KOpEnd, 0, 1, 2) // must not panic
	g.RecordAt(5, KOpEnd, 0, 1, 2)
	if g.ID() != -1 {
		t.Fatal("nil ring ID not -1")
	}
	if rec.Rings() != 0 {
		t.Fatal("nil recorder accessors not zero")
	}
	if s := rec.Snapshot(); len(s.Rings) != 0 {
		t.Fatal("nil recorder snapshot not empty")
	}
	rec.Reset()           // must not panic
	rec.AutoDump("panic") // must not panic
}

// TestSampledPicksOneInSixteen pins the sampling predicate: exactly one
// seq in every block of SampleEvery (seqs 1..16, 17..32, ...), the first
// op's (seq 1) among them, and not at one fixed offset: over 64 blocks the
// picks land at both parities and at no fewer than 8 of the 16 offsets, so
// a handle whose ops alternate two classes samples both.
func TestSampledPicksOneInSixteen(t *testing.T) {
	if !Sampled(1) {
		t.Error("a handle's first op (seq 1) is not sampled")
	}
	offsets := map[uint32]int{}
	for base := uint32(0); base < 64*SampleEvery; base += SampleEvery {
		var picked []uint32
		for seq := base + 1; seq <= base+SampleEvery; seq++ {
			if Sampled(seq) {
				picked = append(picked, seq)
			}
		}
		if len(picked) != 1 {
			t.Errorf("Sampled over seqs %d..%d picks %v, want exactly one", base+1, base+SampleEvery, picked)
			continue
		}
		offsets[picked[0]-base-1]++
	}
	odd := 0
	for off, n := range offsets {
		odd += int(off%2) * n
	}
	if len(offsets) < 8 || odd < 16 || odd > 48 {
		t.Errorf("picks over 64 blocks land at offsets %v (%d odd), want at least 8 offsets and 16..48 odd", offsets, odd)
	}
}

// TestNowIsMonotoneAndPositive: the one clock never reads 0 (the combiner
// locks use 0 for "free") and never runs backwards.
func TestNowIsMonotoneAndPositive(t *testing.T) {
	prev := Now()
	for range 1000 {
		now := Now()
		if now <= 0 || now < prev {
			t.Fatalf("Now() = %d after %d", now, prev)
		}
		prev = now
	}
}

// TestRecordDoesNotAllocate pins the hot path at zero allocations.
func TestRecordDoesNotAllocate(t *testing.T) {
	_, g := ring(t, 256)
	if n := testing.AllocsPerRun(1000, func() {
		g.Record(KOpEnd, 1, 42, 1)
	}); n != 0 {
		t.Fatalf("Record allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		g.RecordAt(17, KLogFill, 1, 42, 1)
	}); n != 0 {
		t.Fatalf("RecordAt allocates %v per op, want 0", n)
	}
}

func TestAutoDumpCallbackAndRateLimit(t *testing.T) {
	var mu sync.Mutex
	var reasons []string
	cfg := Config{
		RingSlots:       16,
		DumpMinInterval: time.Hour, // the window never expires within the test
		OnDump: func(reason string, snap Snapshot) {
			mu.Lock()
			reasons = append(reasons, reason)
			mu.Unlock()
		},
	}
	rec := New(cfg)
	rec.AcquireRing().Record(KPanic, 0, 1, 0)
	rec.AutoDump("poisoned")
	rec.AutoDump("panic") // rate-limited away
	mu.Lock()
	defer mu.Unlock()
	if len(reasons) != 1 || reasons[0] != "poisoned" {
		t.Fatalf("dump reasons = %v, want [poisoned]", reasons)
	}
}

// TestAutoDumpFileIsAtomic: the black box must appear fully written or not
// at all — a complete JSON file under the final name, with no .tmp litter
// left behind (the temp + rename protocol cleaned up after itself).
func TestAutoDumpFileIsAtomic(t *testing.T) {
	dir := t.TempDir()
	rec := New(Config{RingSlots: 16, DumpMinInterval: -1, DumpDir: dir})
	rec.AcquireRing().Record(KPanic, 0, 1, 0)
	rec.AutoDump("poisoned")
	rec.AutoDump("panic")

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var dumps []string
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("AutoDump left temp file %s behind", e.Name())
			continue
		}
		dumps = append(dumps, e.Name())
	}
	if len(dumps) != 2 {
		t.Fatalf("dump files = %v, want 2", dumps)
	}
	for _, name := range dumps {
		if !strings.HasPrefix(name, "nrtrace-") || !strings.HasSuffix(name, ".json") {
			t.Errorf("dump file %s does not match nrtrace-<reason>-<n>.json", name)
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Errorf("dump %s is not complete JSON: %v", name, err)
		}
	}

	// A dump into a missing directory must fail without leaving state.
	rec2 := New(Config{RingSlots: 16, DumpMinInterval: -1, DumpDir: filepath.Join(dir, "missing")})
	rec2.AutoDump("panic") // must not panic
}

func TestAutoDumpNoLimitDeliversEvery(t *testing.T) {
	var n int
	rec := New(Config{
		DumpMinInterval: -1,
		OnDump:          func(string, Snapshot) { n++ },
	})
	rec.AutoDump("panic")
	rec.AutoDump("panic")
	rec.AutoDump("poisoned")
	if n != 3 {
		t.Fatalf("dumps delivered = %d, want 3", n)
	}
}

// buildSpanFixture records one complete update lifecycle and one read
// lifecycle with hand-picked timestamps, split across a submitter ring and
// a combiner ring the way the real protocol splits them.
func buildSpanFixture(rec *Recorder) {
	sub := rec.AcquireRing()  // ring 0: the submitting thread
	comb := rec.AcquireRing() // ring 1: another thread acting as combiner

	upd := Token(1, 3, 7)
	sub.RecordAt(100, KSlotPublish, 1, upd, 0)
	comb.RecordAt(150, KCombineStart, 1, 0, 0)
	comb.RecordAt(150, KPickup, 1, upd, 0)
	comb.RecordAt(220, KLogReserve, 1, 12, 1)
	comb.RecordAt(220, KLogFill, 1, upd, 12)
	comb.RecordAt(300, KExecute, 1, upd, 12)
	comb.RecordAt(360, KRespond, 1, upd, 12)
	comb.RecordAt(370, KCombineEnd, 1, 1, 1)
	sub.RecordAt(400, KOpEnd, 1, upd, 1)

	rd := Token(0, 2, 9)
	sub.RecordAt(500, KTailRead, 0, rd, 13)
	sub.RecordAt(560, KRLock, 0, rd, 4)
	sub.RecordAt(640, KOpEnd, 0, rd, 0)
}

func TestReconstructSpans(t *testing.T) {
	rec := New(Config{RingSlots: 64})
	buildSpanFixture(rec)
	spans := Reconstruct(rec.Snapshot())
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2 (got %+v)", len(spans), spans)
	}

	up := spans[0]
	if up.Class != "update" || !up.Complete {
		t.Fatalf("update span class=%q complete=%v", up.Class, up.Complete)
	}
	if up.Node != 1 || up.Slot != 3 || up.Seq != 7 {
		t.Fatalf("update span identity = node %d slot %d seq %d", up.Node, up.Slot, up.Seq)
	}
	if up.LogIndex != 12 {
		t.Fatalf("update span log index = %d, want 12", up.LogIndex)
	}
	if up.Ring != 0 {
		t.Fatalf("update span attributed to ring %d, want submitter ring 0", up.Ring)
	}
	if up.StartNs != 100 || up.EndNs != 400 {
		t.Fatalf("update span window = [%d, %d], want [100, 400]", up.StartNs, up.EndNs)
	}
	wantOrder := []string{"slot-publish", "combiner-pickup", "log-fill", "execute", "respond", "op-end"}
	var names []string
	for _, p := range up.Phases {
		names = append(names, p.Name)
	}
	if strings.Join(names, ",") != strings.Join(wantOrder, ",") {
		t.Fatalf("update phases = %v, want %v", names, wantOrder)
	}
	if p, ok := up.Phase("execute"); !ok || p.EndNs-p.StartNs != 60 {
		t.Fatalf("execute phase = %+v, want 60ns wide", p)
	}

	rd := spans[1]
	if rd.Class != "read" || rd.Node != 0 || rd.Slot != 2 || rd.Seq != 9 {
		t.Fatalf("read span = %+v", rd)
	}
	var rdNames []string
	for _, p := range rd.Phases {
		rdNames = append(rdNames, p.Name)
	}
	if strings.Join(rdNames, ",") != "tail-read,rlock,op-end" {
		t.Fatalf("read phases = %v", rdNames)
	}
	if p, _ := rd.Phase("tail-read"); p.EndNs-p.StartNs != 60 {
		t.Fatalf("tail-read wait = %dns, want 60", p.EndNs-p.StartNs)
	}
}

func TestReconstructDropsSingletonTokens(t *testing.T) {
	rec := New(Config{RingSlots: 16})
	g := rec.AcquireRing()
	g.RecordAt(10, KReplay, 2, 99, Token(0, 1, 5)) // lone replay, rest overwritten
	if spans := Reconstruct(rec.Snapshot()); len(spans) != 0 {
		t.Fatalf("singleton token produced spans: %+v", spans)
	}
}

func TestTopSlowAndFormat(t *testing.T) {
	rec := New(Config{RingSlots: 64})
	buildSpanFixture(rec)
	spans := Reconstruct(rec.Snapshot())
	top := TopSlow(spans, 1)
	if len(top) != 1 || top[0].Class != "update" {
		t.Fatalf("TopSlow(1) = %+v, want the 300ns update", top)
	}
	line := FormatSpan(top[0])
	for _, want := range []string{"update", "node=1", "slot=3", "seq=7", "log=12", "execute=60ns"} {
		if !strings.Contains(line, want) {
			t.Errorf("FormatSpan = %q, missing %q", line, want)
		}
	}
	var sb strings.Builder
	if err := WriteSlowReport(&sb, rec.Snapshot(), 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "2 ops reconstructed") {
		t.Fatalf("report header wrong: %q", sb.String())
	}
}
