package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/asplos17/nr/internal/topology"
	"github.com/asplos17/nr/internal/trace"
)

// bomb is a keyed accumulator whose negative-key updates panic after a
// deterministic partial mutation. Key 0 reads the sum.
type bomb struct {
	vals map[int32]int64
}

type bombOp struct {
	Key   int32
	Delta int64
}

func newBomb() *bomb { return &bomb{vals: make(map[int32]int64)} }

func (b *bomb) Execute(op bombOp) int64 {
	if op.Key == 0 {
		var sum int64
		for _, v := range b.vals {
			sum += v
		}
		return sum
	}
	b.vals[op.Key] += op.Delta
	if op.Key < 0 {
		panic("bomb: boom")
	}
	return b.vals[op.Key]
}

func (b *bomb) IsReadOnly(op bombOp) bool { return op.Key == 0 }

func newBombInstance(t *testing.T, opts Options) *Instance[bombOp, int64] {
	t.Helper()
	inst, err := New[bombOp, int64](func() Sequential[bombOp, int64] { return newBomb() }, opts)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestPanicOnCombiningPathContained is the headline containment guarantee:
// a panic inside Sequential.Execute during a combining round must not
// deadlock the instance. The submitting thread gets an error from
// TryExecute, every other thread's ops finish, and Quiesce leaves all
// replicas convergent.
func TestPanicOnCombiningPathContained(t *testing.T) {
	inst := newBombInstance(t, Options{Topology: topology.New(2, 4, 1), LogEntries: 256})
	const threads, perThread = 8, 200
	var wg sync.WaitGroup
	panicErrs := make([]int, threads)
	otherErrs := make([]error, threads)
	for th := 0; th < threads; th++ {
		h, err := inst.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(th int, h *Handle[bombOp, int64]) {
			defer wg.Done()
			for k := 0; k < perThread; k++ {
				op := bombOp{Key: int32(th + 1), Delta: 1}
				if k%17 == 3 {
					op.Key = -int32(th + 1) // deterministic panic op
				}
				resp, err := h.TryExecute(op)
				switch {
				case op.Key < 0:
					var pe *PanicError
					if !errors.As(err, &pe) || pe.Value != any("bomb: boom") {
						otherErrs[th] = err
						return
					}
					panicErrs[th]++
				case err != nil:
					otherErrs[th] = err
					return
				case op.Key > 0 && resp <= 0:
					otherErrs[th] = errors.New("non-positive accumulator response")
					return
				}
			}
		}(th, h)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("deadlock: threads still running 30s after injected panics; stats %+v", inst.Stats())
	}
	for th := 0; th < threads; th++ {
		if otherErrs[th] != nil {
			t.Fatalf("thread %d: unexpected outcome: %v", th, otherErrs[th])
		}
		if want := (perThread + 13) / 17; panicErrs[th] != want {
			t.Errorf("thread %d: got %d PanicErrors, want %d", th, panicErrs[th], want)
		}
	}
	if st := inst.Stats(); st.Panics == 0 {
		t.Error("Stats.Panics not incremented")
	}
	inst.Quiesce()
	var sums []int64
	for n := 0; n < inst.Replicas(); n++ {
		inst.InspectReplica(n, func(ds Sequential[bombOp, int64]) {
			b := ds.(*bomb)
			var sum int64
			for _, v := range b.vals {
				sum += v
			}
			sums = append(sums, sum)
		})
	}
	for n := 1; n < len(sums); n++ {
		if sums[n] != sums[0] {
			t.Errorf("replica %d sum %d != replica 0 sum %d after Quiesce", n, sums[n], sums[0])
		}
	}
	if h := inst.Health(); h.Poisoned {
		t.Errorf("deterministic panics must not poison: %+v", h)
	}
}

// TestExecuteReRaisesPanicOnSubmitter: Execute (as opposed to TryExecute)
// must surface the contained panic as a panic on the submitting goroutine,
// wrapped in *PanicError.
func TestExecuteReRaisesPanicOnSubmitter(t *testing.T) {
	inst := newBombInstance(t, smallTopo())
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("Execute did not re-raise the contained panic")
		}
		pe, ok := p.(*PanicError)
		if !ok || pe.Value != any("bomb: boom") {
			t.Fatalf("re-raised %v, want *PanicError carrying the original value", p)
		}
		// The instance survived: the same handle still works.
		if got, err := h.TryExecute(bombOp{Key: 5, Delta: 7}); err != nil || got != 7 {
			t.Fatalf("instance unusable after contained panic: %d, %v", got, err)
		}
	}()
	h.Execute(bombOp{Key: -1, Delta: 1})
}

// TestPanicOnReadPathContained: a panicking read releases the reader lock
// and reports the error without touching the log.
func TestPanicOnReadPathContained(t *testing.T) {
	inst, err := New[bombOp, int64](func() Sequential[bombOp, int64] { return &readBomb{} }, smallTopo())
	if err != nil {
		t.Fatal(err)
	}
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	_, err = h.TryExecute(bombOp{Key: 0})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want PanicError from read, got %v", err)
	}
	if pe.Index != ^uint64(0) {
		t.Errorf("read-path panic recorded log index %d, want none", pe.Index)
	}
	// Updates (and later reads through the same lock) still work.
	if _, err := h.TryExecute(bombOp{Key: 1, Delta: 1}); err != nil {
		t.Fatalf("update after read panic: %v", err)
	}
}

// readBomb panics on reads, succeeds on updates.
type readBomb struct{ v int64 }

func (r *readBomb) Execute(op bombOp) int64 {
	if op.Key == 0 {
		panic("read boom")
	}
	r.v += op.Delta
	return r.v
}
func (r *readBomb) IsReadOnly(op bombOp) bool { return op.Key == 0 }

// TestWatchdogFlagsStall: an Execute that dwells past StallThreshold while
// the combiner holds its lock must show up in Stats.Stalls and in
// Health.StalledNodes while held. The op is held inside Execute until both
// have been seen (or a deadline passes), so a watchdog that is scheduled
// late still catches the stall.
func TestWatchdogFlagsStall(t *testing.T) {
	release := make(chan struct{})
	inst, err := New[bombOp, int64](func() Sequential[bombOp, int64] { return &gate{release: release} },
		Options{Topology: topology.New(2, 2, 1), LogEntries: 64, StallThreshold: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := h.TryExecute(bombOp{Key: 1, Delta: 1}) // held inside combine
		done <- err
	}()
	var sawStalled bool
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if hl := inst.Health(); len(hl.StalledNodes) > 0 {
			sawStalled = true
		}
		if sawStalled && inst.Stats().Stalls > 0 {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !sawStalled {
		t.Error("Health never reported the stalled node while the combiner was held")
	}
	if st := inst.Stats(); st.Stalls == 0 {
		t.Errorf("watchdog counted no stalls: %+v", st)
	}
	if hl := inst.Health(); !hl.Healthy() {
		t.Errorf("instance should be healthy again after the stall: %+v", hl)
	}
}

// gate holds every update inside Execute until release is closed.
type gate struct {
	v       int64
	release chan struct{}
}

func (g *gate) Execute(op bombOp) int64 {
	if op.Key != 0 {
		<-g.release
		g.v += op.Delta
	}
	return g.v
}
func (g *gate) IsReadOnly(op bombOp) bool { return op.Key == 0 }

// TestTagDeliversContainedPanic: a replayer that overtakes a combiner
// between its log append and its own replay (a same-node cross applier or a
// helper) answers the combiner's batch through the entries' (node, slot)
// tags — a contained panic included. The overtaken combiner is played by
// hand: slot taken, entry appended, replay not yet begun.
func TestTagDeliversContainedPanic(t *testing.T) {
	rec := trace.New(trace.Config{RingSlots: 64})
	inst := newBombInstance(t, Options{Topology: topology.New(2, 2, 1), LogEntries: 64, Trace: rec})
	h, err := inst.RegisterOnNode(0)
	if err != nil {
		t.Fatal(err)
	}
	r := inst.replicas[0]
	s := &r.slots[h.slot]
	s.state.Store(slotTaken)
	idx, ok := inst.logs[0].TryReserve(1)
	if !ok {
		t.Fatal("empty log refused a reservation")
	}
	inst.logs[0].Fill(idx, entry[bombOp]{op: bombOp{Key: -3, Delta: 2}, node: r.id, slot: int32(h.slot), seq: 7})

	ring := rec.AcquireRing()
	r.logs[0].rw.Lock()
	inst.refreshTo(r, 0, idx+1, ring)
	r.logs[0].rw.Unlock()

	if st := s.state.Load(); st != slotDone {
		t.Fatalf("slot state = %d after the overtaking replay, want slotDone", st)
	}
	var pe *PanicError
	if !errors.As(s.err, &pe) || pe.Index != idx {
		t.Fatalf("slot error = %v, want *PanicError at log index %d", s.err, idx)
	}
	if got := r.logs[0].localTail.Load(); got != idx+1 {
		t.Errorf("localTail = %d, want %d: a poisonous op must advance it like any other", got, idx+1)
	}
	if got := inst.Stats().Panics; got != 1 {
		t.Errorf("Stats.Panics = %d, want 1", got)
	}
	// The delivering replay stamps the panic with the op's token, so a trace
	// joins it to the submitter's span.
	tok := trace.TokenWithLog(0, 0, h.slot, 7)
	found := false
	for _, e := range rec.Snapshot().Events() {
		if e.Kind == trace.KPanic && e.A == idx && e.B == tok {
			found = true
		}
	}
	if !found {
		t.Errorf("no KPanic event at index %d carrying token %#x", idx, tok)
	}
}

// TestPostAndAbandonDoesNotWedgeNode: an op published by a thread that dies
// before combining is executed by the node's next combiner and the node
// keeps serving everyone else.
func TestPostAndAbandonDoesNotWedgeNode(t *testing.T) {
	inst := newBombInstance(t, Options{Topology: topology.New(1, 4, 1), LogEntries: 64})
	dead, err := inst.RegisterOnNode(0)
	if err != nil {
		t.Fatal(err)
	}
	alive, err := inst.RegisterOnNode(0)
	if err != nil {
		t.Fatal(err)
	}
	dead.PostAndAbandon(bombOp{Key: 9, Delta: 100})
	if _, err := dead.TryExecute(bombOp{Key: 1, Delta: 1}); err == nil {
		t.Error("abandoned handle still usable")
	}
	// The live thread's combine picks up and executes the orphan.
	if got, err := alive.TryExecute(bombOp{Key: 9, Delta: 1}); err != nil || got != 101 {
		t.Fatalf("orphaned op not combined before live op: got %d, %v", got, err)
	}
	inst.Quiesce()
	inst.InspectReplica(0, func(ds Sequential[bombOp, int64]) {
		if v := ds.(*bomb).vals[9]; v != 101 {
			t.Errorf("key 9 = %d, want 101", v)
		}
	})
}

// TestPanicErrorMessage pins the error rendering the diagnostics rely on.
func TestPanicErrorMessage(t *testing.T) {
	pe := &PanicError{Value: "boom", Index: 7}
	if !strings.Contains(pe.Error(), "log index 7") || !strings.Contains(pe.Error(), "boom") {
		t.Errorf("unhelpful PanicError: %q", pe.Error())
	}
	read := &PanicError{Value: "boom", Index: ^uint64(0)}
	if !strings.Contains(read.Error(), "read path") {
		t.Errorf("unhelpful read-path PanicError: %q", read.Error())
	}
}
