package chaos

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/asplos17/nr/internal/core"
	"github.com/asplos17/nr/internal/topology"
)

// fixedSeeds is the reproduction set: every schedule below runs under each
// of these, so a failure report ("seed 0xc0ffee") replays exactly.
// `make chaos` runs this suite under -race.
var fixedSeeds = []uint64{1, 42, 0xc0ffee, 0xdeadbeef}

// runAndCheck runs the schedule under every fixed seed and fails the test on
// any invariant violation.
func runAndCheck(t *testing.T, s Schedule) {
	t.Helper()
	for _, seed := range fixedSeeds {
		s.Seed = seed
		rep, err := Run(s)
		if err != nil {
			t.Fatalf("seed %#x: %v", seed, err)
		}
		for _, v := range rep.Check() {
			t.Errorf("seed %#x: invariant violated: %v", seed, v)
		}
		if t.Failed() {
			t.Fatalf("seed %#x: schedule %+v", seed, s)
		}
	}
}

// TestPanicFaults injects deterministic user panics into the combining
// machinery: submitters must get PanicErrors, everyone else's ops must
// complete, and replicas must converge on the partially-mutated state.
func TestPanicFaults(t *testing.T) {
	runAndCheck(t, Schedule{
		Nodes: 2, CoresPerNode: 4,
		OpsPerThread: 300,
		PanicEveryN:  7,
	})
}

// TestStallFaults injects stalling combiners and requires the watchdog to
// observe them while the instance keeps making progress.
func TestStallFaults(t *testing.T) {
	runAndCheck(t, Schedule{
		Nodes: 2, CoresPerNode: 2,
		OpsPerThread:   60,
		StallEveryN:    20,
		StallFor:       3 * time.Millisecond,
		StallThreshold: time.Millisecond,
	})
}

// TestLogPressure shrinks the log so appenders constantly hit the full-log
// helping path while panics fire.
func TestLogPressure(t *testing.T) {
	runAndCheck(t, Schedule{
		Nodes: 2, CoresPerNode: 4,
		OpsPerThread: 400,
		LogEntries:   32,
		PanicEveryN:  11,
		ReadFraction: 10,
	})
}

// TestGoroutineDeath kills workers between publish and combine; the
// orphaned slots must not wedge their node. Extra cores provide slot
// headroom for the restarted workers.
func TestGoroutineDeath(t *testing.T) {
	runAndCheck(t, Schedule{
		Nodes: 2, CoresPerNode: 12,
		Threads:       4,
		OpsPerThread:  200,
		AbandonEveryN: 25, // 8 abandons/worker, 16 restarts over 24 spare slots
	})
}

// TestEverythingAtOnce composes all four fault types with dedicated
// combiners on a pressured log.
func TestEverythingAtOnce(t *testing.T) {
	runAndCheck(t, Schedule{
		Nodes: 2, CoresPerNode: 10,
		Threads:            6,
		OpsPerThread:       150,
		LogEntries:         32,
		PanicEveryN:        13,
		StallEveryN:        40,
		StallFor:           2 * time.Millisecond,
		StallThreshold:     time.Millisecond,
		AbandonEveryN:      60,
		DedicatedCombiners: true,
	})
}

// TestSchedulesAreDeterministic pins the injection points: the same seed
// must yield the identical op stream for every thread.
func TestSchedulesAreDeterministic(t *testing.T) {
	s := Schedule{Seed: 0xc0ffee, PanicEveryN: 5, StallEveryN: 7, StallFor: time.Millisecond}
	s.fillDefaults()
	for thread := 0; thread < 4; thread++ {
		a, b := NewRand(s.Seed^mix(uint64(thread)+1)), NewRand(s.Seed^mix(uint64(thread)+1))
		for seq := 0; seq < 500; seq++ {
			if opA, opB := s.opFor(a, thread, seq), s.opFor(b, thread, seq); opA != opB {
				t.Fatalf("thread %d seq %d: %v != %v", thread, seq, opA, opB)
			}
		}
	}
}

// TestNonDeterministicPanicPoisons violates the §4 determinism contract on
// purpose: replica 1 panics on an op that replicas 0 and 2 apply cleanly.
// The divergence detector must poison the instance, and every subsequent
// TryExecute must fail fast with ErrPoisoned.
func TestNonDeterministicPanicPoisons(t *testing.T) {
	nextReplica := 0
	inst, err := core.New[Op, Result](
		func() core.Sequential[Op, Result] {
			id := nextReplica
			nextReplica++
			return NewDivergentDS(func() bool { return id == 1 })
		},
		core.Options{Topology: topology.New(3, 2, 1), LogEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	h, err := inst.Register() // node 0: its replica applies the op cleanly
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.TryExecute(Op{Kind: KindPanic, Key: 1, Delta: 1}); err != nil {
		// Home replica does not panic (id 0), so the submitter sees success.
		t.Fatalf("home replica should not panic: %v", err)
	}
	// Quiesce replays the entry on replicas 1 (panics, records) and 2
	// (applies cleanly, observes the record): divergence.
	inst.Quiesce()
	if h := inst.Health(); !h.Poisoned {
		t.Fatalf("expected poisoned instance, health %+v", h)
	}
	if _, err := h.TryExecute(Op{Kind: KindAdd, Key: 2, Delta: 1}); !errors.Is(err, core.ErrPoisoned) {
		t.Fatalf("want ErrPoisoned, got %v", err)
	}
	// Reads fail fast too: the replicas no longer agree.
	if _, err := h.TryExecute(Op{Kind: KindSum}); !errors.Is(err, core.ErrPoisoned) {
		t.Fatalf("want ErrPoisoned on read, got %v", err)
	}
}

// TestDivergentPanicValuePoisons: two replicas panic at the same entry with
// different values — also divergence.
func TestDivergentPanicValuePoisons(t *testing.T) {
	nextReplica := 0
	inst, err := core.New[Op, Result](
		func() core.Sequential[Op, Result] {
			id := nextReplica
			nextReplica++
			return &valuePanicDS{DS: NewDS(), id: id}
		},
		core.Options{Topology: topology.New(2, 2, 1), LogEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.TryExecute(Op{Kind: KindPanic, Key: 1, Delta: 1}); err == nil {
		t.Fatal("expected a PanicError from the home replica")
	}
	inst.Quiesce() // replica 1 panics with a different value
	if h := inst.Health(); !h.Poisoned {
		t.Fatalf("expected poisoned instance, health %+v", h)
	}
}

// valuePanicDS panics on KindPanic ops with a per-replica value.
type valuePanicDS struct {
	*DS
	id int
}

func (d *valuePanicDS) Execute(op Op) Result {
	if op.Kind == KindPanic {
		panic(d.id) // different value on every replica
	}
	return d.DS.Execute(op)
}

// TestTraceDumpsOnPanic runs a traced schedule with injected panics and
// requires the flight recorder's black box to have fired: at least one
// automatic dump with a panic reason, and a live recorder at the end.
func TestTraceDumpsOnPanic(t *testing.T) {
	s := Schedule{
		Seed:  42,
		Nodes: 2, CoresPerNode: 4,
		OpsPerThread: 200,
		PanicEveryN:  7,
		Trace:        true,
	}
	rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Check() {
		t.Errorf("invariant violated: %v", v)
	}
	var panics int
	for _, reason := range rep.TraceDumps {
		if strings.Contains(reason, "panic") {
			panics++
		}
	}
	if panics == 0 {
		t.Errorf("no panic-reason trace dumps in %v", rep.TraceDumps)
	}
	if rep.TraceEvents == 0 {
		t.Error("final recorder snapshot was empty")
	}
}

// TestTraceDumpsOnStall runs a traced schedule with injected stalls and a
// watchdog; the black box must dump with a stall reason. Generous StallFor
// against a small threshold keeps this deterministic on slow machines.
func TestTraceDumpsOnStall(t *testing.T) {
	s := Schedule{
		Seed:  0xc0ffee,
		Nodes: 2, CoresPerNode: 2,
		OpsPerThread:   40,
		StallEveryN:    10,
		StallFor:       20 * time.Millisecond,
		StallThreshold: time.Millisecond,
		Trace:          true,
	}
	rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Check() {
		t.Errorf("invariant violated: %v", v)
	}
	var stalls int
	for _, reason := range rep.TraceDumps {
		if strings.Contains(reason, "stall") {
			stalls++
		}
	}
	if stalls == 0 {
		t.Errorf("no stall-reason trace dumps in %v", rep.TraceDumps)
	}
}
