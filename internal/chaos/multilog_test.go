package chaos

import (
	"maps"
	"testing"
	"time"
)

// TestMultiLogClean is the fault-free multi-log baseline: per-key classes
// plus cross-class Sums, whole-replica states AND per-class fingerprints must
// converge.
func TestMultiLogClean(t *testing.T) {
	runAndCheck(t, Schedule{
		Nodes: 2, CoresPerNode: 4,
		Logs:         4,
		OpsPerThread: 300,
	})
}

// TestMultiLogPanicFaults lands deterministic panics inside per-class
// combining rounds: the faulting class's submitters get PanicErrors while
// the other classes' logs keep flowing, and every class column converges.
func TestMultiLogPanicFaults(t *testing.T) {
	runAndCheck(t, Schedule{
		Nodes: 2, CoresPerNode: 4,
		Logs:         4,
		OpsPerThread: 300,
		PanicEveryN:  7,
	})
}

// TestMultiLogStallFaults stalls combiners of whichever class the seeded
// stream picks; unrelated classes must not deadlock behind them, and every
// class column must converge.
func TestMultiLogStallFaults(t *testing.T) {
	runAndCheck(t, Schedule{
		Nodes: 2, CoresPerNode: 2,
		Logs:         2,
		OpsPerThread: 60,
		StallEveryN:  20,
		StallFor:     3 * time.Millisecond,
	})
}

// TestMultiLogPressure shrinks the per-class logs so appends constantly
// fight recycling, with panics on top — the wraparound paths of every
// class under fault.
func TestMultiLogPressure(t *testing.T) {
	runAndCheck(t, Schedule{
		Nodes: 2, CoresPerNode: 2,
		Logs:         2,
		OpsPerThread: 400,
		LogEntries:   32,
		PanicEveryN:  13,
	})
}

// TestMultiLogEverythingAtOnce is the multi-log kitchen sink: four classes,
// cross Sums, panics, stalls, and log pressure in one run.
func TestMultiLogEverythingAtOnce(t *testing.T) {
	runAndCheck(t, Schedule{
		Nodes: 2, CoresPerNode: 10,
		Threads:      6,
		Logs:         4,
		OpsPerThread: 150,
		LogEntries:   64,
		PanicEveryN:  13,
		StallEveryN:  40,
		StallFor:     2 * time.Millisecond,
	})
}

// TestMultiLogDeterministic pins schedule replay under multi-log: same
// seed, same outcomes and fingerprints.
func TestMultiLogDeterministic(t *testing.T) {
	s := Schedule{
		Seed:  0xfeed,
		Nodes: 2, CoresPerNode: 2,
		Logs:         4,
		OpsPerThread: 150,
		PanicEveryN:  9,
	}
	a, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(a.States[0], b.States[0]) {
		t.Fatalf("same schedule, different final states: %v vs %v", a.States[0], b.States[0])
	}
	for c := range a.ClassFingerprints[0] {
		if a.ClassFingerprints[0][c] != b.ClassFingerprints[0][c] {
			t.Fatalf("class %d: same schedule, different states: %x vs %x",
				c, a.ClassFingerprints[0][c], b.ClassFingerprints[0][c])
		}
	}
}
