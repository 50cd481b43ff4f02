package log

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/asplos17/nr/internal/waittest"
)

// TestWrapDeterministic walks one reserver and one consumer across several
// laps of a tiny buffer, checking at each step the invariants the
// wraparound audit relies on: a full log refuses reservations until the
// consumer advances, lap codes distinguish laps (stale indexes read as
// empty), and freed space becomes visible to the very next attempt.
func TestWrapDeterministic(t *testing.T) {
	waittest.Deadline(t)
	const size, maxBatch = 8, 4
	l, err := New[uint64](size, maxBatch)
	if err != nil {
		t.Fatal(err)
	}
	local := l.RegisterReplica()

	fill := func(n int) uint64 {
		t.Helper()
		start, _, ok := l.TryReserve(n)
		if !ok {
			t.Fatalf("TryReserve(%d) failed with %d consumed of tail %d", n, local.Load(), l.Tail())
		}
		for i := uint64(0); i < uint64(n); i++ {
			l.Fill(start+i, (start+i)*3)
		}
		return start
	}
	consume := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			idx := local.Load()
			op, ok := l.Get(idx)
			if !ok {
				t.Fatalf("Get(%d) empty below tail %d", idx, l.Tail())
			}
			if op != idx*3 {
				t.Fatalf("Get(%d) = %d, want %d", idx, op, idx*3)
			}
			local.Store(idx + 1)
		}
	}

	// Lap 0: fill the buffer completely without consuming.
	fill(maxBatch)
	fill(maxBatch)
	if _, _, ok := l.TryReserve(1); ok {
		t.Fatal("reservation succeeded on a full log with a lagging replica")
	}
	// One consumed entry frees exactly one slot — on the next attempt, with
	// no explicit refresh by the consumer.
	consume(1)
	if _, _, ok := l.TryReserve(2); ok {
		t.Fatal("TryReserve(2) succeeded with only 1 free slot")
	}
	if start := fill(1); start != size {
		t.Fatalf("first wrapped reservation at %d, want %d", start, size)
	}
	// The recycled slot now carries lap 1's code: reading lap 0's index 0
	// must report empty, not lap-1's op.
	if _, ok := l.Get(0); ok {
		t.Fatal("Get(0) returned an op after slot 0 was recycled for index 8")
	}

	// Drive several more laps; every index must read back exactly once with
	// its own lap's payload.
	consume(size) // catch up fully (indexes 1..8)
	for lap := 0; lap < 5; lap++ {
		for b := 0; b < size/maxBatch; b++ {
			fill(maxBatch)
			consume(maxBatch)
		}
	}
	if got, want := l.Tail(), uint64(1+size+5*size); got != want {
		t.Fatalf("tail after laps = %d, want %d", got, want)
	}
	if local.Load() != l.Tail() {
		t.Fatalf("consumer at %d, tail at %d", local.Load(), l.Tail())
	}
}

// TestLapCodeCycles walks a small log through more than two full periods
// of the lap code, so the code wraps from 15 back to 1 twice. After every
// fill, the index one lap behind in the same slot (the old lap's reader
// arriving late) and the index one lap ahead (a reader arriving early)
// must both read as empty, and the filled index must read back its own op
// and its full 60-bit tag.
func TestLapCodeCycles(t *testing.T) {
	waittest.Deadline(t)
	const size = 4
	l, err := New[uint64](size, 1)
	if err != nil {
		t.Fatal(err)
	}
	local := l.RegisterReplica()
	laps := uint64(2*lapCodes + 3)
	for idx := uint64(0); idx < laps*size; idx++ {
		start, _, ok := l.TryReserve(1)
		if !ok || start != idx {
			t.Fatalf("TryReserve(1) = %d, %v, want %d", start, ok, idx)
		}
		tag := tagMask - idx
		op := idx * 3
		l.FillTagged(idx, &op, tag)
		if got, gotTag, ok := l.GetTagged(idx); !ok || *got != idx*3 || gotTag != tag {
			t.Fatalf("GetTagged(%d) = %v, %#x, %v, want %d, %#x, true", idx, got, gotTag, ok, idx*3, tag)
		}
		if idx >= size {
			if op, ok := l.Get(idx - size); ok {
				t.Fatalf("Get(%d), one lap late in lap %d, read op %d from the slot refilled for %d", idx-size, idx/size, op, idx)
			}
		}
		if op, ok := l.Get(idx + size); ok {
			t.Fatalf("Get(%d), one lap early in lap %d, read op %d", idx+size, idx/size, op)
		}
		local.Store(idx + 1)
	}
	defer func() {
		if recover() == nil {
			t.Error("FillTagged accepted a tag wider than 60 bits")
		}
	}()
	var zero uint64
	l.FillTagged(l.Reserve(1), &zero, tagMask+1)
}

// TestWrapRecyclingRace is the -race witness for the wraparound audit:
// concurrent reservers keep refilling a small buffer while per-replica
// consumers read every entry and advance their localTails. Any flaw in the
// recycle ordering (Fill's plain op store racing a straggler's read of the
// previous lap) is a data race the race detector reports; any flaw in the
// space accounting shows up as a wrong payload.
func TestWrapRecyclingRace(t *testing.T) {
	waittest.Deadline(t)
	const (
		size      = 16
		maxBatch  = 4
		reservers = 4
		replicas  = 2
		total     = 4000 // entries overall: 250 laps of the buffer
	)
	l, err := New[uint64](size, maxBatch)
	if err != nil {
		t.Fatal(err)
	}
	locals := make([]*atomic.Uint64, replicas)
	for i := range locals {
		locals[i] = l.RegisterReplica()
	}

	var wg sync.WaitGroup
	// Reservers: grab batches until the log has handed out `total` indexes.
	for g := 0; g < reservers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 1 + g%maxBatch
			for {
				if l.Tail() >= total {
					return
				}
				start, _, ok := l.TryReserve(n)
				if !ok {
					continue // consumers will free space
				}
				for i := uint64(0); i < uint64(n); i++ {
					l.Fill(start+i, (start+i)*7+1)
				}
			}
		}(g)
	}
	// Consumers: each replica replays every index in order, verifying the
	// payload belongs to the index's own lap. On a mismatch they record the
	// failure but keep advancing so the reservers can drain and terminate.
	var bad atomic.Uint64
	for r := 0; r < replicas; r++ {
		wg.Add(1)
		go func(local *atomic.Uint64) {
			defer wg.Done()
			for idx := uint64(0); idx < total; idx++ {
				op, _, _ := l.WaitGet(idx)
				if *op != idx*7+1 {
					bad.Add(1)
				}
				local.Store(idx + 1)
			}
		}(locals[r])
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d entries read a payload from the wrong lap", n)
	}
	// Reservers may overshoot total by at most one batch each; every index
	// below total was verified by both replicas.
	if tail := l.Tail(); tail < total {
		t.Fatalf("tail stopped at %d, want >= %d", tail, total)
	}
}
