package log

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New[int](1, 1); err == nil {
		t.Error("size 1 accepted")
	}
	if _, err := New[int](8, 0); err == nil {
		t.Error("maxBatch 0 accepted")
	}
	if _, err := New[int](8, 5); err == nil {
		t.Error("maxBatch > size/2 accepted")
	}
	l, err := New[int](8, 4)
	if err != nil {
		t.Fatalf("New(8,4) = %v", err)
	}
	if l.Size() != 8 {
		t.Errorf("Size = %d, want 8", l.Size())
	}
}

func TestReserveFillGet(t *testing.T) {
	l, _ := New[int](16, 4)
	lt := l.RegisterReplica()
	start := l.Reserve(3)
	if start != 0 {
		t.Fatalf("first Reserve = %d, want 0", start)
	}
	if _, ok := l.Get(0); ok {
		t.Error("Get on unfilled entry = ok (hole must read empty)")
	}
	for i := uint64(0); i < 3; i++ {
		l.Fill(start+i, int(100+i))
	}
	for i := uint64(0); i < 3; i++ {
		op, ok := l.Get(start + i)
		if !ok || op != int(100+i) {
			t.Fatalf("Get(%d) = %d,%v", i, op, ok)
		}
	}
	if l.Tail() != 3 {
		t.Errorf("Tail = %d, want 3", l.Tail())
	}
	lt.Store(3)
}

func TestReservePanicsOnBadSize(t *testing.T) {
	l, _ := New[int](16, 4)
	for _, n := range []int{0, -1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Reserve(%d) did not panic", n)
				}
			}()
			l.Reserve(n)
		}()
	}
}

func TestAdvanceCompleted(t *testing.T) {
	l, _ := New[int](16, 4)
	l.AdvanceCompleted(5)
	if got := l.Completed(); got != 5 {
		t.Fatalf("Completed = %d, want 5", got)
	}
	l.AdvanceCompleted(3) // must not regress
	if got := l.Completed(); got != 5 {
		t.Fatalf("Completed regressed to %d", got)
	}
	l.AdvanceCompleted(9)
	if got := l.Completed(); got != 9 {
		t.Fatalf("Completed = %d, want 9", got)
	}
}

func TestWrapAroundRecycling(t *testing.T) {
	l, _ := New[int](8, 2)
	lt := l.RegisterReplica()
	// Drive several laps around the buffer; the consumer keeps up.
	for lap := 0; lap < 10; lap++ {
		for i := 0; i < 4; i++ {
			start := l.Reserve(2)
			l.Fill(start, int(start))
			l.Fill(start+1, int(start+1))
			// Consume immediately.
			for j := start; j < start+2; j++ {
				op, ok := l.Get(j)
				if !ok || op != int(j) {
					t.Fatalf("Get(%d) = %d,%v", j, op, ok)
				}
				lt.Store(j + 1)
			}
		}
	}
	if l.Tail() != 80 {
		t.Errorf("Tail = %d, want 80", l.Tail())
	}
	// Old entries must read as empty for their stale indices.
	if _, ok := l.Get(0); ok {
		t.Error("recycled entry still readable at old index")
	}
}

func TestReserveBlocksWhenFullAndResumes(t *testing.T) {
	l, _ := New[int](8, 4)
	lt := l.RegisterReplica()
	// Fill the buffer completely (2 reservations of 4).
	for i := 0; i < 2; i++ {
		s := l.Reserve(4)
		for j := uint64(0); j < 4; j++ {
			l.Fill(s+j, 1)
		}
	}
	done := make(chan uint64)
	go func() { done <- l.Reserve(4) }()
	select {
	case s := <-done:
		t.Fatalf("Reserve succeeded at %d with a full log", s)
	default:
	}
	// Consume one batch; the blocked reservation must complete.
	lt.Store(4)
	if s := <-done; s != 8 {
		t.Fatalf("resumed Reserve = %d, want 8", s)
	}
}

func TestWaitGet(t *testing.T) {
	l, _ := New[int](8, 2)
	l.RegisterReplica()
	s := l.Reserve(1)
	got := make(chan int)
	go func() { got <- l.WaitGet(s) }()
	select {
	case v := <-got:
		t.Fatalf("WaitGet returned %d before Fill", v)
	default:
	}
	l.Fill(s, 42)
	if v := <-got; v != 42 {
		t.Fatalf("WaitGet = %d, want 42", v)
	}
}

func TestConcurrentAppendersSeeAllOps(t *testing.T) {
	// Multiple combiners append concurrently while one consumer replays in
	// order; every op must be seen exactly once, in log order.
	const (
		appenders = 4
		batches   = 200
		batchSize = 3
	)
	l, _ := New[[2]uint64](64, 8)
	lt := l.RegisterReplica()

	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				start := l.Reserve(batchSize)
				for i := uint64(0); i < batchSize; i++ {
					l.Fill(start+i, [2]uint64{id, start + i})
				}
			}
		}(uint64(a))
	}

	total := uint64(appenders * batches * batchSize)
	seen := make(map[uint64]bool, total)
	var consumeErr error
	var cwg sync.WaitGroup
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		for idx := uint64(0); idx < total; idx++ {
			op := l.WaitGet(idx)
			if op[1] != idx {
				consumeErr = &indexMismatch{idx, op[1]}
				return
			}
			if seen[idx] {
				consumeErr = &indexMismatch{idx, idx}
				return
			}
			seen[idx] = true
			lt.Store(idx + 1)
		}
	}()
	wg.Wait()
	cwg.Wait()
	if consumeErr != nil {
		t.Fatal(consumeErr)
	}
	if uint64(len(seen)) != total {
		t.Fatalf("consumed %d ops, want %d", len(seen), total)
	}
	if l.Tail() != total {
		t.Fatalf("Tail = %d, want %d", l.Tail(), total)
	}
}

type indexMismatch struct{ want, got uint64 }

func (e *indexMismatch) Error() string { return "log order violated" }

func TestMultipleReplicasGateRecycling(t *testing.T) {
	l, _ := New[int](8, 2)
	fast := l.RegisterReplica()
	slow := l.RegisterReplica()
	if l.Replicas() != 2 {
		t.Fatalf("Replicas = %d, want 2", l.Replicas())
	}
	// Fill the log; fast replica consumes everything, slow consumes nothing.
	for i := 0; i < 4; i++ {
		s := l.Reserve(2)
		l.Fill(s, 0)
		l.Fill(s+1, 0)
	}
	fast.Store(8)
	done := make(chan uint64)
	go func() { done <- l.Reserve(2) }()
	select {
	case s := <-done:
		t.Fatalf("Reserve = %d succeeded despite slow replica", s)
	default:
	}
	slow.Store(8) // slow catches up; space frees
	if s := <-done; s != 8 {
		t.Fatalf("Reserve after catch-up = %d, want 8", s)
	}
}

func TestCompletedMonotoneProperty(t *testing.T) {
	f := func(targets []uint16) bool {
		l, _ := New[int](8, 2)
		var max uint64
		for _, v := range targets {
			l.AdvanceCompleted(uint64(v))
			if uint64(v) > max {
				max = uint64(v)
			}
			if l.Completed() != max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryBytes(t *testing.T) {
	l, _ := New[uint64](1024, 8)
	if got := l.MemoryBytes(); got < 1024*8 {
		t.Errorf("MemoryBytes = %d, implausibly small", got)
	}
}

// TestMultiEntryReservationPartitions is the batch-reservation contract
// under concurrent publishers: every TryReserve(n) must hand back n
// consecutive indices owned by exactly one publisher, and the union of all
// grants must tile the log's index space with no overlap and no gap — the
// property the combiner leans on when it reserves one multi-entry range
// for a whole batch.
func TestMultiEntryReservationPartitions(t *testing.T) {
	const (
		publishers = 4
		batches    = 150
		maxBatch   = 8
	)
	l, _ := New[uint64](128, maxBatch)
	lt := l.RegisterReplica()

	// The batch sizes are deterministic, so the total index space is known
	// up front; the drainer consumes exactly that many entries.
	var want uint64
	for p := 0; p < publishers; p++ {
		for b := 0; b < batches; b++ {
			want += uint64((p+b)%maxBatch + 1)
		}
	}

	type grant struct {
		start uint64
		n     uint64
		owner int
	}
	grantCh := make(chan grant, publishers*batches)
	var casRetries atomic.Uint64
	var total atomic.Uint64
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				// Deterministic mixed batch sizes in [1, maxBatch].
				n := (p+b)%maxBatch + 1
				var start uint64
				for {
					s, retries, ok := l.TryReserveObserved(n)
					casRetries.Add(uint64(retries))
					if ok {
						start = s
						break
					}
					// Not this log's consumer: just let the drainer run.
					runtime.Gosched()
				}
				for i := uint64(0); i < uint64(n); i++ {
					l.Fill(start+i, uint64(p)<<32|(start+i))
				}
				total.Add(uint64(n))
				grantCh <- grant{start: start, n: uint64(n), owner: p}
			}
		}(p)
	}
	// Drain so publishers never wedge on a full log. Every entry must carry
	// the absolute index its publisher filled it with — a misdirected Fill
	// (cross-batch overlap) shows up here as a payload mismatch.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for idx := uint64(0); idx < want; idx++ {
			if op := l.WaitGet(idx); op&0xffffffff != idx {
				t.Errorf("entry %d holds payload for index %d (publisher %d)", idx, op&0xffffffff, op>>32)
				return
			}
			lt.Store(idx + 1)
		}
	}()
	wg.Wait()
	close(grantCh)
	<-done

	grants := make([]grant, 0, publishers*batches)
	for g := range grantCh {
		grants = append(grants, g)
	}
	sort.Slice(grants, func(i, j int) bool { return grants[i].start < grants[j].start })
	var next uint64
	for _, g := range grants {
		if g.start != next {
			t.Fatalf("reservation gap/overlap: grant at %d (owner %d, n=%d), expected next start %d", g.start, g.owner, g.n, next)
		}
		next = g.start + g.n
	}
	if next != total.Load() || next != want {
		t.Fatalf("grants tile [0,%d), but %d entries were reserved (%d expected)", next, total.Load(), want)
	}
	if l.Tail() != next {
		t.Fatalf("Tail = %d, want %d", l.Tail(), next)
	}
	t.Logf("multi-entry reservations: %d grants, %d entries, %d tail-CAS retries", len(grants), next, casRetries.Load())
}

// spinYields is how many times a spin test's holder yields while a second
// goroutine waits on what it holds. With GOMAXPROCS at 1 each yield hands
// the waiter one turn of its wait loop, so the waiter spins about this many
// times.
const spinYields = 10000

// spinMallocs runs wait on a second goroutine while the caller holds what it
// waits for, yields spinYields times, calls release, and returns the mallocs
// of the whole window once wait has returned.
func spinMallocs(wait, release func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	done := make(chan struct{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	go func() {
		wait()
		close(done)
	}()
	for range spinYields {
		runtime.Gosched()
	}
	release()
	<-done
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestLogDoesNotAllocate pins the append and replay primitives at zero
// allocations per entry, and their two wait loops — Reserve on a full log,
// WaitGetObserved on a hole — at fewer than one allocation per 100 spins.
func TestLogDoesNotAllocate(t *testing.T) {
	l, _ := New[int](8, 2)
	lt := l.RegisterReplica()
	if n := testing.AllocsPerRun(1000, func() {
		start := l.Reserve(2)
		l.Fill(start, 1)
		l.Fill(start+1, 2)
		if _, ok := l.Get(start); !ok {
			t.Fatal("filled entry reads as a hole")
		}
		l.WaitGetObserved(start + 1)
		lt.Store(start + 2)
	}); n != 0 {
		t.Errorf("reserve, fill and get allocate %v per entry pair, want 0", n)
	}

	check := func(name string, mallocs uint64) {
		t.Helper()
		if mallocs >= spinYields/100 {
			t.Errorf("%s: %d mallocs over about %d spins, want fewer than one per 100 spins", name, mallocs, spinYields)
		}
	}
	// A full log: the reservation waits until the replica consumes.
	for l.Tail() < lt.Load()+8 {
		l.Fill(l.Reserve(2), 0)
	}
	check("Reserve", spinMallocs(func() { l.Reserve(2) }, func() { lt.Store(l.Tail()) }))

	// A hole: the reader waits until the entry is filled.
	idx := l.Reserve(1)
	var spins int
	check("WaitGetObserved", spinMallocs(func() { _, spins = l.WaitGetObserved(idx) }, func() { l.Fill(idx, 3) }))
	if spins < spinYields/2 {
		t.Errorf("WaitGetObserved spun %d times, want about %d", spins, spinYields)
	}
}
