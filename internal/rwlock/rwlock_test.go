package rwlock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/asplos17/nr/internal/waittest"
)

// TestDistributedMutualExclusion drives readers and writers over a shared
// counter and checks the invariants: writers are exclusive against everyone;
// readers never observe a torn write.
func TestDistributedMutualExclusion(t *testing.T) {
	const readerSlots = 4
	l := NewDistributed(readerSlots)
	var (
		shared    int64 // protected
		shadow    int64 // atomic copy for readers to validate against
		writersIn atomic.Int32
		readersIn atomic.Int32
		fail      atomic.Bool
		wg        sync.WaitGroup
	)
	const perG = 2000
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				l.Lock()
				if writersIn.Add(1) != 1 || readersIn.Load() != 0 {
					fail.Store(true)
				}
				shared++
				atomic.StoreInt64(&shadow, shared)
				writersIn.Add(-1)
				l.Unlock()
			}
		}()
	}
	for r := 0; r < readerSlots; r++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				l.RLock(slot)
				readersIn.Add(1)
				if writersIn.Load() != 0 {
					fail.Store(true)
				}
				if shared != atomic.LoadInt64(&shadow) {
					fail.Store(true)
				}
				readersIn.Add(-1)
				l.RUnlock(slot)
			}
		}(r)
	}
	wg.Wait()
	if fail.Load() {
		t.Fatal("mutual exclusion violated")
	}
	if shared != 4*perG {
		t.Fatalf("lost updates: shared = %d, want %d", shared, 4*perG)
	}
}

func TestDistributedParallelReaders(t *testing.T) {
	l := NewDistributed(8)
	var inside atomic.Int32
	var peak atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			<-start
			l.RLock(slot)
			n := inside.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond) // hold so others overlap
			inside.Add(-1)
			l.RUnlock(slot)
		}(r)
	}
	close(start)
	wg.Wait()
	if peak.Load() < 2 {
		t.Errorf("readers never overlapped (peak=%d); lock is serializing reads", peak.Load())
	}
}

func TestDistributedSlots(t *testing.T) {
	if got := NewDistributed(0).Slots(); got != 1 {
		t.Errorf("Slots() after clamp = %d, want 1", got)
	}
	if got := NewDistributed(7).Slots(); got != 7 {
		t.Errorf("Slots() = %d, want 7", got)
	}
}

func TestDistributedTryLock(t *testing.T) {
	l := NewDistributed(2)
	if !l.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	if l.TryLock() {
		t.Fatal("TryLock succeeded while held")
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("TryLock after Unlock failed")
	}
	l.Unlock()
}

func TestWriterWaitsForReader(t *testing.T) {
	l := NewDistributed(1)
	l.RLock(0)
	acquired := make(chan struct{})
	go func() {
		l.Lock()
		close(acquired)
		l.Unlock()
	}()
	select {
	case <-acquired:
		t.Fatal("writer acquired lock while reader held it")
	case <-time.After(20 * time.Millisecond):
	}
	l.RUnlock(0)
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("writer never acquired after reader released")
	}
}

// TestWriterWaitHook: a write acquisition that spun on a held read lock
// reports once to the installed hook, and a lock with no hook — fresh, or
// after SetWriterWaitHook(nil) — waits the same way without one.
func TestWriterWaitHook(t *testing.T) {
	// writeBehindReader takes l's write lock while reader slot 0 holds it
	// until the writer has raised its flag, so the writer has to spin.
	writeBehindReader := func(l *Distributed) {
		l.RLock(0)
		acquired := make(chan struct{})
		go func() {
			l.Lock()
			l.Unlock()
			close(acquired)
		}()
		for l.writer.Load() == 0 {
			runtime.Gosched()
		}
		l.RUnlock(0)
		<-acquired
	}
	l := NewDistributed(1)
	writeBehindReader(l) // the default hook
	var waits, spins int
	l.SetWriterWaitHook(func(s int) { waits++; spins += s })
	writeBehindReader(l)
	if waits != 1 || spins == 0 {
		t.Errorf("hook saw %d waits with %d spins, want 1 wait with spins > 0", waits, spins)
	}
	l.SetWriterWaitHook(nil)
	writeBehindReader(l)
	if waits != 1 {
		t.Errorf("hook still called after SetWriterWaitHook(nil): %d waits", waits)
	}
}

func TestReaderWaitsForWriter(t *testing.T) {
	l := NewDistributed(1)
	l.Lock()
	acquired := make(chan struct{})
	go func() {
		l.RLock(0)
		close(acquired)
		l.RUnlock(0)
	}()
	select {
	case <-acquired:
		t.Fatal("reader acquired lock while writer held it")
	case <-time.After(20 * time.Millisecond):
	}
	l.Unlock()
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("reader never acquired after writer released")
	}
}

func TestSpinMutex(t *testing.T) {
	var m SpinMutex
	if m.Locked() {
		t.Error("fresh mutex reports locked")
	}
	if !m.TryLock() {
		t.Fatal("TryLock on free mutex failed")
	}
	if !m.Locked() {
		t.Error("held mutex reports unlocked")
	}
	if m.TryLock() {
		t.Fatal("TryLock succeeded while held")
	}
	m.Unlock()

	var counter int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				m.Lock()
				counter++
				m.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != 40000 {
		t.Fatalf("counter = %d, want 40000 (lost updates)", counter)
	}
}

// TestLocksDoNotAllocate pins every acquisition at zero allocations when
// uncontended, and every wait loop — a reader behind a writer, a writer
// behind a reader, a writer behind a writer, a spin mutex behind its holder
// — at fewer than one allocation per 100 spins, yielding on every turn and
// never parking (waittest.Window).
func TestLocksDoNotAllocate(t *testing.T) {
	l := NewDistributed(2)
	var writerSpins int
	l.SetWriterWaitHook(func(spins int) { writerSpins = spins })
	var m SpinMutex
	if n := testing.AllocsPerRun(1000, func() {
		l.RLock(0)
		l.RUnlock(0)
		l.Lock()
		l.Unlock()
		m.Lock()
		m.Unlock()
	}); n != 0 {
		t.Errorf("uncontended acquisitions allocate %v per round, want 0", n)
	}

	check := func(name string, mallocs uint64) {
		t.Helper()
		if mallocs >= waittest.Yields/100 {
			t.Errorf("%s: %d mallocs over about %d spins, want fewer than one per 100 spins", name, mallocs, waittest.Yields)
		}
	}
	l.Lock()
	var readerSpins int
	check("RLock", waittest.Window(t, func() { readerSpins = l.RLock(0); l.RUnlock(0) }, l.Unlock))
	if readerSpins < waittest.Yields/2 {
		t.Errorf("reader spun %d times behind the writer, want about %d", readerSpins, waittest.Yields)
	}

	l.RLock(1)
	check("waitReaders", waittest.Window(t, func() { l.Lock(); l.Unlock() }, func() { l.RUnlock(1) }))
	if writerSpins < waittest.Yields/2 {
		t.Errorf("writer spun %d times behind the reader, want about %d", writerSpins, waittest.Yields)
	}

	l.Lock()
	check("Lock", waittest.Window(t, func() { l.Lock(); l.Unlock() }, l.Unlock))

	m.Lock()
	check("SpinMutex.Lock", waittest.Window(t, func() { m.Lock(); m.Unlock() }, m.Unlock))
}
