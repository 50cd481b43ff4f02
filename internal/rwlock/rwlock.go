// Package rwlock implements the paper's "better readers-writer lock" (§5.5):
// a distributed readers-writer lock derived from Vyukov's per-reader design
// [2], extended with a writer flag so that the writer does not acquire the
// per-reader locks — it sets its flag and waits for every reader lock to
// drain. Writer and readers each perform a single atomic write on distinct
// cache lines to enter the critical section.
package rwlock

import (
	"runtime"
	"sync/atomic"
)

// padded is one per-reader flag on its own cache line (size pinned by
// TestPaddedLayout: a []padded must stride whole lines, §5.5). acq rides
// on the same line: it counts the slot's read acquisitions, written only by
// the slot's owning reader (atomically, because Metrics snapshots read it
// concurrently), so the count is contention-free.
type padded struct {
	v   atomic.Int32
	_   [4]byte
	acq atomic.Uint64
	_   [48]byte
}

// Distributed is the paper's lock: per-reader flags plus one writer flag.
// Readers identify themselves with a slot index so each has its own cache
// line.
//
// Writer protocol: set writer flag (one atomic write); wait until all reader
// flags are clear. Reader protocol: wait while writer flag is set; set own
// flag (one atomic write); re-check writer flag — if now set, clear own flag
// and restart, else enter. Readers may starve under a stream of writers, but
// with NR only the combiner writes and it has substantial work outside the
// critical section (§5.5).
//
// A whole line of padding on either side keeps the writer flag and the
// readers header off the lines of the lock's heap neighbours, which in NR
// may be another node's lock.
type Distributed struct {
	_ [64]byte
	// writerAcq rides the writer flag's cache line: both are written only
	// by the (single) active writer, so the counter adds no new sharing.
	writerAcq atomic.Uint64
	// writer owns line 1; the readers slice starts line 2 (TestPaddedLayout).
	writer  atomic.Int32
	_       [52]byte
	readers []padded
	// onWriterWait observes write acquisitions that spun on reader flags
	// (NR counts them). Never nil: a no-op until SetWriterWaitHook installs
	// one. Written before sharing.
	onWriterWait func(spins int)
	_            [64]byte
}

// noWriterWait is the writer-wait hook of a lock nobody observes.
func noWriterWait(int) {}

// NewDistributed returns a lock supporting reader slots 0..slots-1.
func NewDistributed(slots int) *Distributed {
	if slots < 1 {
		slots = 1
	}
	return &Distributed{readers: make([]padded, slots), onWriterWait: noWriterWait}
}

// Slots returns the number of reader slots.
func (l *Distributed) Slots() int { return len(l.readers) }

// RLock acquires read mode for reader slot, reporting how many scheduler
// yields it spent blocked behind a writer (0 on the uncontended path).
func (l *Distributed) RLock(slot int) (spins int) {
	r := &l.readers[slot]
	for {
		// Wait for any active writer.
		for l.writer.Load() != 0 {
			spins++
			runtime.Gosched()
		}
		r.v.Store(1)
		if l.writer.Load() == 0 {
			// Entered; the writer will see our flag. Single-writer counter:
			// only slot's owner runs this path, so Load+Store suffices.
			r.acq.Store(r.acq.Load() + 1)
			return spins
		}
		// A writer raced in; back off and retry.
		r.v.Store(0)
		spins++
	}
}

// RUnlock releases read mode for reader slot.
func (l *Distributed) RUnlock(slot int) {
	l.readers[slot].v.Store(0)
}

// SetWriterWaitHook installs fn to be called whenever a write-mode
// acquisition had to spin waiting for readers to drain, with the number of
// scheduler yields it spent. Must be called before the lock is shared; a nil
// fn restores the default, which does nothing.
func (l *Distributed) SetWriterWaitHook(fn func(spins int)) {
	if fn == nil {
		fn = noWriterWait
	}
	l.onWriterWait = fn
}

// ReaderAcquires sums the per-slot acquisition counters: the cumulative
// number of read-mode acquisitions this lock has served — the reader-arrival
// signal NR's batching controller and windowed telemetry fold into their
// rate views. Each slot counts on its own cache line, so counting costs
// readers nothing extra. Slots are read individually while readers keep
// arriving, so the sum is approximately one instant (monotone, never wildly
// wrong) — the same contract as every other gauge in the observability
// layer.
func (l *Distributed) ReaderAcquires() uint64 {
	var total uint64
	for i := range l.readers {
		total += l.readers[i].acq.Load()
	}
	return total
}

// waitReaders waits for every reader flag to drain, reporting spins to the
// writer-wait hook. Caller holds the writer flag.
func (l *Distributed) waitReaders() {
	spins := 0
	for i := range l.readers {
		for l.readers[i].v.Load() != 0 {
			spins++
			runtime.Gosched()
		}
	}
	if spins > 0 {
		l.onWriterWait(spins)
	}
}

// Lock acquires write mode. Concurrent writers serialize on the writer flag.
func (l *Distributed) Lock() {
	for !l.writer.CompareAndSwap(0, 1) {
		runtime.Gosched()
	}
	l.waitReaders()
	l.writerAcq.Add(1)
}

// Unlock releases write mode.
func (l *Distributed) Unlock() {
	l.writer.Store(0)
}

// TryLock attempts to acquire write mode without blocking on other writers;
// it still waits for readers to drain once the flag is won.
func (l *Distributed) TryLock() bool {
	if !l.writer.CompareAndSwap(0, 1) {
		return false
	}
	l.waitReaders()
	l.writerAcq.Add(1)
	return true
}

// WriterAcquires returns the cumulative number of write-mode acquisitions
// (Lock plus successful TryLock). Writers are already serialized on the
// writer flag, so the count costs one uncontended atomic add per
// acquisition; NR's replay paths use it to prove they take the replica lock
// once per batch, not once per entry.
func (l *Distributed) WriterAcquires() uint64 { return l.writerAcq.Load() }

// SpinMutex is a test-and-test-and-set spinlock: the "one big lock" (SL)
// baseline of Fig. 4 and the combiner lock inside NR. It fills one cache
// line (TestSpinMutexLayout).
type SpinMutex struct {
	state atomic.Int32
	_     [60]byte
}

// TryLock attempts to acquire the lock without blocking.
func (m *SpinMutex) TryLock() bool {
	return m.state.Load() == 0 && m.state.CompareAndSwap(0, 1)
}

// Lock spins until the lock is acquired.
func (m *SpinMutex) Lock() {
	for {
		if m.TryLock() {
			return
		}
		runtime.Gosched()
	}
}

// Unlock releases the lock.
func (m *SpinMutex) Unlock() {
	m.state.Store(0)
}

// Locked reports whether the lock is currently held (racy; for waiters that
// poll, as non-combiner threads do in NR's Combine loop).
func (m *SpinMutex) Locked() bool { return m.state.Load() != 0 }
