package core

import (
	"runtime"

	"github.com/asplos17/nr/internal/trace"
)

// waitReplicaTail waits until (r, c)'s localTail reaches readTail,
// combining with an active class-c combiner when one exists and otherwise
// electing one reader to refresh the replica (§5.3). It reports whether it
// had to wait at all.
func (i *Instance[O, R]) waitReplicaTail(h *Handle[O, R], r *replica[O, R], c int, readTail uint64) (waited bool) {
	lg := &r.logs[c]
	for lg.localTail.Load() < readTail {
		waited = true
		if lg.combinerLock.Locked() {
			// A combiner exists; it will advance the replica (§5.3).
			runtime.Gosched()
			continue
		}
		// No combiner: elect one reader to refresh the replica under the
		// writer lock; the rest wait for localTail to advance.
		if !lg.refresher.TryLock() {
			runtime.Gosched()
			continue
		}
		lg.rw.Lock()
		var blocked uint64
		if before := lg.localTail.Load(); before < readTail {
			r.counters.readerRefreshes.Add(1)
			blocked = i.refreshTo(r, c, readTail, h.ring)
			i.observer.ReaderRefresh(h.node, int(lg.localTail.Load()-before))
			h.ring.Record(trace.KReaderRefresh, h.node, uint64(lg.localTail.Load()-before), 0)
		}
		lg.rw.Unlock()
		lg.refresher.Unlock()
		if blocked != 0 {
			// Parked at a cross-log barrier: apply the cross op (the
			// applier takes every log's lock, so ours had to go first).
			i.advanceCrossTo(r, blocked, h.ring)
		}
	}
	return waited
}

// readOnlyVia is Algorithm 1's ReadOnly (§5.3) on conflict class c: wait
// until the local replica reflects class c's completedTail as of the start
// of the read, then run the operation locally under that class's read-side
// lock — reads never wait on logs their class does not touch. The body
// avoids closures so the read hot path does not allocate.
func (i *Instance[O, R]) readOnlyVia(h *Handle[O, R], c int, op O) (R, error) {
	r := i.replicas[h.node]
	lg := &r.logs[c]
	readTail := i.logs[c].Completed()
	// t0 is the op's start when it is sampled (TryExecute), else 0: an
	// unsampled read records nothing and takes the plain RLock.
	t0 := h.tsHint
	if t0 != 0 {
		h.ring.RecordAt(t0, trace.KTailRead, h.node, h.token(), readTail)
	}
	waited := i.waitReplicaTail(h, r, c, readTail)
	if t0 != 0 && h.ring != nil {
		spins := lg.rw.RLockObserved(h.slot)
		// Uncontended reads acquired the lock nanoseconds after t0: reuse
		// the clock read. Only a read that actually waited (for the tail or
		// for the lock) pays a second one for a faithful rlock timestamp.
		t1 := t0
		if waited || spins > 0 {
			t1 = trace.Now()
		}
		h.ring.RecordAt(t1, trace.KRLock, h.node, h.token(), uint64(spins))
	} else {
		lg.rw.RLock(h.slot)
	}
	resp, err := i.safeRead(r, op)
	lg.rw.RUnlock(h.slot)
	return resp, err
}
