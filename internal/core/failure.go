// Failure containment for NR (this file is an addition over the paper).
//
// The paper's protocol assumes Sequential.Execute always returns. Here it
// may panic, and the panic must neither kill the combiner that ran it nor
// leave its node's waiters parked (DESIGN.md §7). Two cases:
//
//   - User code that panics. Every site that runs user Execute does so
//     through safeExecute/safeRead, which convert a panic into a *PanicError
//     delivered to the waiting thread like any response. Because Execute is
//     required to be deterministic, every replica replaying the same log
//     entry observes the same panic at the same point, so replicas remain
//     convergent (including any partial mutation the panicking op made — it
//     is the same partial mutation everywhere). Handle.TryExecute surfaces
//     the outcome as an error; Handle.Execute re-raises it on the submitting
//     goroutine, where the caller expects their own panic to appear.
//
//   - User code that panics *non-deterministically* (a contract violation:
//     replicas diverge). A lightweight tracker records, per absolute log
//     index, which replicas panicked and with what message. Mixed outcomes or
//     mismatched messages poison the instance: a sticky state in which
//     TryExecute fails fast with ErrPoisoned rather than serving reads from
//     replicas that no longer agree. Detection is best-effort (it catches
//     divergence whenever some replica applies the entry after the first
//     panic was recorded) — the property it protects is "no silent wrong
//     answers after observed divergence", not "all divergence is observed".
package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// noIndex marks a panic that did not come from a logged entry (read path).
const noIndex = ^uint64(0)

// panicKeyMask is the index part of a tracker key; the top byte carries the
// conflict class so per-log indices (which independently count from 0) do
// not collide in the tracker. Class 0 keys equal the raw index, preserving
// the single-log behavior exactly.
const panicKeyMask = 1<<56 - 1

// panicKey packs (conflict class, absolute per-log index) into one tracker
// key. noIndex passes through unchanged (its top byte is 0xff, above any
// valid class — maxLogs is 64).
func panicKey(cls int, idx uint64) uint64 {
	if idx == noIndex {
		return noIndex
	}
	return uint64(cls)<<56 | idx&panicKeyMask
}

// ErrPoisoned is reported (wrapped, via errors.Is) once NR has observed
// replicas diverge — user Execute panicked on some replicas but not others,
// or with different panic values, violating the determinism contract of §4.
// The state is sticky: the replicas can no longer be trusted to agree, so
// every subsequent TryExecute fails fast.
var ErrPoisoned = errors.New("core: instance poisoned by non-deterministic Sequential.Execute panic")

// PanicError is the outcome of an operation whose Sequential.Execute
// panicked. It is delivered to the submitting thread through TryExecute (or
// re-raised by Execute) regardless of which thread — combiner, helper,
// reader — actually ran the operation.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the stack of the goroutine that executed the operation, captured
	// at recovery. Note this is the executing thread's stack (often a combiner
	// on another goroutine), not the submitting thread's.
	Stack string
	// Index is the absolute log index of the operation, or ^uint64(0) when the
	// panic occurred on the read path (the op was never logged).
	Index uint64
}

// Error implements error.
func (e *PanicError) Error() string {
	if e.Index == noIndex {
		return fmt.Sprintf("core: Sequential.Execute panicked on read path: %v", e.Value)
	}
	return fmt.Sprintf("core: Sequential.Execute panicked at log index %d: %v", e.Index, e.Value)
}

// Health is a point-in-time report of an instance's failure state. It is
// one slice of the richer Metrics snapshot (metrics.go).
type Health struct {
	// Poisoned is true once replica divergence has been observed (sticky).
	Poisoned bool `json:"poisoned"`
	// PoisonReason describes the first observed divergence, empty otherwise.
	PoisonReason string `json:"poison_reason,omitempty"`
	// Panics counts operations whose Execute panicked (contained).
	Panics uint64 `json:"panics"`
}

// panicRecord tracks one logged entry's observed panic outcomes across
// replicas.
type panicRecord struct {
	msg        string // rendered panic value of the first observer
	panickedBy uint64 // bitmask of replica ids that panicked
	okBy       uint64 // bitmask of replica ids that applied without panicking
}

// panicTracker detects divergent panic outcomes. The common case — no
// outstanding panic records — costs one atomic load per applied entry.
type panicTracker struct {
	active atomic.Int64 // number of live records; hot-path gate
	mu     sync.Mutex
	recs   map[uint64]*panicRecord
}

// recordPanic notes that replica r panicked at idx with message msg and
// returns a poison reason if this reveals divergence ("" otherwise). It also
// retires records every replica has moved past (minTail). A panic has
// already fired when this runs, so taking a sync mutex is acceptable even
// under a spinning combiner (the record map needs real mutual exclusion
// across replicas, and the contended case implies divergence, not load).
func (t *panicTracker) recordPanic(replica int32, idx uint64, msg string, minTail uint64) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.recs == nil {
		t.recs = make(map[uint64]*panicRecord)
	}
	for i, rec := range t.recs {
		// Retired: every replica applied i; keep divergent ones until
		// poisoned. minTail is a per-log tail, so only keys of the same
		// conflict class (same top byte) are comparable against it.
		if i>>56 == idx>>56 && i&panicKeyMask < minTail && rec.okBy == 0 {
			delete(t.recs, i)
		}
	}
	rec := t.recs[idx]
	if rec == nil {
		rec = &panicRecord{msg: msg}
		t.recs[idx] = rec
	}
	rec.panickedBy |= 1 << uint(replica)
	t.active.Store(int64(len(t.recs)))
	if rec.msg != msg {
		return fmt.Sprintf("entry %d panicked with %q on one replica and %q on replica %d", idx, rec.msg, msg, replica)
	}
	if rec.okBy != 0 {
		return fmt.Sprintf("entry %d panicked with %q on replica %d but applied cleanly elsewhere", idx, msg, replica)
	}
	return ""
}

// recordOK notes that replica r applied idx without panicking; it returns a
// poison reason if some replica panicked on the same entry. Callers gate on
// active() so this stays off the hot path; once active, a panic has already
// happened and the blocking lock is acceptable (see recordPanic).
func (t *panicTracker) recordOK(replica int32, idx uint64) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := t.recs[idx]
	if rec == nil {
		return ""
	}
	rec.okBy |= 1 << uint(replica)
	// Only reached on divergence (rec != nil), which poisons the instance.
	return fmt.Sprintf(
		"entry %d applied cleanly on replica %d but panicked with %q elsewhere", idx, replica, rec.msg)
}

// poison marks the instance poisoned with the first observed reason. The
// instance is already lost when this runs; the blocking lock and the trace
// dump are deliberate (see AutoDump).
func (i *Instance[O, R]) poison(reason string) {
	i.poisonMu.Lock()
	if i.poisonReason == "" {
		i.poisonReason = reason
	}
	i.poisonMu.Unlock()
	i.poisoned.Store(true)
	i.rec.AutoDump("poisoned")
}

// poisonedErr returns the sticky poison error (nil when healthy).
func (i *Instance[O, R]) poisonedErr() error {
	if !i.poisoned.Load() {
		return nil
	}
	i.poisonMu.Lock()
	reason := i.poisonReason
	i.poisonMu.Unlock()
	return fmt.Errorf("%w: %s", ErrPoisoned, reason)
}

// safeExecute runs op against r's structure with panic containment and
// writes the result to out, the zero R on a panic. cls is the op's conflict
// class and idx the absolute index in that class's log (noIndex for
// unlogged ops); the pair keys the divergence tracker, while PanicError
// carries the raw per-log index — the number users see in log gauges and
// persistence. The returned error is nil or a *PanicError.
func (i *Instance[O, R]) safeExecute(r *replica[O, R], cls int, op *O, idx uint64, out *R) (err error) {
	defer func() {
		p := recover()
		if p == nil {
			if idx != noIndex && i.tracker.active.Load() != 0 {
				if reason := i.tracker.recordOK(r.id, panicKey(cls, idx)); reason != "" {
					i.poison(reason)
				}
			}
			return
		}
		i.panics.Add(1)
		pe := &PanicError{Value: p, Stack: string(debug.Stack()), Index: idx}
		if idx != noIndex {
			if reason := i.tracker.recordPanic(r.id, panicKey(cls, idx), fmt.Sprint(p), i.logs[cls].MinLocalTail()); reason != "" {
				i.poison(reason)
			}
		}
		i.rec.AutoDump("panic")
		var zero R
		*out, err = zero, pe
	}()
	*out = r.ds.Execute(*op)
	return nil
}

// safeRead runs op on the read path against r's structure with panic
// containment, writing the result to out, which a panic leaves alone; the
// replica lock held by the caller is released normally on the contained
// path.
func (i *Instance[O, R]) safeRead(r *replica[O, R], op *O, out *R) (err error) {
	defer func() {
		if p := recover(); p != nil {
			i.panics.Add(1)
			i.rec.AutoDump("panic")
			err = &PanicError{Value: p, Stack: string(debug.Stack()), Index: noIndex}
		}
	}()
	*out = r.ds.Execute(*op)
	return nil
}

// health builds the failure-state slice of the Metrics snapshot.
func (i *Instance[O, R]) health() Health {
	h := Health{Panics: i.panics.Load(), Poisoned: i.poisoned.Load()}
	if h.Poisoned {
		i.poisonMu.Lock()
		h.PoisonReason = i.poisonReason
		i.poisonMu.Unlock()
	}
	return h
}
