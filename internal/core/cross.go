// Cross-log operations (multi-log NR). An operation whose LogMapper class
// is CrossLog touches more than one conflict class, so no single log's
// order covers it. It serializes through log 0 behind a ticket barrier:
//
//	take, under the instance-wide crossMu, the next ticket t and reserve
//	ONE entry in EVERY log — an entryCross carrying the op in log 0, an
//	entryBarrier in each of logs 1..M-1;
//	fill log 0's cross entry first, then the barriers, still under
//	crossMu; release crossMu.
//
// The entries do not store t. Because tickets are taken and reserved
// under crossMu, each log holds its cross entries or barriers in ticket
// order, and every replica consumes ticket t's entries exactly when it
// applies t. So a replica's next unconsumed barrier in each log, and its
// next cross entry in log 0, belong to ticket crossDone+1 (nextTicket) —
// read while the replayer still holds that log's write lock, because
// crossDone only moves under all of the replica's write locks.
//
// Replayers (refreshTo, the combiner pre-batch loop, helpers, quiesce)
// stop when they meet a non-entryOp entry and hand its ticket to
// advanceCrossTo, which applies cross tickets to one replica in order:
// the applier takes EVERY log's write lock (index order), aligns each
// log j >= 1 to its next barrier — replaying any normal entries before
// it — consumes the barrier, replays log 0 to the next cross entry, and
// executes the op there. Because every replica consumes ticket t's barrier
// at the same point in each log's history, the cross op is applied against
// the same state everywhere: that point IS the op's linearization point.
//
// Deadlock-freedom: the lock order is crossGlobal (crossMu) < crossApply <
// replicaWriter. advanceCrossTo is only ever entered with no replicaWriter
// held — replayers that meet a barrier while holding one release it first,
// call the applier, and re-acquire. Fill-before-release ordering under
// crossMu guarantees every ticket a replayer can observe is fully filled:
// log 0's cross entry is filled before any barrier for the same ticket
// becomes visible, so the applier's WaitGet always terminates.
//
// Liveness under a full log: reservation inside the crossMu critical
// section uses the same consuming/helping loop as normal appends
// (reserveConsuming) rather than a blind spin — it can drive replicas
// forward (including through EARLIER cross tickets, which are fully
// filled by the invariant above) until space frees up.
package core

import (
	"runtime"

	"github.com/asplos17/nr/internal/trace"
)

// updateCross executes a multi-class update: append under the global
// ticket lock, then drive this replica's cross applier until our ticket is
// done and collect the response from our combining slot.
func (i *Instance[O, R]) updateCross(h *Handle[O, R], op O) (R, error) {
	i.crossOps.Add(1)
	r := i.replicas[h.node]
	s := &r.slots[h.slot]
	s.seq = h.seq
	s.state.Store(slotTaken) // response arrives via the cross applier
	t := i.appendCross(h, op)
	i.advanceCrossTo(r, t, h.ring)
	// Our ticket is applied on our replica; the applier that executed it
	// here delivered the response to our slot (entry tagged node+slot).
	for s.state.Load() != slotDone {
		runtime.Gosched()
	}
	resp, err := s.resp, s.err
	s.state.Store(slotEmpty)
	return resp, err
}

// appendCross reserves and fills one ticket's entries in every log and
// returns the ticket. Ticket numbering, reservation, and fill all happen
// under crossMu so tickets are observed in order and fully filled (see the
// file comment's invariants).
func (i *Instance[O, R]) appendCross(h *Handle[O, R], op O) uint64 {
	r := i.replicas[h.node]
	i.crossMu.Lock()
	i.crossSeq++
	t := i.crossSeq
	for c := range i.logs {
		i.crossIdx[c] = i.reserveConsuming(r, c, 1, h.ring)
	}
	tok := h.token()
	h.ring.Record(trace.KLogReserve, h.node, i.crossIdx[0], uint64(len(i.logs)))
	// Log 0's cross entry becomes visible before any barrier: an applier
	// chasing a barrier's ticket always finds the op already filled.
	i.logs[0].Fill(i.crossIdx[0], entry[O]{op: op, tag: opTag(entryCross, h.node, h.slot, h.seq)})
	h.ring.Record(trace.KLogFill, h.node, tok, i.crossIdx[0])
	for c := 1; c < len(i.logs); c++ {
		i.logs[c].Fill(i.crossIdx[c], entry[O]{tag: entryBarrier << tagKindShift})
	}
	i.crossMu.Unlock()
	return t
}

// nextTicket is the ticket of the cross entry or barrier at which one of
// r's logs stands: tickets are consumed in order, so it is the one after
// the last r applied. The caller holds that log's write lock, without which
// crossDone could move past the entry before it is read.
func (r *replica[O, R]) nextTicket() uint64 { return r.crossDone.Load() + 1 }

// advanceCrossTo drives replica r's cross applier until ticket t has been
// applied there. Multiple threads may push the same replica; the crossApply
// lock elects one applier per ticket while the rest spin on crossDone.
// Callers must hold none of r's replicaWriter locks (lock order).
func (i *Instance[O, R]) advanceCrossTo(r *replica[O, R], t uint64, ring *trace.Ring) {
	for r.crossDone.Load() < t {
		if !r.crossApply.TryLock() {
			runtime.Gosched()
			continue
		}
		if next := r.crossDone.Load() + 1; next <= t {
			i.applyCross(r, next, ring)
		}
		r.crossApply.Unlock()
	}
}

// applyCross applies cross ticket 'next' to replica r: align every log to
// the ticket's barrier, execute the op from log 0, publish. Caller holds
// r.crossApply and none of r's replicaWriter locks; 'next' is fully filled
// (crossDone+1 <= crossSeq implies its fill completed under crossMu).
func (i *Instance[O, R]) applyCross(r *replica[O, R], next uint64, ring *trace.Ring) {
	// All write locks in index order: the cross op may touch any class's
	// partition, and holding every lock also gives cross-class readers
	// (readOnlyCross) a torn-view-free snapshot rule. Same-class instances
	// acquired in index order, applier elected by crossApply — no cycle.
	for c := range i.logs {
		r.logs[c].rw.Lock() // index order across one replica's logs
	}
	// Align logs 1..M-1 first: replay their plain entries up to the next
	// barrier and consume it. It is ticket 'next''s — tickets are applied
	// in order, so barriers for next-1 and below are already consumed on
	// this replica.
	for c := 1; c < len(i.logs); c++ {
		lg := &r.logs[c]
		for {
			idx := lg.localTail.Load()
			e := i.waitGet(int(r.id), c, idx, ring)
			if e.kind() == entryBarrier {
				lg.localTail.Store(idx + 1)
				i.logs[c].AdvanceCompleted(idx + 1)
				break
			}
			i.applyEntry(r, c, idx, e, ring)
			lg.localTail.Store(idx + 1)
		}
	}
	// Replay log 0 up to and including the next cross entry, ticket
	// 'next''s for the same reason.
	lg0 := &r.logs[0]
	for {
		idx := lg0.localTail.Load()
		e := i.waitGet(int(r.id), 0, idx, ring)
		if e.kind() == entryCross {
			res, err := i.safeExecute(r, 0, e.op, idx)
			lg0.localTail.Store(idx + 1)
			// Advance completed tails BEFORE delivering the response: a
			// reader that runs after the submitter returns must observe a
			// completed tail covering the cross op on every log, so its
			// class-local wait suffices to see the op's effects.
			i.logs[0].AdvanceCompleted(idx + 1)
			i.deliver(r, 0, idx, e, res, err, ring)
			break
		}
		i.applyEntry(r, 0, idx, e, ring)
		lg0.localTail.Store(idx + 1)
	}
	r.crossDone.Store(next)
	for c := len(i.logs) - 1; c >= 0; c-- {
		r.logs[c].rw.Unlock()
	}
}

// readOnlyCross serves a read-only operation whose class is CrossLog: it
// must observe every conflict class consistently. Wait until the local
// replica covers every log's completed tail as of the read's start, then
// run the op holding every log's read lock. Consistency: the only writers
// that touch multiple classes atomically are cross appliers, and they hold
// ALL write locks — so holding all read locks excludes them and no torn
// multi-class state is observable; single-class combiners hold their own
// class's write lock, excluded the same way.
func (i *Instance[O, R]) readOnlyCross(h *Handle[O, R], op O) (R, error) {
	r := i.replicas[h.node]
	tails := h.crossTails
	for c := range i.logs {
		tails[c] = i.logs[c].Completed()
	}
	h.ring.Record(trace.KTailRead, h.node, h.token(), tails[0])
	for c := range i.logs {
		i.waitReplicaTail(h, r, c, tails[c])
	}
	for c := range i.logs {
		r.logs[c].rw.RLock(h.slot) // index order across one replica's logs
	}
	h.ring.Record(trace.KRLock, h.node, h.token(), 0)
	resp, err := i.safeRead(r, op)
	for c := len(i.logs) - 1; c >= 0; c-- {
		r.logs[c].rw.RUnlock(h.slot)
	}
	return resp, err
}
