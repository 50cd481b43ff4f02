package core

import "github.com/asplos17/nr/internal/trace"

// applyEntry executes log c's entry at absolute index idx against r — with
// panic containment, so a poisonous op advances localTail like any other —
// and, if the entry originated on r's node, delivers the outcome (value or
// error) to its slot. Callers have already ruled out barrier and cross
// entries (replayTo stops at them; applyCross consumes them).
func (i *Instance[O, R]) applyEntry(r *replica[O, R], c int, idx uint64, op *O, tag uint64, ring *trace.Ring) {
	var res R
	err := i.safeExecute(r, c, op, idx, &res)
	i.deliver(r, c, idx, tag, &res, err, ring)
}

// deliver hands the outcome of log c's entry at idx, just executed against
// r, to its submitter's slot if the entry's tag names r's node, and records
// a contained panic either way.
//
// Per-entry trace events are recorded only for the replay that DELIVERS a
// response, and only for a sampled op (a cross-class op always is), plus any
// contained panic: replays happen (replicas-1) extra times per op, always
// under a replica's write-side lock, so recording each would multiply the
// serialized cost of every update by the node count. Bulk replay remains
// visible through the aggregate events (KReaderRefresh, KHelp,
// KCombineEnd).
func (i *Instance[O, R]) deliver(r *replica[O, R], c int, idx, tag uint64, res *R, err error, ring *trace.Ring) {
	if node, slot, seq := trace.TokenParts(tag); node == int(r.id) {
		tok := tagToken(tag, c)
		sampled := ring != nil && (tagKind(tag) == entryCross || trace.Sampled(seq))
		if sampled {
			ring.Record(trace.KReplay, int(r.id), idx, tok)
		}
		if err != nil {
			ring.Record(trace.KPanic, int(r.id), idx, tok)
		}
		s := &r.slots[slot]
		s.resp, s.err = *res, err
		s.state.Store(slotDone)
		if sampled {
			ring.Record(trace.KRespond, int(r.id), tok, idx)
		}
	} else if err != nil {
		ring.Record(trace.KPanic, int(r.id), idx, 0)
	}
}

// replayTo applies log c's entries to r from its localTail up to 'to',
// the one replay rule every path shares: entries in log order (§5.1). At a
// reserved but unfilled entry it waits when wait is set — an appender must
// reach its own batch (§5.1) — and otherwise stops, as a reader may
// (§5.3). At a cross-log barrier or cross entry it stops and returns that
// entry's ticket (0 otherwise): the caller must release the replica lock
// and run the cross applier (advanceCrossTo) before replaying further.
// Caller holds (r, c)'s write-side lock, which keeps crossDone still while
// the ticket is read (nextTicket).
func (i *Instance[O, R]) replayTo(r *replica[O, R], c int, to uint64, wait bool, ring *trace.Ring) uint64 {
	lg := &r.logs[c]
	for idx := lg.localTail.Load(); idx < to; idx++ {
		op, tag, ok := i.logs[c].GetTagged(idx)
		if !ok {
			if !wait {
				return 0
			}
			op, tag = i.waitGet(int(r.id), c, idx, ring)
		}
		if tagKind(tag) != entryOp {
			return r.nextTicket()
		}
		i.applyEntry(r, c, idx, op, tag, ring)
		lg.localTail.Store(idx + 1)
	}
	return 0
}

// waitGet fetches log c's entry (op, in place in its cell, and tag) at idx,
// recording a hole-wait event (with the yield count) when waiting for its
// fill took a yield.
func (i *Instance[O, R]) waitGet(node, c int, idx uint64, ring *trace.Ring) (*O, uint64) {
	op, tag, spins := i.logs[c].WaitGet(idx)
	if spins > 0 {
		ring.Record(trace.KHoleWait, node, idx, uint64(spins))
	}
	return op, tag
}

// refreshOwn refreshes (r, c) to 'to', applying any cross-log barriers it
// meets on the way (each barrier costs a release/advance/re-acquire cycle;
// see cross.go).
func (i *Instance[O, R]) refreshOwn(r *replica[O, R], c int, to uint64, ring *trace.Ring) {
	lg := &r.logs[c]
	for {
		lg.rw.Lock()
		blocked := i.replayTo(r, c, to, false, ring)
		lg.rw.Unlock()
		if blocked == 0 {
			return
		}
		i.advanceCrossTo(r, blocked, ring)
	}
}

// quiesceReplica brings one replica up to date with every log's completed
// tail, applying cross-log barriers as it meets them. Every entry below a
// completed tail is filled (each combiner waits out its whole prefix before
// advancing it), so replayTo's hole stop never cuts the replay short.
func (i *Instance[O, R]) quiesceReplica(r *replica[O, R]) {
	for c := range i.logs {
		i.refreshOwn(r, c, i.logs[c].Completed(), nil)
	}
}

// Quiesce brings every replica up to date with all completed operations on
// every log. It is a testing/maintenance aid (e.g. before inspecting
// replicas); the algorithm itself never needs it.
func (i *Instance[O, R]) Quiesce() {
	for _, r := range i.replicas {
		i.quiesceReplica(r)
	}
}

// CheckpointReplica quiesces node's replica to the completed tail, then
// runs fn with every log's write lock held, passing the replica's applied
// index on log 0: every log-0 entry with index < applied is reflected in
// ds, none at or beyond it. The persistence layer snapshots through this —
// the applied index is the snapshot's replay resumption point. (Persistence
// is single-log, so log 0's index is the whole story there.)
func (i *Instance[O, R]) CheckpointReplica(node int, fn func(ds Sequential[O, R], applied uint64)) {
	r := i.replicas[node]
	i.quiesceReplica(r)
	for c := range i.logs {
		r.logs[c].rw.Lock() // index order across one replica's logs
	}
	fn(r.ds, r.logs[0].localTail.Load())
	for c := len(i.logs) - 1; c >= 0; c-- {
		r.logs[c].rw.Unlock()
	}
}

// InspectReplica runs fn against node's replica with every log's write
// lock held, after quiescing that replica. Tests use it to compare replica
// states.
func (i *Instance[O, R]) InspectReplica(node int, fn func(ds Sequential[O, R])) {
	r := i.replicas[node]
	i.quiesceReplica(r)
	for c := range i.logs {
		r.logs[c].rw.Lock() // index order across one replica's logs
	}
	fn(r.ds)
	for c := len(i.logs) - 1; c >= 0; c-- {
		r.logs[c].rw.Unlock()
	}
}
