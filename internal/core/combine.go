package core

import (
	"runtime"
	"time"

	"github.com/asplos17/nr/internal/trace"
)

// runCombiner executes one combining round on conflict class c, recording
// its trace events into ring (the combining thread's own ring — combiner
// events land on the combiner's timeline, joined to each op by token).
// Round events are recorded every round; per-op milestones only for the
// sampled ops of the batch. The caller holds class c's combiner lock.
func (i *Instance[O, R]) runCombiner(r *replica[O, R], c int, ring *trace.Ring) {
	lg := &r.logs[c]
	// One clock read stamps the round's start, its pickups, and the start
	// of the observer's round duration — and none is taken when neither is
	// attached (endRound).
	var t0 int64
	if i.observed || ring != nil {
		t0 = trace.Now()
	}
	ring.RecordAt(t0, trace.KCombineStart, int(r.id), 0, uint64(c))
	// Collect the batch: every posted class-c slot on this node (§5.2),
	// into this log's preallocated scratch buffer (cap = slot count, so
	// append below never allocates). The class is read before the CAS and
	// stable after it: a posted slot's contents are frozen until a combiner
	// transitions it, and only the owner resets it after slotDone.
	batch := lg.scratch[:0]
	for idx := range r.slots {
		s := &r.slots[idx]
		if s.state.Load() == slotPosted && s.class.Load() == int32(c) && s.state.CompareAndSwap(slotPosted, slotTaken) {
			batch = append(batch, takenSlot[O, R]{s, int32(idx)})
			if ring != nil && trace.Sampled(s.seq) {
				ring.RecordAt(t0, trace.KPickup, int(r.id), trace.TokenWithLog(c, int(r.id), idx, s.seq), 0)
			}
		}
	}
	if len(batch) == 0 {
		i.endRound(r, t0, 0, ring)
		return
	}
	r.counters.combines.Add(1)
	r.counters.combinedOps.Add(uint64(len(batch)))

	// Append the batch: reserve with one CAS, then fill (§5.1). Entries
	// carry (node, slot) in their tags so that if a helper replays them
	// into this replica first, the helper delivers the responses.
	start := i.reserveConsuming(r, c, len(batch), ring)
	// One clock read stamps the reservation and the fills: it is taken
	// AFTER reserveConsuming returns, so a slow reservation (log full,
	// helping) still shows as a long pickup→reserve phase.
	var t1 int64
	if ring != nil {
		t1 = trace.Now()
		ring.RecordAt(t1, trace.KLogReserve, int(r.id), start, uint64(len(batch)))
	}
	for k, t := range batch {
		// The slot is read before Fill publishes the entry: from then on a
		// replayer that overtakes this round may answer the slot by tag, and
		// its owner may already be writing its next op into it.
		seq := t.s.seq
		i.logs[c].FillTagged(start+uint64(k), &t.s.op, opTag(entryOp, int(r.id), int(t.slot), seq))
		if ring != nil && trace.Sampled(seq) {
			ring.RecordAt(t1, trace.KLogFill, int(r.id), trace.TokenWithLog(c, int(r.id), int(t.slot), seq), start+uint64(k))
		}
	}
	end := start + uint64(len(batch))

	lg.rw.Lock()
	// Bring the replica up to date with everything before our batch,
	// waiting out any holes (§5.1). A cross-log barrier before our batch
	// must be applied by the cross applier, which takes every log's write
	// lock — release ours around the call (cross.go's lock order).
	for {
		t := i.replayTo(r, c, start, true, ring)
		if t == 0 {
			break
		}
		lg.rw.Unlock()
		i.advanceCrossTo(r, t, ring)
		lg.rw.Lock()
	}
	if lg.localTail.Load() == start {
		// Fast path (the paper's §5.2): apply our ops from the node-local
		// combining slots rather than re-reading the log. safeExecute keeps
		// a panicking op from killing the combiner: the outcome is recorded
		// at the op's log index and delivered like any response.
		lg.localTail.Store(end)
		i.logs[c].AdvanceCompleted(end)
		for k, t := range batch {
			tok := trace.TokenWithLog(c, int(r.id), int(t.slot), t.s.seq)
			sampled := ring != nil && trace.Sampled(t.s.seq)
			// KExecute is stamped before the op runs and KRespond after
			// delivery, so the execute→respond gap is the op's real duration.
			if sampled {
				ring.Record(trace.KExecute, int(r.id), tok, start+uint64(k))
			}
			t.s.err = i.safeExecute(r, c, &t.s.op, start+uint64(k), &t.s.resp)
			if t.s.err != nil {
				ring.Record(trace.KPanic, int(r.id), start+uint64(k), tok)
			}
			t.s.state.Store(slotDone)
			if sampled {
				ring.Record(trace.KRespond, int(r.id), tok, start+uint64(k))
			}
		}
	} else {
		// A helper replayed past our batch start while we were appending;
		// finish through the log — tag delivery answers our batch slots.
		// (Helpers consume barriers before advancing past them, so the
		// entries left in [start, end) are ours alone: plain ops.)
		i.replayTo(r, c, end, true, ring)
		i.logs[c].AdvanceCompleted(end)
	}
	lg.rw.Unlock()
	i.endRound(r, t0, len(batch), ring)
}

// endRound closes a combining round that began at t0 and served n ops: one
// clock read stamps the recorder's combine-end and ends the observer's round
// duration, and none is taken when neither is attached.
func (i *Instance[O, R]) endRound(r *replica[O, R], t0 int64, n int, ring *trace.Ring) {
	if !i.observed && ring == nil {
		return
	}
	now := trace.Now()
	i.observer.CombineEnd(int(r.id), n, n, time.Duration(now-t0))
	ring.RecordAt(now, trace.KCombineEnd, int(r.id), uint64(n), uint64(n))
}

// reserveConsuming reserves n entries of log c on behalf of r. When the
// log is full, simply spinning would deadlock: the recycler needs *every*
// replica's localTail to advance, including replicas on nodes whose threads
// are currently inactive (§6). So a blocked appender (1) drains the log
// into its own replica and (2) helps lagging replicas catch up to
// completedTail — driving the cross applier through any barrier that is
// what actually blocks a lagging replica. The one tail it cannot help is a
// log follower's (persistence): it wakes the follower and yields to it.
func (i *Instance[O, R]) reserveConsuming(r *replica[O, R], c, n int, ring *trace.Ring) uint64 {
	l := i.logs[c]
	reported := false
	for {
		start, casRetries, ok := l.TryReserve(n)
		if casRetries > 0 {
			r.counters.tailRetries.Add(uint64(casRetries))
			i.observer.LogTailRetry(int(r.id), casRetries)
		}
		if ok {
			return start
		}
		if !reported {
			reported = true // one log-full event per blocked reservation
			ring.Record(trace.KLogFull, int(r.id), l.Tail(), 0)
		}
		if f := i.follower; f != nil {
			f.Kick()
		}
		// Drain into our own replica so our localTail is not the laggard.
		if to := l.Tail(); to > r.logs[c].localTail.Load() {
			i.refreshOwn(r, c, to, ring)
		}
		// Help other replicas, bounded by completedTail (see package doc).
		i.helpLaggards(r, c, l.Completed(), ring)
		runtime.Gosched()
	}
}

// helpLaggards replays log c up to 'to' into every replica but self that
// lags it and whose writer lock is free: the inactive-replica helping path
// (§6) of a blocked appender. A laggard parked at a cross-log barrier gets
// the cross op applied for it, with no replica lock held (the cross applier
// takes every log's lock itself). The entries are charged to the helper's
// node.
func (i *Instance[O, R]) helpLaggards(self *replica[O, R], c int, to uint64, ring *trace.Ring) {
	for _, r2 := range i.replicas {
		if r2 == self || r2.logs[c].localTail.Load() >= to {
			continue
		}
		var blocked uint64
		if r2.logs[c].rw.TryLock() {
			before := r2.logs[c].localTail.Load()
			blocked = i.replayTo(r2, c, to, false, ring)
			helped := r2.logs[c].localTail.Load() - before
			self.counters.helpedEntries.Add(helped)
			r2.logs[c].rw.Unlock()
			if i.afterHelpUnlock != nil {
				i.afterHelpUnlock()
			}
			if helped > 0 {
				ring.Record(trace.KHelp, int(r2.id), helped, 0)
			}
		}
		if blocked != 0 {
			i.advanceCrossTo(r2, blocked, ring)
		}
	}
}
