package core

import (
	"runtime"
	"time"

	"github.com/asplos17/nr/internal/trace"
)

// runCombiner executes one combining round on conflict class c, recording
// its trace events into ring (the combining thread's own ring — combiner
// events land on the combiner's timeline, joined to each op by token).
// The caller holds class c's combiner lock.
//
//nr:hotpath-noio
//nr:spin
func (i *Instance[O, R]) runCombiner(r *replica[O, R], c int, ring *trace.Ring) {
	lg := &r.logs[c]
	o := i.observer
	var began time.Time
	if o != nil {
		began = time.Now()
	}
	// One clock read covers the round start and the pickups: collection is a
	// single pass over the node's slots, far shorter than the clock
	// resolution that matters here, and the round runs under the combiner
	// lock — every clock read it saves shortens the serialized section.
	t0 := ring.Now()
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
			ring.RecordAt(t0, trace.KPickup, int(r.id), trace.TokenWithLog(c, int(r.id), idx, s.seq), 0)
		}
	}
	if len(batch) == 0 {
		if o != nil {
			o.CombineEnd(int(r.id), 0, 0, time.Since(began))
		}
		ring.Record(trace.KCombineEnd, int(r.id), 0, 0)
		return
	}
	r.counters.combines.Add(1)
	r.counters.combinedOps.Add(uint64(len(batch)))

	// Append the batch: reserve with one CAS, then fill (§5.1). Entries
	// carry (node, slot) tags so that if a helper replays them into this
	// replica first, the helper delivers the responses.
	start := i.reserveConsuming(r, c, len(batch), ring)
	// One clock read stamps the reservation and the fills: it is taken
	// AFTER reserveConsuming returns, so a slow reservation (log full,
	// helping) still shows as a long pickup→reserve phase.
	t1 := ring.Now()
	ring.RecordAt(t1, trace.KLogReserve, int(r.id), start, uint64(len(batch)))
	for k, t := range batch {
		// The slot is read before Fill publishes the entry: from then on a
		// replayer that overtakes this round may answer the slot by tag, and
		// its owner may already be writing its next op into it.
		tok := trace.TokenWithLog(c, int(r.id), int(t.slot), t.s.seq)
		i.logs[c].Fill(start+uint64(k), entry[O]{op: t.s.op, node: r.id, slot: t.slot, seq: t.s.seq})
		ring.RecordAt(t1, trace.KLogFill, int(r.id), tok, start+uint64(k))
	}
	end := start + uint64(len(batch))

	lg.rw.Lock()
	// Bring the replica up to date with everything before our batch,
	// waiting out any holes (§5.1). A cross-log barrier before our batch
	// must be applied by the cross applier, which takes every log's write
	// lock — release ours around the call (cross.go's lock order).
	idx := lg.localTail.Load()
	for idx < start {
		e := i.waitGet(int(r.id), c, idx, ring)
		if e.kind != entryOp {
			lg.rw.Unlock()
			i.advanceCrossTo(r, e.ticket, ring)
			lg.rw.Lock() //nr:lockok re-acquire: released two lines up, around the cross applier
			idx = lg.localTail.Load()
			continue
		}
		i.applyEntry(r, c, idx, e, ring)
		idx++
		lg.localTail.Store(idx)
	}
	if idx == start {
		// Fast path (the paper's §5.2): apply our ops from the node-local
		// combining slots rather than re-reading the log. safeExecute keeps
		// a panicking op from killing the combiner: the outcome is recorded
		// at the op's log index and delivered like any response.
		lg.localTail.Store(end)
		i.logs[c].AdvanceCompleted(end)
		for k, t := range batch {
			tok := trace.TokenWithLog(c, int(r.id), int(t.slot), t.s.seq)
			// KExecute is stamped before the op runs and KRespond after
			// delivery, so the execute→respond gap is the op's real duration.
			ring.Record(trace.KExecute, int(r.id), tok, start+uint64(k))
			t.s.resp, t.s.err = i.safeExecute(r, c, t.s.op, start+uint64(k))
			if t.s.err != nil {
				ring.Record(trace.KPanic, int(r.id), start+uint64(k), tok)
			}
			t.s.state.Store(slotDone)
			ring.Record(trace.KRespond, int(r.id), tok, start+uint64(k))
		}
	} else {
		// A helper replayed past our batch start while we were appending;
		// finish through the log — tag delivery answers our batch slots.
		// (Helpers consume barriers before advancing past them, so the
		// entries in [idx, end) are ours alone: plain ops.)
		for ; idx < end; idx++ {
			i.applyEntry(r, c, idx, i.waitGet(int(r.id), c, idx, ring), ring)
			lg.localTail.Store(idx + 1)
		}
		i.logs[c].AdvanceCompleted(end)
	}
	lg.rw.Unlock()
	if o != nil {
		o.CombineEnd(int(r.id), len(batch), len(batch), time.Since(began))
	}
	ring.Record(trace.KCombineEnd, int(r.id), uint64(len(batch)), uint64(len(batch)))
}

// reserveConsuming reserves n entries of log c on behalf of r. When the
// log is full, simply spinning would deadlock: the recycler needs *every*
// replica's localTail to advance, including replicas on nodes whose threads
// are currently inactive (§6). So a blocked appender (1) drains the log
// into its own replica and (2) helps lagging replicas catch up to
// completedTail — driving the cross applier through any barrier that is
// what actually blocks a lagging replica. The one tail it cannot help is a
// log follower's (persistence): it wakes the follower and yields to it.
//
//nr:spin
func (i *Instance[O, R]) reserveConsuming(r *replica[O, R], c, n int, ring *trace.Ring) uint64 {
	l := i.logs[c]
	o := i.observer
	reported := false
	for {
		start, casRetries, ok := l.TryReserveObserved(n)
		if o != nil && casRetries > 0 {
			o.LogTailRetry(int(r.id), casRetries)
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
// (§6), shared by a blocked appender and the stall watchdog. A laggard
// parked at a cross-log barrier gets the cross op applied for it, with no
// replica lock held (the cross applier takes every log's lock itself). The
// entries are charged to the helper's node, or to the helped replica's when
// no node is helping (self nil: the watchdog).
func (i *Instance[O, R]) helpLaggards(self *replica[O, R], c int, to uint64, ring *trace.Ring) {
	for _, r2 := range i.replicas {
		if r2 == self || r2.logs[c].localTail.Load() >= to {
			continue
		}
		var blocked uint64
		if r2.logs[c].rw.TryLock() {
			before := r2.logs[c].localTail.Load()
			blocked = i.refreshTo(r2, c, to, ring)
			helped := r2.logs[c].localTail.Load() - before
			charged := self
			if charged == nil {
				charged = r2
			}
			charged.counters.helpedEntries.Add(helped)
			r2.logs[c].rw.Unlock()
			if helped > 0 {
				if o := i.observer; o != nil {
					o.Help(int(r2.id), int(helped))
				}
				ring.Record(trace.KHelp, int(r2.id), helped, 0)
			}
		}
		if blocked != 0 {
			i.advanceCrossTo(r2, blocked, ring)
		}
	}
}
