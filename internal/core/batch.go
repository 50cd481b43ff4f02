// Batching policy engine (ROADMAP item 1): the combiner-side linger/batch
// machinery plus opt-in parallel combining.
//
// Every bench through PR 6 reported combiner_batch_mean ≈ 1.0: a combiner
// that never waits closes one-op rounds, paying a full protocol round —
// lock, tail CAS, fill, replica update — per update, and capturing none of
// the batching flat combining (Hendler et al.) is built around. The policy
// engine holds a round open for a bounded spin window so concurrently
// arriving ops join it:
//
//	collect ──▶ batch < target? ──▶ linger (refresh replica, yield,
//	    │            │ no              re-collect) until target or window
//	    │            ▼                 expires
//	    └──▶ reserve k entries with ONE tail CAS ──▶ fill ──▶ apply
//
// The window is either fixed (BatchPolicy.MaxLinger) or adaptive: per
// replica, the window doubles whenever a round observes concurrency (a
// batch of 2+, or ops still posted when the round closes — the cold-start
// signal that arrivals outpace rounds) and halves after lone-op rounds,
// bounded by [0, MaxLinger]. The replica's observed batch-size distribution
// (the same CountDist the obs.Metrics observer keeps) supplies a slow
// signal: while its mean says batching has been paying, the window decays
// to a small floor instead of all the way to zero, so an arrival gap does
// not forget a working configuration.
//
// Parallel combining (Aksenov & Kuznetsov) rides on formed batches: when
// the structure declares every op in the batch independently applicable
// (ConcurrentApplier), the combiner assigns each op its log index and hands
// execution back to the parked owner goroutines, which run their own ops
// against the replica concurrently while the combiner runs its own. The
// replica write lock stays held by the combiner for the whole round, so
// readers and helpers are excluded exactly as on the serial path.
package core

import (
	"runtime"
	"time"

	"github.com/asplos17/nr/internal/trace"
)

// BatchPolicy configures the combiner's batching behaviour. The zero value
// disables lingering entirely (every round closes after one collection
// pass, the pre-policy behaviour).
type BatchPolicy struct {
	// MinBatch, when positive, is the batch size the combiner lingers FOR:
	// a round closes as soon as it holds MinBatch ops, or when the linger
	// window expires, whichever is first. Zero means linger for a full
	// node's worth (MaxBatch).
	MinBatch int

	// MaxLinger bounds how long a combiner holds a round open waiting for
	// more ops. Zero disables lingering (and, with Adaptive set, is
	// replaced by a default bound). The window is a worst-case latency
	// addition for a lone thread, and a throughput win under concurrency:
	// k ops in one round share one lock acquisition and one tail CAS.
	MaxLinger time.Duration

	// MaxBatch caps ops per round. Zero (or anything larger) means the
	// node's slot count — the natural ceiling, since a round can collect
	// at most one op per same-node thread.
	MaxBatch int

	// Adaptive makes the linger window self-tuning per replica within
	// [0, MaxLinger], driven by observed batch sizes and end-of-round
	// arrivals (see the package comment). Fixed-window lingering taxes a
	// lone thread on every op; adaptive lingering only pays the window
	// while concurrency is actually observed.
	Adaptive bool

	// Parallel enables parallel combining for structures implementing
	// ConcurrentApplier: batches whose ops all declare themselves
	// independent are handed back to the parked owner goroutines to
	// execute concurrently against the replica.
	Parallel bool
}

// ConcurrentApplier is optionally implemented by a Sequential structure to
// unlock parallel combining. ConcurrentApply reports whether op may execute
// concurrently with any other operation for which it also returns true. The
// contract is two-fold, and entirely the structure's promise:
//
//   - Commutativity: for any ops a, b with ConcurrentApply true, executing
//     a then b and b then a must leave the structure in the same state and
//     return the same per-op responses — other replicas replay the same
//     ops serially in log order, and replicas must converge.
//   - Thread safety: Execute for such ops must tolerate running
//     concurrently with the other declared-independent ops of the batch
//     against the same replica (e.g. atomic per-cell counters).
//
// Like IsReadOnly, ConcurrentApply must be a pure function of op.
type ConcurrentApplier[O any] interface {
	ConcurrentApply(op O) bool
}

const (
	// defaultAdaptiveLinger bounds the adaptive window when the caller set
	// Adaptive without choosing MaxLinger.
	defaultAdaptiveLinger = 200 * time.Microsecond

	// lingerSeedDiv: the adaptive window starts (and floors, while the
	// batch distribution says lingering pays) at MaxLinger/lingerSeedDiv.
	lingerSeedDiv = 16

	// parallelClaimWait is how long a parallel round waits for a parked
	// owner to claim its handed-back op before the combiner reclaims and
	// executes it itself. It only elapses when an owner is not actually
	// waiting (PostAndAbandon, the §6 dead-thread hazard) or is scheduled
	// out; a reclaim racing a slow owner is resolved by CAS, so the wait
	// bounds round latency without risking lost ops.
	parallelClaimWait = 250 * time.Microsecond
)

// lingerWindow returns the spin window the next round on (replica, log) lg
// should hold its batch open for. Caller holds lg's combiner lock.
func (i *Instance[O, R]) lingerWindow(lg *replicaLog[O, R]) time.Duration {
	if !i.batch.Adaptive {
		return i.batch.MaxLinger
	}
	return time.Duration(lg.lingerWindow.Load())
}

// adaptAfterRound updates (replica, log) lg's adaptive linger state after a
// combining round that collected batch ops and left pending ops still
// posted. Caller holds lg's combiner lock. Each (replica, log) pair adapts
// independently: conflict classes can have wildly different arrival rates.
func (i *Instance[O, R]) adaptAfterRound(lg *replicaLog[O, R], batch, pending int) {
	if batch > 0 {
		lg.batchDist.Record(uint64(batch))
	}
	if !i.batch.Adaptive {
		return
	}
	seed := i.batch.MaxLinger / lingerSeedDiv
	if seed <= 0 {
		seed = time.Microsecond
	}
	cur := time.Duration(lg.lingerWindow.Load())
	if batch > 1 || pending > 0 {
		// Concurrency observed: multiplicative increase toward MaxLinger.
		// pending > 0 is the cold-start signal — with a zero window batches
		// never form, but ops arriving DURING a round still show up as
		// posted slots at round end.
		w := cur * 2
		if w < seed {
			w = seed
		}
		if w > i.batch.MaxLinger {
			w = i.batch.MaxLinger
		}
		lg.lingerWindow.Store(int64(w))
		return
	}
	// Lone-op round: decay. While the replica's batch history says rounds
	// have been combining (mean > lingerPayoffMean), hold a small floor
	// open instead of decaying to zero, so a brief arrival gap doesn't
	// forget a configuration that was paying for itself.
	w := cur / 2
	if floor := i.lingerFloor(lg, seed); w < floor {
		w = floor
	}
	lg.lingerWindow.Store(int64(w))
}

// lingerPayoffMean is the observed mean batch size above which the adaptive
// window keeps a floor open through lone-op rounds.
const lingerPayoffMean = 1.5

func (i *Instance[O, R]) lingerFloor(lg *replicaLog[O, R], seed time.Duration) time.Duration {
	if lg.batchDist.Mean() > lingerPayoffMean {
		return seed
	}
	return 0
}

// countPosted returns how many of r's slots hold posted-but-uncollected
// class-c ops. Racy by design (the answer is advisory: it feeds the
// adaptive signal); the class read behind the posted check is stable while
// a slot stays posted.
//
//nr:noalloc
func (i *Instance[O, R]) countPosted(r *replica[O, R], c int) int {
	pending := 0
	for idx := range r.slots {
		s := &r.slots[idx]
		if s.state.Load() == slotPosted && s.class.Load() == int32(c) {
			pending++
		}
	}
	return pending
}

// batchCommutes reports whether every op in batch declares itself
// independently applicable, making the whole batch eligible for parallel
// combining. One conservative bit for the round: mixing a dependent op into
// a concurrent batch would need pairwise analysis the interface doesn't
// attempt.
//
//nr:noalloc
func (i *Instance[O, R]) batchCommutes(batch []takenSlot[O, R]) bool {
	for _, t := range batch {
		if !i.conc(t.s.op) {
			return false
		}
	}
	return true
}

// parallelApply executes batch via parallel combining: every op already has
// its reserved log index; hand each op (except the combiner's own, self)
// back to its parked owner, execute self inline, then wait for the owners.
// Returns the number of ops handed off. Caller holds the combiner lock AND
// the replica write lock, has advanced localTail/completedTail past the
// batch, and has filled the log — identical protocol position to the serial
// fast path, so readers, helpers and other nodes observe no difference.
//
//nr:hotpath-noio
//nr:noalloc
//nr:spin
func (i *Instance[O, R]) parallelApply(r *replica[O, R], c int, batch []takenSlot[O, R], start uint64, self int32, ring *trace.Ring) int {
	handed := 0
	for _, t := range batch {
		if t.slot != self {
			handed++
		}
	}
	if handed == 0 {
		return 0
	}
	lg := &r.logs[c]
	// Publish the outstanding count BEFORE the first handoff store: an
	// owner that executes and decrements immediately must not drive the
	// counter negative.
	lg.parPending.Store(int64(handed))
	for k := range batch {
		t := &batch[k]
		// idx is published to the owner by the slotParallel release store.
		t.s.idx = start + uint64(k)
		if t.slot != self {
			t.s.state.Store(slotParallel)
		}
	}
	ring.Record(trace.KParallel, int(r.id), uint64(handed), start)
	i.parallelOps.Add(uint64(handed))
	// Execute our own op while the owners run theirs.
	for k, t := range batch {
		if t.slot != self {
			continue
		}
		tok := trace.TokenWithLog(c, int(r.id), int(t.slot), t.s.seq)
		ring.Record(trace.KExecute, int(r.id), tok, start+uint64(k))
		t.s.resp, t.s.err = i.safeExecute(r, c, t.s.op, start+uint64(k))
		if t.s.err != nil {
			ring.Record(trace.KPanic, int(r.id), start+uint64(k), tok)
		}
		t.s.state.Store(slotDone)
		ring.Record(trace.KRespond, int(r.id), tok, start+uint64(k))
	}
	// Wait for the handed ops. An op nobody claims within parallelClaimWait
	// (its owner abandoned the slot, or is scheduled out) is reclaimed by
	// CAS and executed here — the same thread that would have run it on the
	// serial path — so a dead owner cannot wedge the round.
	deadline := time.Now().Add(parallelClaimWait)
	reclaimed := false
	for lg.parPending.Load() > 0 {
		runtime.Gosched()
		if reclaimed || time.Now().Before(deadline) {
			continue
		}
		reclaimed = true
		for k := range batch {
			t := &batch[k]
			if t.slot == self || !t.s.state.CompareAndSwap(slotParallel, slotTaken) {
				continue
			}
			tok := trace.TokenWithLog(c, int(r.id), int(t.slot), t.s.seq)
			ring.Record(trace.KExecute, int(r.id), tok, start+uint64(k))
			t.s.resp, t.s.err = i.safeExecute(r, c, t.s.op, start+uint64(k))
			if t.s.err != nil {
				ring.Record(trace.KPanic, int(r.id), start+uint64(k), tok)
			}
			t.s.state.Store(slotDone)
			ring.Record(trace.KRespond, int(r.id), tok, start+uint64(k))
			lg.parPending.Add(-1)
		}
	}
	return handed
}
