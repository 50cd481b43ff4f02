// Package log implements NR's shared log (§5.1): a circular buffer of update
// operations with a CAS-reserved tail, a completedTail for the read path
// (§5.3), and the lazy, synchronization-free entry-recycling scheme of §5.6.
//
// Indices are absolute (monotonically increasing); an entry's slot is the
// index modulo the buffer size. Instead of the paper's alternating wrap bit,
// each entry publishes the absolute index it holds (index+1, so zero means
// never written). This is semantically the same freshness check with the
// same single-word cost per entry, but immune to ABA across multiple
// wrap-arounds and much easier to reason about.
package log

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// cacheLine keeps hot counters on separate lines.
type cacheLine = [64]byte

// entry is one log cell: the op and its marker, deliberately unpadded
// (TestEntryLayout). A combiner fills a run of consecutive cells, so only
// a batch's boundary cell can share a line with another combiner's batch
// (DESIGN.md §5b).
type entry[O any] struct {
	op     O
	marker atomic.Uint64 // absolute index + 1 once filled
}

// Log is the shared circular buffer. It is written by at most one combiner
// per node concurrently and read by every node's replayers.
type Log[O any] struct {
	entries  []entry[O]
	size     uint64
	maxBatch uint64

	// tail, completed and min each own a cache line (TestLogLayout).
	_         cacheLine
	tail      atomic.Uint64 // next unreserved absolute index (logTail)
	_         cacheLine
	completed atomic.Uint64 // no completed ops at or after this index (completedTail)
	_         cacheLine
	min       atomic.Uint64 // last known smallest localTail (logMin)
	_         cacheLine

	localTails []*atomic.Uint64 // one per registered replica
}

// New returns a log with the given number of entries. maxBatch bounds a
// single reservation and positions the recycling low mark; it is typically
// the number of threads per node.
func New[O any](size, maxBatch int) (*Log[O], error) {
	if size < 2 {
		return nil, fmt.Errorf("log: size must be >= 2, got %d", size)
	}
	if maxBatch < 1 || maxBatch > size/2 {
		return nil, fmt.Errorf("log: maxBatch must be in [1, size/2], got %d (size %d)", maxBatch, size)
	}
	return &Log[O]{
		entries:  make([]entry[O], size),
		size:     uint64(size),
		maxBatch: uint64(maxBatch),
	}, nil
}

// Size returns the number of entries in the buffer.
func (l *Log[O]) Size() int { return len(l.entries) }

// paddedTail is one localTail with a whole line on either side: each
// replica's readers load its tail and its replayers store it, so no other
// consumer's tail (nor any other heap object) may share its line, wherever
// the allocator puts it.
type paddedTail struct {
	_ cacheLine
	v atomic.Uint64
	_ cacheLine
}

// RegisterReplica adds a replica and returns its localTail counter, alone
// on its cache line. The replica must advance the counter past an index
// only after it has applied the operation there; the recycler uses the
// minimum across replicas to decide which entries are free. Registration
// must complete before any reservation; it is not safe concurrently with
// appends.
func (l *Log[O]) RegisterReplica() *atomic.Uint64 {
	t := &new(paddedTail).v
	l.localTails = append(l.localTails, t)
	return t
}

// Replicas returns the number of registered replicas.
func (l *Log[O]) Replicas() int { return len(l.localTails) }

// Tail returns the current logTail (first unreserved index).
func (l *Log[O]) Tail() uint64 { return l.tail.Load() }

// Completed returns completedTail: no operation at or after this index had
// completed when the value was read (§5.3).
func (l *Log[O]) Completed() uint64 { return l.completed.Load() }

// AdvanceCompleted raises completedTail to 'to' unless it is already there
// (Algorithm 1 lines 30-31: repeat CAS until success or overtaken).
func (l *Log[O]) AdvanceCompleted(to uint64) {
	for {
		cur := l.completed.Load()
		if to <= cur || l.completed.CompareAndSwap(cur, to) {
			return
		}
	}
}

// refreshMin recomputes logMin as the smallest replica localTail (§5.6).
func (l *Log[O]) refreshMin() {
	if len(l.localTails) == 0 {
		return
	}
	min := l.localTails[0].Load()
	for _, t := range l.localTails[1:] {
		if v := t.Load(); v < min {
			min = v
		}
	}
	// min only moves forward; a stale CAS loser is fine because every path
	// that needs space re-checks.
	for {
		cur := l.min.Load()
		if min <= cur || l.min.CompareAndSwap(cur, min) {
			return
		}
	}
}

// Reserve allocates n consecutive entries and returns the first absolute
// index. It implements the low-mark recycling protocol: the reservation that
// crosses the low mark refreshes logMin; reservations that would overrun the
// free space wait for logMin to advance (threads "pause until older entries
// are consumed", §6).
//
// Reserve must not be called by a registered replica's only consumer: if the
// log is full because that replica lags, waiting here deadlocks. Combiners
// use TryReserve and consume entries into their own replica between
// attempts.
func (l *Log[O]) Reserve(n int) uint64 {
	for {
		if start, ok := l.TryReserve(n); ok {
			return start
		}
		runtime.Gosched()
	}
}

// TryReserve attempts to allocate n consecutive entries without blocking.
// It returns false when the log has no space, after helping recompute
// logMin; the caller should consume entries (advancing its replica's
// localTail) and retry.
func (l *Log[O]) TryReserve(n int) (uint64, bool) {
	start, _, ok := l.TryReserveObserved(n)
	return start, ok
}

// TryReserveObserved is TryReserve, additionally reporting how many
// tail-CAS attempts lost to a concurrent reserver before the outcome. The
// tail CAS is the only cross-node contention point of the update path
// (§5.1), so casRetries is the direct signal of inter-node append pressure.
// (The tail CAS retry does not yield: it is a deliberate tight loop —
// backing off would cede the reservation to the other node every time.)
//
// Wraparound audit (pinned by wrap_test.go): the space check and the tail
// CAS read `start` from the same load, so a successful CAS proves the
// check covered exactly the reserved interval [start, start+n); logMin is
// monotone (refreshMin only CASes forward), so space observed free cannot
// be retracted between check and CAS. Recycling an entry cannot race a
// straggling replayer's read of the previous lap's op: the replayer
// advances its localTail (release) only after reading, the reserver
// observes it via refreshMin before the check passes, and Fill's plain
// `e.op` store is therefore ordered after every read of the old value.
// Readers that arrive late see the marker mismatch and treat the entry as
// empty rather than reading a torn op.
func (l *Log[O]) TryReserveObserved(n int) (start uint64, casRetries int, ok bool) {
	if n < 1 || uint64(n) > l.maxBatch {
		panic(fmt.Sprintf("log: reservation of %d outside [1, %d]", n, l.maxBatch))
	}
	for {
		start := l.tail.Load()
		if start+uint64(n) > l.min.Load()+l.size {
			// Out of space: help recompute logMin, then report to caller.
			l.refreshMin()
			if start+uint64(n) > l.min.Load()+l.size {
				return 0, casRetries, false
			}
			continue
		}
		if l.tail.CompareAndSwap(start, start+uint64(n)) {
			// Crossing the low mark makes this thread the designated
			// logMin refresher for this lap (§5.6).
			lowMark := l.min.Load() + l.size - l.maxBatch
			if start <= lowMark && lowMark < start+uint64(n) {
				l.refreshMin()
			}
			return start, casRetries, true
		}
		casRetries++
	}
}

// MinLocalTail recomputes logMin from the registered replicas' localTails and
// returns it: every entry below this index has been applied by every replica.
// NR's failure bookkeeping uses it to retire per-entry panic records.
func (l *Log[O]) MinLocalTail() uint64 {
	l.refreshMin()
	return l.min.Load()
}

// Fill publishes op at absolute index idx. The entry must have been reserved
// by the caller. The marker store is the linearization of the append: readers
// treat an unmarked entry as empty.
func (l *Log[O]) Fill(idx uint64, op O) {
	e := &l.entries[idx%l.size]
	e.op = op
	e.marker.Store(idx + 1)
}

// Get returns the operation at absolute index idx if it has been filled.
// A false return means the entry is reserved but not yet written (a "hole"),
// or recycled for a later lap.
func (l *Log[O]) Get(idx uint64) (O, bool) {
	e := &l.entries[idx%l.size]
	if e.marker.Load() != idx+1 {
		var zero O
		return zero, false
	}
	return e.op, true
}

// WaitGet spins until the entry at idx is filled, then returns it. Combiners
// must wait for holes preceding their batch (§5.1).
func (l *Log[O]) WaitGet(idx uint64) O {
	op, _ := l.WaitGetObserved(idx)
	return op
}

// holeSpinLoads bounds the marker loads spent on a hole before the first
// scheduler yield. Nothing sits between a combiner's reserve and its Fill,
// so a hole normally closes within a few stores; yielding at once would pay
// a scheduler round trip for it. Past the bound the filler is taken to be
// preempted, and only a yield can let it run.
const holeSpinLoads = 256

// WaitGetObserved is WaitGet, additionally reporting how many scheduler
// yields were spent waiting on a reserved-but-unfilled entry (the bounded
// spin before the first yield is not counted). Hole waits are the log-side
// stall signal of §5.1 (a combiner preempted between reserve and fill
// blocks every replayer behind it), so the flight recorder tags them with
// the yield count.
func (l *Log[O]) WaitGetObserved(idx uint64) (O, int) {
	e := &l.entries[idx%l.size]
	spins := 0
	for n := 0; e.marker.Load() != idx+1; n++ {
		if n >= holeSpinLoads {
			spins++
			runtime.Gosched()
		}
	}
	return e.op, spins
}

// MemoryBytes returns the bytes of the log's cells: Size() times one cell,
// the op plus its 8-byte marker.
func (l *Log[O]) MemoryBytes() uint64 {
	var e entry[O]
	return l.size * uint64(unsafe.Sizeof(e))
}
