// Package log implements NR's shared log (§5.1): a circular buffer of update
// operations with a CAS-reserved tail, a completedTail for the read path
// (§5.3), and the lazy, synchronization-free entry-recycling scheme of §5.6.
//
// Indices are absolute (monotonically increasing); an entry's slot is the
// index modulo the buffer size, and its lap the index divided by it. Each
// cell is the op plus one word that the fill publishes with a single
// release store: the caller's 60-bit tag (core keeps an op's token there)
// under a 4-bit lap code, lap%15+1. The code is the paper's alternating
// wrap bit (§5.6) widened so that zero can mean "never filled", and it
// shares the tag's word, so a cell spends one word on bookkeeping.
//
// Two adjacent laps are all a reader must tell apart. A consumer (a
// replica's replayers, a follower) reads the index i its own localTail
// names and advances past it only afterwards. Reusing i's slot for i+size
// waits for logMin, the minimum of every registered localTail, to pass i,
// and the reader's own tail is still i, so the slot cannot hold a later
// lap. Index i-size lies below the reader's tail, so it was filled, and i
// could be reserved only after every tail had passed i-size, so nothing
// older is left in the slot. The slot therefore holds i's word or
// i-size's (zero on lap 0), and adjacent laps never share a code.
package log

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// cacheLine keeps hot counters on separate lines.
type cacheLine = [64]byte

// entry is one log cell: the op and its word, deliberately unpadded
// (TestEntryLayout). A combiner fills a run of consecutive cells, so only
// a batch's boundary cell can share a line with another combiner's batch,
// and none does where a cell is one line: a 56-byte op's 64-byte cell in a
// log of 512 or more, which the allocator page-aligns (DESIGN.md §5b).
type entry[O any] struct {
	op   O
	word atomic.Uint64 // lap code << lapShift | tag once filled, 0 before
}

// lapShift places a cell's lap code above its 60-bit tag.
const lapShift = 60

// tagMask selects a cell word's tag.
const tagMask = 1<<lapShift - 1

// lapCodes is the lap code's period: lap L is coded L%lapCodes+1, so codes
// run from 1 to 15 in the word's top 4 bits and 0 is never a filled
// cell's.
const lapCodes = 15

// cell returns idx's cell and the lap code a fill of idx stores, shifted
// into place.
func (l *Log[O]) cell(idx uint64) (*entry[O], uint64) {
	lap := idx / l.size
	return &l.entries[idx-lap*l.size], (lap%lapCodes + 1) << lapShift
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
		if start, _, ok := l.TryReserve(n); ok {
			return start
		}
		runtime.Gosched()
	}
}

// TryReserve attempts to allocate n consecutive entries without blocking,
// and reports how many tail-CAS attempts lost to a concurrent reserver
// before the outcome. It returns ok false when the log has no space, after
// helping recompute logMin; the caller should consume entries (advancing
// its replica's localTail) and retry. The tail CAS is the only cross-node
// contention point of the update path (§5.1), so casRetries is the direct
// signal of inter-node append pressure. (The tail CAS retry does not
// yield: it is a deliberate tight loop — backing off would cede the
// reservation to the other node every time.)
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
// Readers that arrive late see the lap code mismatch and treat the entry
// as empty rather than reading a torn op.
func (l *Log[O]) TryReserve(n int) (start uint64, casRetries int, ok bool) {
	if n < 1 || uint64(n) > l.maxBatch {
		panic(fmt.Sprintf("log: reservation of %d outside [1, %d]", n, l.maxBatch))
	}
	for {
		start = l.tail.Load()
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

// Fill publishes op at absolute index idx with tag 0; see FillTagged.
func (l *Log[O]) Fill(idx uint64, op O) { l.FillTagged(idx, &op, 0) }

// FillTagged publishes a copy of *op and tag at absolute index idx. The
// entry must have been reserved by the caller, and tag must fit in 60 bits.
// The store of the word that carries tag and idx's lap code is the
// linearization of the append: readers treat a cell without idx's lap code
// as empty.
func (l *Log[O]) FillTagged(idx uint64, op *O, tag uint64) {
	if tag > tagMask {
		panic(fmt.Sprintf("log: tag %#x wider than 60 bits", tag))
	}
	e, code := l.cell(idx)
	e.op = *op
	e.word.Store(code | tag)
}

// Get returns a copy of the operation at absolute index idx if it has been
// filled; see GetTagged.
func (l *Log[O]) Get(idx uint64) (O, bool) {
	op, _, ok := l.GetTagged(idx)
	if !ok {
		var zero O
		return zero, false
	}
	return *op, true
}

// GetTagged returns the operation, in place in its cell, and the tag at
// absolute index idx if it has been filled. A false return (and a nil op)
// means the entry is reserved but not yet written (a "hole"), or still
// holds the previous lap's op. The op is the cell's own: it stays idx's
// until the caller's own tail (its replica's, or its follower's) passes
// idx, because the slot is reused only after every tail has; so the caller
// must be done with it before it advances that tail.
func (l *Log[O]) GetTagged(idx uint64) (*O, uint64, bool) {
	e, code := l.cell(idx)
	w := e.word.Load()
	if w&^tagMask != code {
		return nil, 0, false
	}
	return &e.op, w & tagMask, true
}

// holeSpinLoads bounds the word loads spent on a hole before the first
// scheduler yield. Nothing sits between a combiner's reserve and its Fill,
// so a hole normally closes within a few stores; yielding at once would pay
// a scheduler round trip for it. Past the bound the filler is taken to be
// preempted, and only a yield can let it run.
const holeSpinLoads = 256

// WaitGet spins until the entry at idx is filled, then returns its op, in
// place in its cell and valid until the caller's own tail passes idx (see
// GetTagged), its tag, and how many scheduler yields it spent on the
// reserved-but-unfilled entry (the bounded spin before the first yield is
// not counted).
// Combiners must wait for holes preceding their batch (§5.1), and hole
// waits are the log-side stall signal there (a combiner preempted between
// reserve and fill blocks every replayer behind it), so the flight
// recorder tags them with the yield count.
func (l *Log[O]) WaitGet(idx uint64) (op *O, tag uint64, spins int) {
	e, code := l.cell(idx)
	w := e.word.Load()
	for n := 0; w&^tagMask != code; n++ {
		if n >= holeSpinLoads {
			spins++
			runtime.Gosched()
		}
		w = e.word.Load()
	}
	return &e.op, w & tagMask, spins
}

// MemoryBytes returns the bytes of the log's cells: Size() times one cell,
// the op plus the 8-byte word that carries its tag and lap code.
func (l *Log[O]) MemoryBytes() uint64 {
	var e entry[O]
	return l.size * uint64(unsafe.Sizeof(e))
}
