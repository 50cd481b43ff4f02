// Package sim is a deterministic discrete-event simulator of a NUMA machine,
// built so the paper's 112-thread evaluation can be reproduced on any host.
// This is the substitution for the authors' 4-socket Xeon testbed: what the
// figures measure is the relative cost of intra- versus inter-node cache-line
// movement under each synchronization method, and that is exactly what this
// engine models.
//
// Threads are goroutines driven one at a time by a virtual-time scheduler
// (a single control token moves between them), so execution is sequential
// and deterministic while the algorithm models stay ordinary imperative
// code. Shared memory is a set of cache lines with MESI-flavoured state
// (owner node + sharer set); every Read/Write/CAS charges virtual
// nanoseconds according to whether the line is node-local or must cross the
// interconnect. Blocking primitives park threads on a line and wake them on
// stores, so spinning costs model time, not host time.
package sim

import (
	"container/heap"
	"fmt"

	"github.com/asplos17/nr/internal/topology"
)

// CostModel holds the virtual-time costs in nanoseconds.
type CostModel struct {
	// SameCore is an access to a line this core already owns (L1/L2 hit).
	SameCore uint64
	// SameNode is an access served within the node (shared L3, cross-core
	// coherence inside one socket).
	SameNode uint64
	// Remote is an access that crosses the interconnect.
	Remote uint64
	// Stream is the amortized cost of a prefetched sequential remote read
	// (log replay); it neither pays full demand latency nor serializes.
	Stream uint64
	// CASExtra is the additional cost of an atomic read-modify-write.
	CASExtra uint64
	// Mem is the cost of a DRAM access on an L3 capacity miss.
	Mem uint64
	// L3Lines is the per-node last-level cache capacity in cache lines;
	// when the allocated working set exceeds it, that fraction of would-be
	// cache hits pays Mem instead (the §8.2.3 size cliff). Zero disables
	// capacity modelling.
	L3Lines int
	// DirectoryMissPermille, when nonzero, models an incomplete cache
	// directory (the paper's AMD machine, §8.4): that fraction of node-local
	// accesses still pays the remote cost because the coherence protocol
	// broadcasts off-node.
	DirectoryMissPermille uint64
}

// IntelCosts approximates the paper's 4×14×2 Xeon (§8): a few ns in the
// core's own cache, ~25ns within a socket's L3, ~100ns across QPI.
func IntelCosts() CostModel {
	// 35 MB shared L3 per socket / 64-byte lines ≈ 573K lines.
	return CostModel{SameCore: 4, SameNode: 25, Remote: 100, Stream: 30, CASExtra: 15,
		Mem: 90, L3Lines: 573000}
}

// AMDCosts approximates the paper's 8×6 Magny-Cours (§8.4): slower overall
// and with an incomplete directory that leaks node-local traffic off-node.
func AMDCosts() CostModel {
	// 10 MB L3 per socket ≈ 163K lines.
	return CostModel{SameCore: 6, SameNode: 40, Remote: 130, Stream: 45, CASExtra: 20,
		Mem: 110, L3Lines: 163000, DirectoryMissPermille: 350}
}

// Addr names one simulated cache line.
type Addr int32

// line is one cache line: a 64-bit payload plus coherence state. Ownership
// is tracked at core granularity, sharing at node granularity.
type line struct {
	val       uint64
	ownerCore int32  // core holding the line in modified state; -1 = clean
	ownerNode int16  // node of ownerCore; -1 = clean
	sharers   uint32 // bitmask of nodes with a shared copy
	// availableAt serializes ownership transfers: a contended line is a
	// serial resource — at most one transfer can be in flight — which is
	// what makes hot CAS lines a system-wide bottleneck on real machines.
	availableAt uint64
}

// waiter is a thread parked on a line until pred holds.
type waiter struct {
	t    *Thread
	pred func(uint64) bool
}

// Thread is one simulated hardware thread. Model code receives a *Thread
// and calls the Sim methods with it; a Thread must only be used from the
// function the scheduler started it in.
type Thread struct {
	ID    int
	Node  int
	Core  int // physical core (SMT siblings share one)
	clock uint64
	sim   *Sim

	resume  chan struct{}
	heapIdx int // position in the ready heap, -1 if not queued
	Ops     uint64
	rng     uint64
}

// Clock returns the thread's virtual time in nanoseconds.
func (t *Thread) Clock() uint64 { return t.clock }

// Rand returns a deterministic per-thread pseudo-random value.
func (t *Thread) Rand() uint64 {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	return t.rng * 0x2545f4914f6cdd1d
}

// Sim is the machine: memory, scheduler, and cost model.
type Sim struct {
	topo    topology.Topology
	cost    CostModel
	lines   []line
	ready   readyHeap
	threads []*Thread
	waiters map[Addr][]waiter
	alive   int
	done    chan struct{}
	missRng uint64
	fault   any // panic payload from a model, rethrown in Run

	capMissPermille uint64 // computed from L3Lines vs allocated lines
	replicaLines    []int  // lines AllocReplica charged to each node
}

// New returns a simulator for the given machine.
func New(topo topology.Topology, cost CostModel) *Sim {
	return &Sim{
		topo:         topo,
		cost:         cost,
		replicaLines: make([]int, topo.Nodes()),
		waiters:      make(map[Addr][]waiter),
		done:         make(chan struct{}),
		missRng:      0x9e3779b97f4a7c15,
	}
}

// Topology returns the simulated machine shape.
func (s *Sim) Topology() topology.Topology { return s.topo }

// Alloc reserves n fresh cache lines and returns the first address.
// Call before Run.
func (s *Sim) Alloc(n int) Addr {
	base := len(s.lines)
	for i := 0; i < n; i++ {
		s.lines = append(s.lines, line{ownerCore: -1, ownerNode: -1})
	}
	return Addr(base)
}

// AllocReplica is Alloc for lines that only node's threads touch, such as
// NR's per-node replica: they count toward node's L3 footprint alone, where
// Alloc's shared lines count toward every node's.
func (s *Sim) AllocReplica(node, n int) Addr {
	s.replicaLines[node] += n
	return s.Alloc(n)
}

// Run starts one goroutine per body under the fill placement and drives
// them in virtual-time order until all return. It returns the largest
// virtual clock reached. Run panics if the models deadlock (all threads
// parked) or if a model panics.
func (s *Sim) Run(bodies []func(t *Thread)) uint64 {
	if len(bodies) == 0 {
		return 0
	}
	if len(bodies) > s.topo.TotalThreads() {
		panic(fmt.Sprintf("sim: %d threads exceed topology capacity %d", len(bodies), s.topo.TotalThreads()))
	}
	// Working set vs per-node L3: beyond capacity, that fraction of cache
	// hits becomes DRAM accesses. A node's working set is every shared line
	// plus its own replica lines; the largest one sets the miss rate.
	if s.cost.L3Lines > 0 {
		shared, own := len(s.lines), 0
		for _, n := range s.replicaLines {
			shared -= n
			own = max(own, n)
		}
		perNode := shared + own
		if perNode > s.cost.L3Lines {
			s.capMissPermille = uint64(1000 - 1000*s.cost.L3Lines/perNode)
		} else {
			s.capMissPermille = 0
		}
	}
	s.threads = nil
	s.alive = len(bodies)
	place := topology.NewFillPlacement(s.topo)
	for i, body := range bodies {
		thread, node := place.Next()
		t := &Thread{
			ID: i, Node: node, Core: thread / s.topo.SMT(), sim: s,
			resume:  make(chan struct{}),
			heapIdx: -1,
			rng:     uint64(i)*0x9e3779b97f4a7c15 + 1,
		}
		s.threads = append(s.threads, t)
		go func(t *Thread, body func(*Thread)) {
			<-t.resume
			defer func() {
				if r := recover(); r != nil {
					s.fault = r
					close(s.done)
					return
				}
				s.exit(t)
			}()
			body(t)
		}(t, body)
	}
	for _, t := range s.threads {
		heap.Push(&s.ready, t)
	}
	s.dispatchNext()
	<-s.done
	if s.fault != nil {
		panic(s.fault)
	}
	var max uint64
	for _, t := range s.threads {
		if t.clock > max {
			max = t.clock
		}
	}
	return max
}

// dispatchNext hands the control token to the minimum-clock ready thread.
// Called when no thread is running.
func (s *Sim) dispatchNext() {
	if s.ready.Len() == 0 {
		if s.alive > 0 {
			panic(fmt.Sprintf("sim: deadlock — %d threads parked with empty ready queue", s.alive))
		}
		close(s.done)
		return
	}
	next := heap.Pop(&s.ready).(*Thread)
	next.resume <- struct{}{}
}

// exit retires a finished thread and passes the token on.
func (s *Sim) exit(t *Thread) {
	s.alive--
	s.dispatchNext()
}

// sync pauses t until it holds the globally minimal clock, ensuring shared
// state is touched in virtual-time order.
func (s *Sim) sync(t *Thread) {
	for s.ready.Len() > 0 {
		min := s.ready.Peek()
		if min.clock > t.clock || (min.clock == t.clock && min.ID > t.ID) {
			return
		}
		// Another thread is earlier: run it first.
		heap.Push(&s.ready, t)
		s.dispatchNext()
		<-t.resume
	}
}

// chargeAccess computes and applies the coherence cost of an access by t.
func (s *Sim) chargeAccess(t *Thread, a Addr, write, cas bool) {
	ln := &s.lines[a]
	bit := uint32(1) << uint(t.Node)
	var c uint64
	if write {
		switch {
		case ln.ownerCore == int32(t.Core) && ln.sharers&^bit == 0:
			// Exclusive in our core's cache.
			c = s.cost.SameCore
		case (ln.ownerNode == int16(t.Node) || ln.ownerNode < 0) && ln.sharers&^bit == 0:
			// Owned within our node (or clean); cross-core upgrade.
			c = s.cost.SameNode
		default:
			// Copies on other nodes must be invalidated.
			c = s.cost.Remote
		}
		ln.ownerCore = int32(t.Core)
		ln.ownerNode = int16(t.Node)
		ln.sharers = bit
	} else {
		switch {
		case ln.ownerCore == int32(t.Core):
			c = s.cost.SameCore
		case ln.ownerNode == int16(t.Node) || ln.sharers&bit != 0 || ln.ownerNode < 0:
			c = s.cost.SameNode
		default:
			c = s.cost.Remote
		}
		ln.sharers |= bit
	}
	if cas {
		c += s.cost.CASExtra
	}
	if s.capMissPermille > 0 && c <= s.cost.SameNode {
		// L3 capacity miss: the line was evicted; fetch from local DRAM.
		s.missRng ^= s.missRng << 13
		s.missRng ^= s.missRng >> 7
		s.missRng ^= s.missRng << 17
		if s.missRng%1000 < s.capMissPermille {
			c = s.cost.Mem
		}
	}
	if s.cost.DirectoryMissPermille > 0 && c < s.cost.Remote {
		s.missRng ^= s.missRng << 13
		s.missRng ^= s.missRng >> 7
		s.missRng ^= s.missRng << 17
		if s.missRng%1000 < s.cost.DirectoryMissPermille {
			c = s.cost.Remote
		}
	}
	// Ownership transfers (all writes/CAS beyond the core's own cache, and
	// reads that must fetch from a remote owner) serialize on the line;
	// other non-resident accesses stall behind an in-flight transfer but do
	// not extend the line's busy window (shared copies are served in
	// parallel once the transfer lands).
	transfer := c > s.cost.SameCore && (write || cas || c == s.cost.Remote)
	if transfer {
		if ln.availableAt > t.clock {
			t.clock = ln.availableAt
		}
		t.clock += c
		ln.availableAt = t.clock
	} else {
		if c > s.cost.SameCore && ln.availableAt > t.clock {
			t.clock = ln.availableAt
		}
		t.clock += c
	}
}

// Read loads the value at a, charging coherence cost.
func (s *Sim) Read(t *Thread, a Addr) uint64 {
	s.sync(t)
	s.chargeAccess(t, a, false, false)
	return s.lines[a].val
}

// ReadStream loads the value at a as part of a sequential scan (log
// replay): remote fetches are prefetched and pipelined, so they cost the
// stream rate and do not serialize on the line the way demand misses do.
func (s *Sim) ReadStream(t *Thread, a Addr) uint64 {
	s.sync(t)
	ln := &s.lines[a]
	bit := uint32(1) << uint(t.Node)
	switch {
	case ln.ownerCore == int32(t.Core):
		t.clock += s.cost.SameCore
	case ln.ownerNode == int16(t.Node) || ln.sharers&bit != 0 || ln.ownerNode < 0:
		t.clock += s.cost.SameNode
	default:
		t.clock += s.cost.Stream
	}
	ln.sharers |= bit
	return ln.val
}

// Write stores v at a, charging coherence cost and waking satisfied waiters.
func (s *Sim) Write(t *Thread, a Addr, v uint64) {
	s.sync(t)
	s.chargeAccess(t, a, true, false)
	s.lines[a].val = v
	s.wake(t, a, v)
}

// CAS atomically replaces old with new at a, reporting success. A CAS whose
// expected value is already stale fails early — the coherence protocol
// answers from the (possibly shared) current copy without granting
// exclusive ownership — so failures cost a node-level access and do not
// occupy the line; only successful CAS pays the full serialized transfer.
func (s *Sim) CAS(t *Thread, a Addr, old, new uint64) bool {
	s.sync(t)
	if s.lines[a].val != old {
		t.clock += s.cost.SameNode + s.cost.CASExtra
		return false
	}
	s.chargeAccess(t, a, true, true)
	s.lines[a].val = new
	s.wake(t, a, new)
	return true
}

// Add atomically adds delta at a and returns the new value.
func (s *Sim) Add(t *Thread, a Addr, delta uint64) uint64 {
	s.sync(t)
	s.chargeAccess(t, a, true, true)
	s.lines[a].val += delta
	s.wake(t, a, s.lines[a].val)
	return s.lines[a].val
}

// Compute advances t's clock by ns of purely local work.
func (s *Sim) Compute(t *Thread, ns uint64) {
	t.clock += ns
}

// WaitUntil parks t until the value at a satisfies pred. The check itself
// costs a read; each wake-up costs another read (the waiter re-fetches the
// line after the writer invalidated it).
func (s *Sim) WaitUntil(t *Thread, a Addr, pred func(uint64) bool) uint64 {
	for {
		v := s.Read(t, a)
		if pred(v) {
			return v
		}
		// Park until a store to a satisfies pred.
		s.waiters[a] = append(s.waiters[a], waiter{t: t, pred: pred})
		s.dispatchNext()
		<-t.resume
	}
}

// wake moves satisfied waiters of a to the ready queue. The waiter resumes
// no earlier than the writer's clock (it observes the new value).
func (s *Sim) wake(writer *Thread, a Addr, v uint64) {
	ws := s.waiters[a]
	if len(ws) == 0 {
		return
	}
	var still []waiter
	for _, w := range ws {
		if w.pred(v) {
			if w.t.clock < writer.clock {
				w.t.clock = writer.clock
			}
			heap.Push(&s.ready, w.t)
		} else {
			still = append(still, w)
		}
	}
	if len(still) == 0 {
		delete(s.waiters, a)
	} else {
		s.waiters[a] = still
	}
}

// readyHeap orders threads by (clock, ID).
type readyHeap struct {
	items []*Thread
}

func (h *readyHeap) Len() int { return len(h.items) }
func (h *readyHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.clock != b.clock {
		return a.clock < b.clock
	}
	return a.ID < b.ID
}
func (h *readyHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].heapIdx = i
	h.items[j].heapIdx = j
}
func (h *readyHeap) Push(x any) {
	t := x.(*Thread)
	t.heapIdx = len(h.items)
	h.items = append(h.items, t)
}
func (h *readyHeap) Pop() any {
	t := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	t.heapIdx = -1
	return t
}
func (h *readyHeap) Peek() *Thread { return h.items[0] }
