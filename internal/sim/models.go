package sim

// Method models: each of the paper's methods (Fig. 4) plus NR, expressed as
// closed-loop threads over the simulated machine. A model performs the same
// cache-line traffic pattern as the real algorithm — which lock lines it
// touches, which slots it scans, which log entries it reads across the
// interconnect — while the sequential work of the wrapped data structure is
// charged as compute time plus line accesses described by a Profile.

// Profile describes the data structure being made concurrent, in simulator
// terms (§8.2's parameters generalize all the real structures).
type Profile struct {
	// NLines is the structure's size in cache lines (parameter n).
	NLines int
	// UpdateCLines is the number of lines an update touches, including the
	// contended line 0 (parameter c).
	UpdateCLines int
	// ReadCLines is the number of lines a read touches (1 for findMin).
	ReadCLines int
	// UpdateNs / ReadNs are the sequential compute costs beyond line traffic.
	UpdateNs, ReadNs uint64
	// UpdateHotPermille / ReadHotPermille are the fractions of updates and
	// reads whose access path concentrates on the structure's hot set
	// (≈383 for zipf(1.5) keys; 1000 for findMin/deleteMin on a priority
	// queue; 0 for uniform keys). They drive CAS contention in the
	// lock-free model and invalidation traffic everywhere else.
	UpdateHotPermille int
	ReadHotPermille   int
	// HotLines is the size of the hot set in cache lines: 1-2 for a stack
	// top or priority-queue head, ~8 for a zipfian key neighbourhood.
	// Zero means 1.
	HotLines int
	// HotPathLines is how many of a hot operation's line accesses land in
	// the hot set (the tail of the search path); the remainder spread over
	// the whole structure. Zero means the entire access path is hot.
	HotPathLines int
	// LFWriteLines is how many path lines a successful lock-free update
	// writes beyond its linearizing CAS (tower link/unlink traffic).
	// Zero means 2.
	LFWriteLines int
}

func (p Profile) lfWriteLines() int {
	if p.LFWriteLines <= 0 {
		return 2
	}
	return p.LFWriteLines
}

// hotSet returns the profile's hot-set size.
func (p Profile) hotSet() uint64 {
	if p.HotLines < 1 {
		return 1
	}
	return uint64(p.HotLines)
}

// Run describes one benchmark execution.
type Run struct {
	Threads        int
	OpsPerThread   int
	UpdatePermille int
	// ExternalWorkNs is the cache-polluting work between operations
	// (parameter e, converted to nanoseconds).
	ExternalWorkNs uint64
}

// Result is the outcome of a simulated run.
type Result struct {
	Ops     uint64
	Nanos   uint64
	FailCAS uint64
}

// OpsPerUs returns throughput in operations per microsecond, the paper's
// reported unit.
func (r Result) OpsPerUs() float64 {
	if r.Nanos == 0 {
		return 0
	}
	return float64(r.Ops) * 1000 / float64(r.Nanos)
}

// opPick decides the next op kind and whether it targets the hot set.
func opPick(t *Thread, p Profile, updatePermille int) (update, hot bool) {
	update = int(t.Rand()%1000) < updatePermille
	permille := p.ReadHotPermille
	if update {
		permille = p.UpdateHotPermille
	}
	hot = permille > 0 && int(t.Rand()%1000) < permille
	return update, hot
}

// pickLine chooses the k-th line of an operation's access path: hot
// operations land their first HotPathLines accesses in the hot set (which
// updates keep invalidating) and the rest across the whole structure.
func pickLine(t *Thread, p Profile, hot bool, k int) Addr {
	if hot && (p.HotPathLines == 0 || k <= p.HotPathLines) {
		return Addr(t.Rand() % p.hotSet())
	}
	return Addr(1 + t.Rand()%uint64(max(p.NLines-1, 1)))
}

// computeCost returns the sequential-work cost: operations on hot keys run
// on cache-resident data and cost half (the locality effect §8.1.3 credits
// for NR under contention — it applies to any method's sequential work).
func computeCost(ns uint64, hot bool) uint64 {
	if hot {
		return ns / 2
	}
	return ns
}

// applyShared performs one operation's line traffic on a shared structure
// whose lines start at base (line 0 is the contended entry).
func applyShared(s *Sim, t *Thread, base Addr, p Profile, update, hot bool) {
	if update {
		s.Write(t, base, 1)
		for k := 1; k < p.UpdateCLines; k++ {
			s.Write(t, base+pickLine(t, p, hot, k), 1)
		}
		s.Compute(t, computeCost(p.UpdateNs, hot))
	} else {
		s.Read(t, base)
		for k := 1; k < p.ReadCLines; k++ {
			s.Read(t, base+pickLine(t, p, hot, k))
		}
		s.Compute(t, computeCost(p.ReadNs, hot))
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// hotFor draws the hot flag for an operation executed on another thread's
// behalf (combiners), matching the poster's distribution.
func hotFor(t *Thread, p Profile, update bool) bool {
	permille := p.ReadHotPermille
	if update {
		permille = p.UpdateHotPermille
	}
	return permille > 0 && int(t.Rand()%1000) < permille
}

// think models external work between operations.
func think(s *Sim, t *Thread, r Run) {
	if r.ExternalWorkNs > 0 {
		s.Compute(t, r.ExternalWorkNs)
	}
}

// --- SL: one big spinlock -------------------------------------------------

// RunSL simulates the SL baseline.
func RunSL(s *Sim, p Profile, r Run) Result {
	base := s.Alloc(p.NLines)
	lock := NewSpinLock(s)
	bodies := make([]func(*Thread), r.Threads)
	for i := range bodies {
		bodies[i] = func(t *Thread) {
			for n := 0; n < r.OpsPerThread; n++ {
				think(s, t, r)
				update, hot := opPick(t, p, r.UpdatePermille)
				lock.Lock(s, t)
				applyShared(s, t, base, p, update, hot)
				lock.Unlock(s, t)
				t.Ops++
			}
		}
	}
	total := s.Run(bodies)
	return Result{Ops: uint64(r.Threads * r.OpsPerThread), Nanos: total}
}

// --- RWL: one big readers-writer lock --------------------------------------

// RunRWL simulates the RWL baseline (distributed readers-writer lock, as in
// the paper).
func RunRWL(s *Sim, p Profile, r Run) Result {
	base := s.Alloc(p.NLines)
	lock := NewDistRWLock(s, r.Threads)
	bodies := make([]func(*Thread), r.Threads)
	for i := range bodies {
		slot := i
		bodies[i] = func(t *Thread) {
			for n := 0; n < r.OpsPerThread; n++ {
				think(s, t, r)
				update, hot := opPick(t, p, r.UpdatePermille)
				if update {
					lock.Lock(s, t)
					applyShared(s, t, base, p, true, hot)
					lock.Unlock(s, t)
				} else {
					lock.RLock(s, t, slot)
					applyShared(s, t, base, p, false, hot)
					lock.RUnlock(s, t, slot)
				}
				t.Ops++
			}
		}
	}
	total := s.Run(bodies)
	return Result{Ops: uint64(r.Threads * r.OpsPerThread), Nanos: total}
}

// --- FC / FC+: flat combining ----------------------------------------------

// fc slot states.
const (
	fcsEmpty uint64 = iota
	fcsPostedUpdate
	fcsPostedRead
	fcsDone
)

// RunFC simulates flat combining; plus=true adds FC+'s readers-writer lock
// so reads bypass the combiner.
func RunFC(s *Sim, p Profile, r Run, plus bool) Result {
	base := s.Alloc(p.NLines)
	lock := NewSpinLock(s)
	var rw DistRWLock
	if plus {
		rw = NewDistRWLock(s, r.Threads)
	}
	slots := make([]Addr, r.Threads)
	for i := range slots {
		slots[i] = s.Alloc(1)
	}
	combineRound := func(t *Thread) {
		if plus {
			rw.Lock(s, t)
		}
		for _, sl := range slots {
			v := s.Read(t, sl) // the global combiner scans every thread's slot
			if v == fcsPostedUpdate || v == fcsPostedRead {
				hot := hotFor(t, p, v == fcsPostedUpdate)
				applyShared(s, t, base, p, v == fcsPostedUpdate, hot)
				s.Write(t, sl, fcsDone)
			}
		}
		if plus {
			rw.Unlock(s, t)
		}
	}
	bodies := make([]func(*Thread), r.Threads)
	for i := range bodies {
		idx := i
		bodies[i] = func(t *Thread) {
			mySlot := slots[idx]
			for n := 0; n < r.OpsPerThread; n++ {
				think(s, t, r)
				update, hot := opPick(t, p, r.UpdatePermille)
				if plus && !update {
					rw.RLock(s, t, idx)
					applyShared(s, t, base, p, false, hot)
					rw.RUnlock(s, t, idx)
					t.Ops++
					continue
				}
				post := fcsPostedUpdate
				if !update {
					post = fcsPostedRead
				}
				s.Write(t, mySlot, post)
				for {
					if s.Read(t, mySlot) == fcsDone {
						s.Write(t, mySlot, fcsEmpty)
						break
					}
					if lock.TryLock(s, t) {
						if s.Read(t, mySlot) != fcsDone {
							combineRound(t)
						}
						lock.Unlock(s, t)
						s.Write(t, mySlot, fcsEmpty)
						break
					}
					s.WaitUntil(t, lock.Line(), func(v uint64) bool { return v == 0 })
				}
				t.Ops++
			}
		}
	}
	total := s.Run(bodies)
	return Result{Ops: uint64(r.Threads * r.OpsPerThread), Nanos: total}
}

// --- LF: lock-free ----------------------------------------------------------

// RunLF simulates a lock-free structure: reads traverse without locks;
// updates read a target line's version and CAS it, retrying the whole
// operation on failure (the failed-CAS storm of §8.1.3 under zipf keys).
func RunLF(s *Sim, p Profile, r Run) Result {
	base := s.Alloc(p.NLines)
	var failTally [64]uint64
	bodies := make([]func(*Thread), r.Threads)
	for i := range bodies {
		idx := i
		bodies[i] = func(t *Thread) {
			for n := 0; n < r.OpsPerThread; n++ {
				think(s, t, r)
				update, hot := opPick(t, p, r.UpdatePermille)
				target := pickLine(t, p, hot, 1)
				// Every search starts at the structure's entry point (head /
				// top levels), which hot updates keep invalidating.
				if !update {
					s.Read(t, base)
					s.Read(t, base+target)
					for k := 2; k < p.ReadCLines; k++ {
						s.Read(t, base+pickLine(t, p, hot, k))
					}
					s.Compute(t, computeCost(p.ReadNs, hot))
					t.Ops++
					continue
				}
				// The search runs once from the entry point; a failed CAS
				// retries from the failure neighbourhood (one extra path
				// read per attempt), as lock-free deleteMin/insert do.
				s.Read(t, base)
				for k := 2; k < p.UpdateCLines; k++ {
					s.Read(t, base+pickLine(t, p, hot, k))
				}
				s.Compute(t, computeCost(p.UpdateNs, hot))
				for {
					v := s.Read(t, base+target)
					if s.CAS(t, base+target, v, v+1) {
						// Link/unlink the remaining levels: a skip-list
						// insert or delete writes several path lines.
						for k := 0; k < p.lfWriteLines(); k++ {
							s.Write(t, base+pickLine(t, p, hot, k+2), 1)
						}
						break
					}
					failTally[idx%64]++
					s.Read(t, base+pickLine(t, p, hot, 2))
				}
				t.Ops++
			}
		}
	}
	total := s.Run(bodies)
	var fails uint64
	for _, f := range failTally {
		fails += f
	}
	return Result{Ops: uint64(r.Threads * r.OpsPerThread), Nanos: total, FailCAS: fails}
}

// --- NA: NUMA-aware elimination stack ---------------------------------------

// naExchangerSlots is the size of each node's elimination array.
const naExchangerSlots = 8

// RunNA simulates the elimination stack: a fraction of operations eliminate
// against a same-node partner through the node's elimination array (two
// node-local accesses on one of several exchanger lines); the rest CAS the
// central stack's top line. With balanced push/pop traffic and many threads
// the elimination array absorbs most operations [17, 32].
func RunNA(s *Sim, p Profile, r Run, eliminatePermille int) Result {
	top := s.Alloc(1)
	exch := make([]Addr, s.topo.Nodes())
	for i := range exch {
		exch[i] = s.Alloc(naExchangerSlots)
	}
	bodies := make([]func(*Thread), r.Threads)
	for i := range bodies {
		bodies[i] = func(t *Thread) {
			for n := 0; n < r.OpsPerThread; n++ {
				think(s, t, r)
				if int(t.Rand()%1000) < eliminatePermille && r.Threads > 1 {
					// Exchange within the node: offer + take.
					slot := exch[t.Node] + Addr(t.Rand()%naExchangerSlots)
					s.Write(t, slot, t.Rand())
					s.Read(t, slot)
					s.Compute(t, p.UpdateNs)
				} else {
					// Central Treiber stack. Hardware arbitration hands the
					// line to one winner per transfer, so the sustained rate
					// of a CAS loop equals the line-transfer rate; model it
					// as one serialized read-modify-write.
					s.Add(t, top, 1)
					s.Compute(t, p.UpdateNs)
				}
				t.Ops++
			}
		}
	}
	total := s.Run(bodies)
	return Result{Ops: uint64(r.Threads * r.OpsPerThread), Nanos: total}
}

// --- NR: node replication ----------------------------------------------------

// NROpts carries the ablation switches (Fig. 13) into the NR model.
type NROpts struct {
	DisableCombining      bool // #1
	ReadWaitLogTail       bool // #2
	CombinedReplicaLock   bool // #3
	SerialReplicaUpdate   bool // #4
	CentralizedReaderLock bool // #5
}

// nr slot states.
const (
	nrsEmpty uint64 = iota
	nrsPosted
	nrsDone
)

const nrLogRing = 1 << 14

// RunNR simulates Node Replication with the given ablation options.
func RunNR(s *Sim, p Profile, r Run, o NROpts) Result {
	nodes := s.topo.Nodes()
	tpn := s.topo.ThreadsPerNode()

	logTail := s.Alloc(1)
	completed := s.Alloc(1)
	ring := s.Alloc(nrLogRing)

	replica := make([]Addr, nodes)
	localTail := make([]Addr, nodes)
	combiner := make([]SpinLock, nodes)
	refresher := make([]SpinLock, nodes)
	rw := make([]RWLock, nodes)
	slotOf := make([][]Addr, nodes)
	for n := 0; n < nodes; n++ {
		replica[n] = s.AllocReplica(n, p.NLines)
		localTail[n] = s.Alloc(1)
		combiner[n] = NewSpinLock(s)
		refresher[n] = NewSpinLock(s)
		if o.CentralizedReaderLock {
			rw[n] = NewCentralRWLock(s)
		} else {
			l := NewDistRWLock(s, tpn)
			rw[n] = &l
		}
		slotOf[n] = make([]Addr, tpn)
		for k := range slotOf[n] {
			slotOf[n][k] = s.Alloc(1)
		}
	}

	applyReplica := func(t *Thread, node int, update bool) {
		applyShared(s, t, replica[node], p, update, hotFor(t, p, update))
	}

	// replayTo replays log entries [lt, to) into node's replica, waiting out
	// holes, and returns the new local tail.
	replayTo := func(t *Thread, node int, lt, to uint64) uint64 {
		for idx := lt; idx < to; idx++ {
			a := ring + Addr(idx%nrLogRing)
			// Replay is a sequential scan over the log: prefetched, not a
			// demand miss per entry. Slot values are absolute indices, so a
			// value beyond ours means the ring lapped us — the entry was
			// written (and overwritten); only a smaller value is a hole.
			want := idx + 1
			if s.ReadStream(t, a) < want {
				s.WaitUntil(t, a, func(v uint64) bool { return v >= want })
			}
			applyReplica(t, node, true)
		}
		if to > lt {
			s.Write(t, localTail[node], to)
			return to
		}
		return lt
	}

	runCombine := func(t *Thread, node int, myIdx int) {
		// Scan the node's slots for posted operations (§5.2).
		var batch []Addr
		for _, sl := range slotOf[node][:nodeThreads(r.Threads, node, tpn)] {
			if s.Read(t, sl) == nrsPosted {
				batch = append(batch, sl)
			}
		}
		if len(batch) == 0 {
			return
		}
		// Reserve entries with a CAS on logTail (§5.1).
		var start uint64
		for {
			cur := s.Read(t, logTail)
			if s.CAS(t, logTail, cur, cur+uint64(len(batch))) {
				start = cur
				break
			}
		}
		end := start + uint64(len(batch))
		for k := range batch {
			s.Write(t, ring+Addr((start+uint64(k))%nrLogRing), start+uint64(k)+1)
		}
		if o.SerialReplicaUpdate {
			// Ablation #4: replicas update in series.
			if s.Read(t, completed) < start {
				s.WaitUntil(t, completed, func(v uint64) bool { return v >= start })
			}
		}
		if !o.CombinedReplicaLock {
			rw[node].Lock(s, t)
		}
		lt := s.Read(t, localTail[node])
		replayTo(t, node, lt, start)
		s.Write(t, localTail[node], end)
		for {
			c := s.Read(t, completed)
			if c >= end || s.CAS(t, completed, c, end) {
				break
			}
		}
		// Execute the batch from the node-local slots (§5.2).
		for _, sl := range batch {
			applyReplica(t, node, true)
			s.Write(t, sl, nrsDone)
		}
		if !o.CombinedReplicaLock {
			rw[node].Unlock(s, t)
		}
	}

	update := func(t *Thread, myIdx int) {
		node := t.Node
		if o.DisableCombining {
			// Ablation #1: every thread appends and replays for itself.
			var start uint64
			for {
				cur := s.Read(t, logTail)
				if s.CAS(t, logTail, cur, cur+1) {
					start = cur
					break
				}
			}
			s.Write(t, ring+Addr(start%nrLogRing), start+1)
			rw[node].Lock(s, t)
			lt := s.Read(t, localTail[node])
			replayTo(t, node, lt, start+1)
			for {
				c := s.Read(t, completed)
				if c >= start+1 || s.CAS(t, completed, c, start+1) {
					break
				}
			}
			rw[node].Unlock(s, t)
			return
		}
		mySlot := slotOf[node][myIdx]
		s.Write(t, mySlot, nrsPosted)
		for {
			if s.Read(t, mySlot) == nrsDone {
				s.Write(t, mySlot, nrsEmpty)
				return
			}
			if combiner[node].TryLock(s, t) {
				if s.Read(t, mySlot) != nrsDone {
					runCombine(t, node, myIdx)
				}
				combiner[node].Unlock(s, t)
				s.Write(t, mySlot, nrsEmpty)
				return
			}
			s.WaitUntil(t, combiner[node].Line(), func(v uint64) bool { return v == 0 })
		}
	}

	read := func(t *Thread, myIdx int) {
		node := t.Node
		var rt uint64
		if o.ReadWaitLogTail {
			rt = s.Read(t, logTail) // ablation #2
		} else {
			rt = s.Read(t, completed)
		}
		if o.CombinedReplicaLock {
			// Ablation #3: readers take the combiner lock.
			combiner[node].Lock(s, t)
			lt := s.Read(t, localTail[node])
			if lt < rt {
				replayTo(t, node, lt, rt)
			}
			applyReplica(t, node, false)
			combiner[node].Unlock(s, t)
			return
		}
		for {
			lt := s.Read(t, localTail[node])
			if lt >= rt {
				break
			}
			if combiner[node].Held(s, t) {
				// A combiner exists; wait for it to move on (§5.3).
				s.WaitUntil(t, combiner[node].Line(), func(v uint64) bool { return v == 0 })
				continue
			}
			// Elect one reader to refresh; the rest wait for localTail,
			// matching internal/core's refresher optimization.
			if !refresher[node].TryLock(s, t) {
				// Park until the current refresher finishes, then re-check.
				s.WaitUntil(t, refresher[node].Line(), func(v uint64) bool { return v == 0 })
				continue
			}
			rw[node].Lock(s, t)
			lt = s.Read(t, localTail[node])
			target := rt
			if to := s.Read(t, completed); to > target {
				target = to // refresh as far as possible so waiters are served
			}
			if lt < target {
				replayTo(t, node, lt, target)
			}
			rw[node].Unlock(s, t)
			refresher[node].Unlock(s, t)
		}
		rw[node].RLock(s, t, myIdx)
		applyReplica(t, node, false)
		rw[node].RUnlock(s, t, myIdx)
	}

	bodies := make([]func(*Thread), r.Threads)
	for i := range bodies {
		myIdx := i % tpn
		bodies[i] = func(t *Thread) {
			for n := 0; n < r.OpsPerThread; n++ {
				think(s, t, r)
				isUpdate, _ := opPick(t, p, r.UpdatePermille)
				if isUpdate {
					update(t, myIdx)
				} else {
					read(t, myIdx)
				}
				t.Ops++
			}
		}
	}
	total := s.Run(bodies)
	return Result{Ops: uint64(r.Threads * r.OpsPerThread), Nanos: total}
}

// nodeThreads returns how many of the run's threads sit on node under the
// fill placement.
func nodeThreads(total, node, tpn int) int {
	lo := node * tpn
	if total <= lo {
		return 0
	}
	if total >= lo+tpn {
		return tpn
	}
	return total - lo
}
