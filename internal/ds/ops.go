package ds

// This file defines, for each sequential structure, a compact operation type
// and a wrapper implementing the paper's black-box contract (§4):
//
//	Execute(op) result    — deterministic, side effects only on the structure
//	IsReadOnly(op) bool   — known at invocation time
//
// Operations are small value types because NR copies them into the shared
// log; the paper notes that an operation's description is usually far
// shorter than its effects (§4, "compact representation of shared data").

// PQOpKind enumerates priority-queue operations.
type PQOpKind uint8

// Priority queue operations (the generic add/remove/read of the flat
// combining benchmark, §8.1).
const (
	PQInsert    PQOpKind = iota // add: insert(rnd, v)
	PQDeleteMin                 // remove: deleteMin()
	PQFindMin                   // read: findMin()
)

// PQOp is one priority-queue operation.
type PQOp struct {
	Kind PQOpKind
	Key  int64
}

// PQResult is the result of a priority-queue operation.
type PQResult struct {
	Key int64
	OK  bool
}

// IsReadOnlyPQ reports whether op is read-only.
func IsReadOnlyPQ(op PQOp) bool { return op.Kind == PQFindMin }

// SkipListPQ adapts SkipList to the black-box priority-queue contract.
type SkipListPQ struct {
	sl *SkipList[struct{}]
}

// NewSkipListPQ returns an empty skip-list priority queue.
func NewSkipListPQ(seed uint64) *SkipListPQ {
	return &SkipListPQ{sl: NewSkipList[struct{}](seed)}
}

// Len returns the number of elements.
func (p *SkipListPQ) Len() int { return p.sl.Len() }

// Execute applies op sequentially.
func (p *SkipListPQ) Execute(op PQOp) PQResult {
	switch op.Kind {
	case PQInsert:
		p.sl.Insert(IntKey(op.Key), struct{}{})
		return PQResult{Key: op.Key, OK: true}
	case PQDeleteMin:
		return pqResult(p.sl.DeleteMin())
	case PQFindMin:
		return pqResult(p.sl.Min())
	}
	return PQResult{}
}

// pqResult answers a minimum query; an empty queue answers key 0, as HeapPQ
// does, not the zero Key's int.
func pqResult(k Key, _ struct{}, ok bool) PQResult {
	if !ok {
		return PQResult{}
	}
	return PQResult{Key: k.Int(), OK: true}
}

// IsReadOnly reports whether op is read-only.
func (p *SkipListPQ) IsReadOnly(op PQOp) bool { return IsReadOnlyPQ(op) }

// HeapPQ adapts PairingHeap to the black-box priority-queue contract.
type HeapPQ struct {
	h *PairingHeap[int64]
}

// NewHeapPQ returns an empty pairing-heap priority queue.
func NewHeapPQ() *HeapPQ {
	return &HeapPQ{h: NewPairingHeap[int64](func(a, b int64) bool { return a < b })}
}

// Len returns the number of elements.
func (p *HeapPQ) Len() int { return p.h.Len() }

// Execute applies op sequentially.
func (p *HeapPQ) Execute(op PQOp) PQResult {
	switch op.Kind {
	case PQInsert:
		p.h.Insert(op.Key)
		return PQResult{Key: op.Key, OK: true}
	case PQDeleteMin:
		k, ok := p.h.DeleteMin()
		return PQResult{Key: k, OK: ok}
	case PQFindMin:
		k, ok := p.h.FindMin()
		return PQResult{Key: k, OK: ok}
	}
	return PQResult{}
}

// IsReadOnly reports whether op is read-only.
func (p *HeapPQ) IsReadOnly(op PQOp) bool { return IsReadOnlyPQ(op) }

// DictOpKind enumerates dictionary operations.
type DictOpKind uint8

// Dictionary operations (§8.1.3): insert(rnd,v), delete(rnd), lookup(rnd),
// plus len() — the whole-structure read the multi-log tests use as their
// cross-conflict-class operation (it observes every partition).
const (
	DictInsert DictOpKind = iota
	DictDelete
	DictLookup
	DictLen
)

// DictOp is one dictionary operation.
type DictOp struct {
	Kind  DictOpKind
	Key   int64
	Value uint64
}

// DictResult is the result of a dictionary operation.
type DictResult struct {
	Value uint64
	OK    bool
}

// IsReadOnlyDict reports whether op is read-only.
func IsReadOnlyDict(op DictOp) bool { return op.Kind == DictLookup || op.Kind == DictLen }

// SkipListDict adapts SkipList to the black-box dictionary contract.
type SkipListDict struct {
	sl *SkipList[uint64]
}

// NewSkipListDict returns an empty skip-list dictionary.
func NewSkipListDict(seed uint64) *SkipListDict {
	return &SkipListDict{sl: NewSkipList[uint64](seed)}
}

// Len returns the number of elements.
func (d *SkipListDict) Len() int { return d.sl.Len() }

// Execute applies op sequentially.
func (d *SkipListDict) Execute(op DictOp) DictResult {
	switch op.Kind {
	case DictInsert:
		inserted := d.sl.Insert(IntKey(op.Key), op.Value)
		return DictResult{Value: op.Value, OK: inserted}
	case DictDelete:
		return DictResult{OK: d.sl.Delete(IntKey(op.Key))}
	case DictLookup:
		v, ok := d.sl.Get(IntKey(op.Key))
		return DictResult{Value: v, OK: ok}
	case DictLen:
		return DictResult{Value: uint64(d.sl.Len()), OK: true}
	}
	return DictResult{}
}

// IsReadOnly reports whether op is read-only.
func (d *SkipListDict) IsReadOnly(op DictOp) bool { return IsReadOnlyDict(op) }

// PartitionedDict is a dictionary split into independent skip-list
// partitions by key, the canonical multi-log (CNR-style) structure: with
// the matching DictClass mapper, operations in different conflict classes
// touch disjoint partitions, so they commute AND tolerate concurrent
// application against one replica — per-log combiners on the same node may
// apply different classes' batches at the same time. DictLen spans every
// partition and must therefore map to the cross-class sentinel.
type PartitionedDict struct {
	parts []*SkipListDict
}

// NewPartitionedDict returns an empty dictionary with parts partitions.
// Every replica must be built with the same parts and seed.
func NewPartitionedDict(parts int, seed uint64) *PartitionedDict {
	if parts < 1 {
		parts = 1
	}
	d := &PartitionedDict{parts: make([]*SkipListDict, parts)}
	for i := range d.parts {
		d.parts[i] = NewSkipListDict(seed + uint64(i))
	}
	return d
}

// DictClass returns the LogMapper function matching a PartitionedDict with
// the given partition count: per-key operations map to their partition,
// DictLen to -1 — the cross-class sentinel (nr.CrossLog / core.CrossLog).
func DictClass(parts int) func(DictOp) int {
	return func(op DictOp) int {
		if op.Kind == DictLen {
			return -1
		}
		return int(uint64(op.Key) % uint64(parts))
	}
}

// Len returns the total element count across partitions.
func (d *PartitionedDict) Len() int {
	n := 0
	for _, p := range d.parts {
		n += p.Len()
	}
	return n
}

// Execute applies op to its partition (or, for DictLen, across all).
func (d *PartitionedDict) Execute(op DictOp) DictResult {
	if op.Kind == DictLen {
		return DictResult{Value: uint64(d.Len()), OK: true}
	}
	return d.parts[uint64(op.Key)%uint64(len(d.parts))].Execute(op)
}

// IsReadOnly reports whether op is read-only.
func (d *PartitionedDict) IsReadOnly(op DictOp) bool { return IsReadOnlyDict(op) }

// FastPathDict wraps SkipListDict with the §6 "fake update" optimization:
// a delete of an absent key is first attempted as a read, so workloads full
// of no-op deletes skip the shared log entirely. TryReadOnly implements the
// core.FakeUpdater fast path.
type FastPathDict struct {
	*SkipListDict
}

// NewFastPathDict returns a dictionary with the fake-update fast path.
func NewFastPathDict(seed uint64) *FastPathDict {
	return &FastPathDict{SkipListDict: NewSkipListDict(seed)}
}

// TryReadOnly serves updates that are provably no-ops from the local
// replica. It must not modify the structure.
func (d *FastPathDict) TryReadOnly(op DictOp) (DictResult, bool) {
	if op.Kind == DictDelete && !d.sl.Contains(IntKey(op.Key)) {
		return DictResult{OK: false}, true
	}
	return DictResult{}, false
}

// StackOpKind enumerates stack operations.
type StackOpKind uint8

// Stack operations (§8.1.4): push(v), pop(). There is no read operation.
const (
	StackPush StackOpKind = iota
	StackPop
)

// StackOp is one stack operation.
type StackOp struct {
	Kind  StackOpKind
	Value int64
}

// StackResult is the result of a stack operation.
type StackResult struct {
	Value int64
	OK    bool
}

// SeqStack adapts Stack to the black-box contract.
type SeqStack struct {
	st *Stack[int64]
}

// NewSeqStack returns an empty stack.
func NewSeqStack(capacity int) *SeqStack { return &SeqStack{st: NewStack[int64](capacity)} }

// Len returns the number of elements.
func (s *SeqStack) Len() int { return s.st.Len() }

// Execute applies op sequentially.
func (s *SeqStack) Execute(op StackOp) StackResult {
	switch op.Kind {
	case StackPush:
		s.st.Push(op.Value)
		return StackResult{Value: op.Value, OK: true}
	case StackPop:
		v, ok := s.st.Pop()
		return StackResult{Value: v, OK: ok}
	}
	return StackResult{}
}

// IsReadOnly reports whether op is read-only; stacks have no read ops.
func (s *SeqStack) IsReadOnly(StackOp) bool { return false }

// BufferOp is one synthetic-buffer operation (§8.2). The c-1 random entries
// are derived deterministically from Seed so that replicas replaying the
// same op touch the same entries.
type BufferOp struct {
	Update bool
	Seed   uint64
	C      int // cache lines accessed, including the contended entry 0
}

// BufferResult is the checksum returned by a buffer operation.
type BufferResult struct {
	Sum uint64
}

// SeqBuffer adapts Buffer to the black-box contract.
type SeqBuffer struct {
	b *Buffer
}

// NewSeqBuffer returns a buffer with n entries.
func NewSeqBuffer(n int) *SeqBuffer { return &SeqBuffer{b: NewBuffer(n)} }

// Len returns the number of entries.
func (s *SeqBuffer) Len() int { return s.b.Len() }

// Execute applies op sequentially.
func (s *SeqBuffer) Execute(op BufferOp) BufferResult {
	c := op.C
	if c < 1 {
		c = 1
	}
	// The entries live on the caller's stack (c <= 64 in every sweep of
	// §8.2; a larger c allocates), never in the structure: NR runs the reads
	// of one replica concurrently.
	var local [63]int
	entries := local[:0]
	x := op.Seed | 1
	for i := 0; i < c-1; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		entries = append(entries, int(x%uint64(s.b.Len())))
	}
	if op.Update {
		return BufferResult{Sum: s.b.Update(entries)}
	}
	return BufferResult{Sum: s.b.Read(entries)}
}

// IsReadOnly reports whether op is read-only.
func (s *SeqBuffer) IsReadOnly(op BufferOp) bool { return !op.Update }

// ZOpKind enumerates sorted-set operations.
type ZOpKind uint8

// Sorted-set operations (§8.3): ZINCRBY is the update, ZRANK the read.
const (
	ZAdd ZOpKind = iota
	ZIncrBy
	ZRem
	ZScore
	ZRank
	ZCard
)

// ZOp is one sorted-set operation.
type ZOp struct {
	Kind   ZOpKind
	Member string
	Score  float64
}

// ZResult is the result of a sorted-set operation.
type ZResult struct {
	Score float64
	Rank  int
	OK    bool
}

// IsReadOnlyZ reports whether op is read-only.
func IsReadOnlyZ(op ZOp) bool {
	switch op.Kind {
	case ZScore, ZRank, ZCard:
		return true
	}
	return false
}

// SeqSortedSet adapts SortedSet to the black-box contract. The paper needed
// only 20 lines of wrapper code per Redis structure; this is the Go analogue.
type SeqSortedSet struct {
	z *SortedSet
}

// NewSeqSortedSet returns an empty sorted set.
func NewSeqSortedSet(capacity int, seed uint64) *SeqSortedSet {
	return &SeqSortedSet{z: NewSortedSet(capacity, seed)}
}

// Inner exposes the underlying sorted set for read-only inspection in tests.
func (s *SeqSortedSet) Inner() *SortedSet { return s.z }

// Execute applies op sequentially.
func (s *SeqSortedSet) Execute(op ZOp) ZResult {
	switch op.Kind {
	case ZAdd:
		added := s.z.Add(op.Member, op.Score)
		return ZResult{Score: op.Score, OK: added}
	case ZIncrBy:
		sc := s.z.IncrBy(op.Member, op.Score)
		return ZResult{Score: sc, OK: sc == sc} // NaN: refused, nothing changed
	case ZRem:
		return ZResult{OK: s.z.Remove(op.Member)}
	case ZScore:
		sc, ok := s.z.Score(op.Member)
		return ZResult{Score: sc, OK: ok}
	case ZRank:
		r, ok := s.z.Rank(op.Member)
		return ZResult{Rank: r, OK: ok}
	case ZCard:
		return ZResult{Rank: s.z.Len(), OK: true}
	}
	return ZResult{}
}

// IsReadOnly reports whether op is read-only.
func (s *SeqSortedSet) IsReadOnly(op ZOp) bool { return IsReadOnlyZ(op) }
