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

// Range calls fn for each key in ascending order until fn returns false.
func (p *SkipListPQ) Range(fn func(key int64) bool) {
	p.sl.Range(func(k Key, _ struct{}) bool { return fn(k.Int()) })
}

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

// Range calls fn for each entry in key order until fn returns false.
func (d *SkipListDict) Range(fn func(key int64, val uint64) bool) {
	d.sl.Range(func(k Key, v uint64) bool { return fn(k.Int(), v) })
}

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
func NewSeqSortedSet(capacity int) *SeqSortedSet {
	return &SeqSortedSet{z: NewSortedSet(capacity)}
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
