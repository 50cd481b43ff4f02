// Package ds provides the sequential data structures the paper evaluates:
// a skip list (used as a dictionary and as a priority queue), a pairing-heap
// priority queue, a stack, a hash map, a Redis-style sorted set (hash map +
// skip list, updated atomically), and the synthetic padded buffer of §8.2 —
// plus extension structures that exercise the same black-box contract: a
// B-tree dictionary, a FIFO queue, and an LRU cache.
//
// Everything in this package is strictly sequential — no locks, no atomics.
// Node Replication (internal/core) turns these into linearizable concurrent
// structures without modifying them, which is the paper's whole point.
package ds

// SkipList is a sequential skip list (Pugh [54]) mapping keys to values,
// ordered by a caller-supplied comparison. Nodes carry level spans so rank
// queries run in O(log n), as in Redis's zset implementation.
//
// Level choice uses an internal deterministic PRNG. The paper permits this
// nondeterminism because levels never affect operation results (§4).
type SkipList[K, V any] struct {
	less   func(a, b K) bool
	head   *skipNode[K, V]
	level  int
	length int
	rng    uint64
}

const skipMaxLevel = 24 // supports ~16M elements at p=1/2

type skipNode[K, V any] struct {
	key  K
	val  V
	next []skipLink[K, V]
}

type skipLink[K, V any] struct {
	to   *skipNode[K, V]
	span int // number of bottom-level steps this link covers
}

// NewSkipList returns an empty skip list ordered by less. The seed fixes the
// level PRNG so replicas built from the same operation stream are identical.
func NewSkipList[K, V any](less func(a, b K) bool, seed uint64) *SkipList[K, V] {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &SkipList[K, V]{
		less:  less,
		head:  &skipNode[K, V]{next: make([]skipLink[K, V], skipMaxLevel)},
		level: 1,
		rng:   seed,
	}
}

func (s *SkipList[K, V]) randLevel() int {
	// xorshift64*; one level per consecutive set bit, p = 1/2.
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	lvl := 1
	for v := s.rng; v&1 == 1 && lvl < skipMaxLevel; v >>= 1 {
		lvl++
	}
	return lvl
}

// Len returns the number of elements.
func (s *SkipList[K, V]) Len() int { return s.length }

func (s *SkipList[K, V]) equal(a, b K) bool { return !s.less(a, b) && !s.less(b, a) }

// preds is a skip-list search's per-level result: update[i] is the last node
// at level i whose key sorts before the searched key, ranks[i] the number of
// elements up to and including it (head has rank 0).
type preds[K, V any] struct {
	update [skipMaxLevel]*skipNode[K, V]
	ranks  [skipMaxLevel]int
}

// search fills p with key's predecessors at every occupied level. With
// finger set, p must hold the predecessors of a key that sorts before key:
// each level's walk then starts from whichever of the level above's stop and
// that old predecessor is further along, so a short move costs a short walk
// instead of a descent from the head.
//
//nr:noalloc
func (s *SkipList[K, V]) search(key K, p *preds[K, V], finger bool) {
	x, rank := s.head, 0
	for i := s.level - 1; i >= 0; i-- {
		if finger && p.ranks[i] > rank {
			x, rank = p.update[i], p.ranks[i]
		}
		for x.next[i].to != nil && s.less(x.next[i].to.key, key) {
			rank += x.next[i].span
			x = x.next[i].to
		}
		p.update[i], p.ranks[i] = x, rank
	}
}

// link splices n, tower and all, in after the predecessors in p, raising
// the list's level to the tower's height if need be.
//
//nr:noalloc
func (s *SkipList[K, V]) link(n *skipNode[K, V], p *preds[K, V]) {
	lvl := len(n.next)
	for i := s.level; i < lvl; i++ {
		p.ranks[i] = 0
		p.update[i] = s.head
		s.head.next[i].span = s.length
	}
	if lvl > s.level {
		s.level = lvl
	}
	for i := 0; i < lvl; i++ {
		before := p.ranks[0] - p.ranks[i] // elements after update[i] that sort before n
		n.next[i].to = p.update[i].next[i].to
		p.update[i].next[i].to = n
		n.next[i].span = p.update[i].next[i].span - before
		p.update[i].next[i].span = before + 1
	}
	for i := lvl; i < s.level; i++ {
		p.update[i].next[i].span++
	}
	s.length++
}

// Insert adds key with val, or replaces the value if key is present.
// It reports whether the key was newly inserted.
func (s *SkipList[K, V]) Insert(key K, val V) bool {
	var p preds[K, V]
	s.search(key, &p, false)
	if nxt := p.update[0].next[0].to; nxt != nil && s.equal(nxt.key, key) {
		nxt.val = val
		return false
	}
	s.link(&skipNode[K, V]{key: key, val: val, next: make([]skipLink[K, V], s.randLevel())}, &p)
	return true
}

// Move re-keys the element stored under old to key, keeping its value, and
// reports whether old was present. The result is that of Delete(old) then
// Insert(key, value), an element already stored under key being replaced,
// but it costs one search and no allocation. If key still sorts between the
// element's neighbours the key is overwritten in place. Otherwise the node
// is unlinked and relinked with the tower it has: no new level is drawn, so
// the list's shape still depends on the operation stream alone.
//
//nr:noalloc
func (s *SkipList[K, V]) Move(old, key K) bool {
	var p preds[K, V]
	s.search(old, &p, false)
	n := p.update[0].next[0].to
	if n == nil || !s.equal(n.key, old) {
		return false
	}
	prev, next := p.update[0], n.next[0].to
	if (prev == s.head || s.less(prev.key, key)) && (next == nil || s.less(key, next.key)) {
		n.key = key
		return true
	}
	s.removeNode(n, p.update[:])
	// Unlinking n, which sits after every old predecessor, moved none of
	// them and changed none of their ranks: they are the finger.
	s.search(key, &p, s.less(old, key))
	if at := p.update[0].next[0].to; at != nil && s.equal(at.key, key) {
		at.val = n.val
		return true
	}
	n.key = key
	s.link(n, &p)
	return true
}

// Delete removes key, reporting whether it was present.
func (s *SkipList[K, V]) Delete(key K) bool {
	var update [skipMaxLevel]*skipNode[K, V]
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i].to != nil && s.less(x.next[i].to.key, key) {
			x = x.next[i].to
		}
		update[i] = x
	}
	target := x.next[0].to
	if target == nil || !s.equal(target.key, key) {
		return false
	}
	s.removeNode(target, update[:])
	return true
}

func (s *SkipList[K, V]) removeNode(target *skipNode[K, V], update []*skipNode[K, V]) {
	for i := 0; i < s.level; i++ {
		if update[i].next[i].to == target {
			update[i].next[i].span += target.next[i].span - 1
			update[i].next[i].to = target.next[i].to
		} else {
			update[i].next[i].span--
		}
	}
	for s.level > 1 && s.head.next[s.level-1].to == nil {
		s.head.next[s.level-1].span = 0
		s.level--
	}
	s.length--
}

// Get returns the value stored for key.
func (s *SkipList[K, V]) Get(key K) (V, bool) {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i].to != nil && s.less(x.next[i].to.key, key) {
			x = x.next[i].to
		}
	}
	if nxt := x.next[0].to; nxt != nil && s.equal(nxt.key, key) {
		return nxt.val, true
	}
	var zero V
	return zero, false
}

// Contains reports whether key is present.
func (s *SkipList[K, V]) Contains(key K) bool {
	_, ok := s.Get(key)
	return ok
}

// Min returns the smallest key and its value without removing it.
func (s *SkipList[K, V]) Min() (K, V, bool) {
	if n := s.head.next[0].to; n != nil {
		return n.key, n.val, true
	}
	var zk K
	var zv V
	return zk, zv, false
}

// DeleteMin removes and returns the smallest key and its value.
func (s *SkipList[K, V]) DeleteMin() (K, V, bool) {
	target := s.head.next[0].to
	if target == nil {
		var zk K
		var zv V
		return zk, zv, false
	}
	var update [skipMaxLevel]*skipNode[K, V]
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		// The minimum is the first node; every head predecessor is head itself
		// unless the node is taller than head's occupied levels.
		for x.next[i].to != nil && s.less(x.next[i].to.key, target.key) {
			x = x.next[i].to
		}
		update[i] = x
	}
	s.removeNode(target, update[:])
	return target.key, target.val, true
}

// Rank returns the 0-based position of key in sorted order, or false if the
// key is absent. O(log n) via level spans.
func (s *SkipList[K, V]) Rank(key K) (int, bool) {
	x := s.head
	rank := 0
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i].to != nil && s.less(x.next[i].to.key, key) {
			rank += x.next[i].span
			x = x.next[i].to
		}
	}
	if nxt := x.next[0].to; nxt != nil && s.equal(nxt.key, key) {
		return rank, true
	}
	return 0, false
}

// ByRank returns the key and value at 0-based sorted position r.
func (s *SkipList[K, V]) ByRank(r int) (K, V, bool) {
	if r < 0 || r >= s.length {
		var zk K
		var zv V
		return zk, zv, false
	}
	x := s.head
	traversed := -1 // head sits at rank -1
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i].to != nil && traversed+x.next[i].span <= r {
			traversed += x.next[i].span
			x = x.next[i].to
		}
	}
	return x.key, x.val, true
}

// Ascend calls fn for each element in key order until fn returns false.
func (s *SkipList[K, V]) Ascend(fn func(key K, val V) bool) {
	for n := s.head.next[0].to; n != nil; n = n.next[0].to {
		if !fn(n.key, n.val) {
			return
		}
	}
}

// RangeByRank calls fn for elements with ranks in [lo, hi] (inclusive,
// 0-based), in order. Out-of-range bounds are clamped.
func (s *SkipList[K, V]) RangeByRank(lo, hi int, fn func(key K, val V) bool) {
	if lo < 0 {
		lo = 0
	}
	if hi >= s.length {
		hi = s.length - 1
	}
	if lo > hi {
		return
	}
	k, v, ok := s.ByRank(lo)
	if !ok {
		return
	}
	if !fn(k, v) {
		return
	}
	// Walk forward from the node at rank lo.
	x := s.nodeAtRank(lo)
	for r := lo + 1; r <= hi && x.next[0].to != nil; r++ {
		x = x.next[0].to
		if !fn(x.key, x.val) {
			return
		}
	}
}

func (s *SkipList[K, V]) nodeAtRank(r int) *skipNode[K, V] {
	x := s.head
	traversed := -1
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i].to != nil && traversed+x.next[i].span <= r {
			traversed += x.next[i].span
			x = x.next[i].to
		}
	}
	return x
}

// checkSpans validates the span bookkeeping; it is used by tests only. At
// every level each link's span must be the rank difference of its endpoints,
// and the trailing link's span the number of elements after its node.
func (s *SkipList[K, V]) checkSpans() bool {
	rank := map[*skipNode[K, V]]int{s.head: 0}
	n := 0
	for x := s.head.next[0].to; x != nil; x = x.next[0].to {
		n++
		rank[x] = n
	}
	if n != s.length {
		return false
	}
	for i := 0; i < s.level; i++ {
		for x := s.head; x != nil; x = x.next[i].to {
			end := s.length
			if to := x.next[i].to; to != nil {
				end = rank[to]
			}
			if x.next[i].span != end-rank[x] {
				return false
			}
		}
	}
	return true
}
