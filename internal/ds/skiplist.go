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

import "math"

// Key is the skip list's one order: Ord, then Tie. Both compare inline, so
// a search step costs no call through a comparison function. IntKey and
// FloatKey map the package's two orders onto Ord.
type Key struct {
	Ord uint64
	Tie string
}

func (a Key) less(b Key) bool { return a.Ord < b.Ord || a.Ord == b.Ord && a.Tie < b.Tie }

// IntKey returns the key of v. Flipping the sign bit turns int64 order into
// uint64 order.
func IntKey(v int64) Key { return Key{Ord: uint64(v) ^ 1<<63} }

// Int returns the int64 an IntKey was built from.
func (k Key) Int() int64 { return int64(k.Ord ^ 1<<63) }

// FloatKey returns the key of f, ties broken by tie. A non-negative float
// gets its sign bit set and a negative one has every bit flipped, which
// turns float64 order into uint64 order; -0 maps to +0's key. f must not be
// NaN: a NaN has no place in the order.
func FloatKey(f float64, tie string) Key {
	b := math.Float64bits(f)
	if b == 1<<63 { // -0
		b = 0
	}
	if b>>63 == 0 {
		return Key{Ord: b | 1<<63, Tie: tie}
	}
	return Key{Ord: ^b, Tie: tie}
}

// SkipList is a sequential skip list (Pugh [54]) mapping Keys to values.
// Nodes carry level spans so rank queries run in O(log n), as in Redis's
// zset implementation.
//
// Level choice uses an internal deterministic PRNG. The paper permits this
// nondeterminism because levels never affect operation results (§4).
type SkipList[V any] struct {
	head   *skipNode[V]
	level  int
	length int
	rng    uint64
}

const skipMaxLevel = 16 // supports ~4G elements at p=1/4

// skipNode is one element. Its tower, next, lives in the same allocation as
// the node (newSkipNode).
type skipNode[V any] struct {
	key  Key
	val  V
	next []skipLink[V]
}

type skipLink[V any] struct {
	to   *skipNode[V]
	span int // number of bottom-level steps this link covers
}

// before reports whether l leads to a node that sorts before k.
func (l *skipLink[V]) before(k Key) bool { return l.to != nil && l.to.key.less(k) }

// NewSkipList returns an empty skip list. The seed fixes the level PRNG so
// replicas built from the same operation stream are identical.
func NewSkipList[V any](seed uint64) *SkipList[V] {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	var zero V
	return &SkipList[V]{head: newSkipNode(Key{}, zero, skipMaxLevel), level: 1, rng: seed}
}

// newSkipNode allocates a node and its tower of lvl links as one object,
// the tower rounded up to 1, 2, 4, 8 or skipMaxLevel links.
func newSkipNode[V any](key Key, val V, lvl int) *skipNode[V] {
	var (
		n     *skipNode[V]
		tower []skipLink[V]
	)
	switch {
	case lvl <= 1:
		c := new(struct {
			skipNode[V]
			t [1]skipLink[V]
		})
		n, tower = &c.skipNode, c.t[:]
	case lvl <= 2:
		c := new(struct {
			skipNode[V]
			t [2]skipLink[V]
		})
		n, tower = &c.skipNode, c.t[:]
	case lvl <= 4:
		c := new(struct {
			skipNode[V]
			t [4]skipLink[V]
		})
		n, tower = &c.skipNode, c.t[:]
	case lvl <= 8:
		c := new(struct {
			skipNode[V]
			t [8]skipLink[V]
		})
		n, tower = &c.skipNode, c.t[:]
	default:
		c := new(struct {
			skipNode[V]
			t [skipMaxLevel]skipLink[V]
		})
		n, tower = &c.skipNode, c.t[:]
	}
	n.key, n.val, n.next = key, val, tower[:lvl]
	return n
}

func (s *SkipList[V]) randLevel() int {
	// xorshift64; one level per consecutive pair of set bits, p = 1/4 (as
	// Redis's ZSKIPLIST_P).
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	lvl := 1
	for v := s.rng; v&3 == 3 && lvl < skipMaxLevel; v >>= 2 {
		lvl++
	}
	return lvl
}

// Len returns the number of elements.
func (s *SkipList[V]) Len() int { return s.length }

// preds is a skip-list search's per-level result: update[i] is the last node
// at level i whose key sorts before the searched key, ranks[i] the number of
// elements up to and including it (head has rank 0).
type preds[V any] struct {
	update [skipMaxLevel]*skipNode[V]
	ranks  [skipMaxLevel]int
}

// search fills p with key's predecessors at every occupied level. With
// finger set, p must hold the predecessors of a key that sorts before key:
// each level's walk then starts from whichever of the level above's stop and
// that old predecessor is further along, so a short move costs a short walk
// instead of a descent from the head.
func (s *SkipList[V]) search(key Key, p *preds[V], finger bool) {
	x, rank := s.head, 0
	for i := s.level - 1; i >= 0; i-- {
		if finger && p.ranks[i] > rank {
			x, rank = p.update[i], p.ranks[i]
		}
		for l := &x.next[i]; l.before(key); l = &x.next[i] {
			rank += l.span
			x = l.to
		}
		p.update[i], p.ranks[i] = x, rank
	}
}

// find returns the node stored under key and its 0-based rank, or nil.
func (s *SkipList[V]) find(key Key) (*skipNode[V], int) {
	x, rank := s.head, 0
	for i := s.level - 1; i >= 0; i-- {
		for l := &x.next[i]; l.before(key); l = &x.next[i] {
			rank += l.span
			x = l.to
		}
	}
	if n := x.next[0].to; n != nil && n.key == key {
		return n, rank
	}
	return nil, 0
}

// link splices n, tower and all, in after the predecessors in p, raising
// the list's level to the tower's height if need be.
func (s *SkipList[V]) link(n *skipNode[V], p *preds[V]) {
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
		u := &p.update[i].next[i]
		before := p.ranks[0] - p.ranks[i] // elements after update[i] that sort before n
		n.next[i] = skipLink[V]{to: u.to, span: u.span - before}
		*u = skipLink[V]{to: n, span: before + 1}
	}
	for i := lvl; i < s.level; i++ {
		p.update[i].next[i].span++
	}
	s.length++
}

// Insert adds key with val, or replaces the value if key is present.
// It reports whether the key was newly inserted.
func (s *SkipList[V]) Insert(key Key, val V) bool {
	var p preds[V]
	s.search(key, &p, false)
	if n := p.update[0].next[0].to; n != nil && n.key == key {
		n.val = val
		return false
	}
	s.link(newSkipNode(key, val, s.randLevel()), &p)
	return true
}

// Move re-keys the element stored under old to key with value val, and
// reports whether old was present. The result is that of Delete(old) then
// Insert(key, val), an element already stored under key being replaced, but
// it costs one search and no allocation. If key still sorts between the
// element's neighbours the key is overwritten in place. Otherwise the node
// is unlinked and relinked with the tower it has: no new level is drawn, so
// the list's shape still depends on the operation stream alone.
func (s *SkipList[V]) Move(old, key Key, val V) bool {
	var p preds[V]
	s.search(old, &p, false)
	n := p.update[0].next[0].to
	if n == nil || n.key != old {
		return false
	}
	prev, next := p.update[0], n.next[0].to
	if (prev == s.head || prev.key.less(key)) && (next == nil || key.less(next.key)) {
		n.key, n.val = key, val
		return true
	}
	s.removeNode(n, &p)
	// Unlinking n, which sits after every old predecessor, moved none of
	// them and changed none of their ranks: they are the finger.
	s.search(key, &p, old.less(key))
	if at := p.update[0].next[0].to; at != nil && at.key == key {
		at.val = val
		return true
	}
	n.key, n.val = key, val
	s.link(n, &p)
	return true
}

// Delete removes key, reporting whether it was present.
func (s *SkipList[V]) Delete(key Key) bool {
	var p preds[V]
	s.search(key, &p, false)
	target := p.update[0].next[0].to
	if target == nil || target.key != key {
		return false
	}
	s.removeNode(target, &p)
	return true
}

// removeNode unlinks target, whose predecessors p holds.
func (s *SkipList[V]) removeNode(target *skipNode[V], p *preds[V]) {
	for i := 0; i < s.level; i++ {
		u := &p.update[i].next[i]
		if u.to == target {
			u.span += target.next[i].span - 1
			u.to = target.next[i].to
		} else {
			u.span--
		}
	}
	for s.level > 1 && s.head.next[s.level-1].to == nil {
		s.head.next[s.level-1].span = 0
		s.level--
	}
	s.length--
}

// Get returns the value stored for key.
func (s *SkipList[V]) Get(key Key) (V, bool) {
	if n, _ := s.find(key); n != nil {
		return n.val, true
	}
	var zero V
	return zero, false
}

// Contains reports whether key is present.
func (s *SkipList[V]) Contains(key Key) bool {
	n, _ := s.find(key)
	return n != nil
}

// Min returns the smallest key and its value without removing it.
func (s *SkipList[V]) Min() (Key, V, bool) {
	if n := s.head.next[0].to; n != nil {
		return n.key, n.val, true
	}
	var zero V
	return Key{}, zero, false
}

// DeleteMin removes and returns the smallest key and its value.
func (s *SkipList[V]) DeleteMin() (Key, V, bool) {
	target := s.head.next[0].to
	if target == nil {
		var zero V
		return Key{}, zero, false
	}
	// The minimum is the first node: head precedes it at every level.
	var p preds[V]
	for i := 0; i < s.level; i++ {
		p.update[i] = s.head
	}
	s.removeNode(target, &p)
	return target.key, target.val, true
}

// Rank returns the 0-based position of key in sorted order, or false if the
// key is absent. O(log n) via level spans.
func (s *SkipList[V]) Rank(key Key) (int, bool) {
	n, rank := s.find(key)
	return rank, n != nil
}

// ByRank returns the key and value at 0-based sorted position r.
func (s *SkipList[V]) ByRank(r int) (Key, V, bool) {
	if r < 0 || r >= s.length {
		var zero V
		return Key{}, zero, false
	}
	n := s.nodeAtRank(r)
	return n.key, n.val, true
}

// RangeByRank calls fn for elements with ranks in [lo, hi] (inclusive,
// 0-based), in order, until fn returns false. Out-of-range bounds are
// clamped.
func (s *SkipList[V]) RangeByRank(lo, hi int, fn func(key Key, val V) bool) {
	lo, hi = max(lo, 0), min(hi, s.length-1)
	if lo > hi {
		return
	}
	for x, r := s.nodeAtRank(lo), lo; r <= hi && fn(x.key, x.val); r++ {
		x = x.next[0].to
	}
}

// nodeAtRank returns the node at 0-based rank r, which must be in range.
func (s *SkipList[V]) nodeAtRank(r int) *skipNode[V] {
	x := s.head
	traversed := -1 // head sits at rank -1
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i].to != nil && traversed+x.next[i].span <= r {
			traversed += x.next[i].span
			x = x.next[i].to
		}
	}
	return x
}

// checkSpans validates the list's bookkeeping; it is used by tests only.
// Keys must strictly ascend, and at every level each link's span must be
// the rank difference of its endpoints, the trailing link's span the number
// of elements after its node.
func (s *SkipList[V]) checkSpans() bool {
	rank := map[*skipNode[V]]int{s.head: 0}
	n := 0
	for prev, x := s.head, s.head.next[0].to; x != nil; prev, x = x, x.next[0].to {
		if prev != s.head && !prev.key.less(x.key) {
			return false
		}
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
