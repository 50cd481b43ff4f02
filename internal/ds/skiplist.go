// Package ds provides the sequential data structures that NR replicates in
// this repository: a skip list (as a priority queue and as a dictionary), a
// pairing-heap priority queue, an order-statistic B+tree, a hash map, and a
// Redis-style sorted set built from the last two.
//
// Everything in this package is strictly sequential — no locks, no atomics.
// Node Replication (internal/core) turns these into linearizable concurrent
// structures without modifying them, which is the paper's whole point.
package ds

import "math"

// Key is the one order of SkipList and BTree: Ord, then Tie. Both compare
// inline, so a search step costs no call through a comparison function.
// IntKey and floatOrd map the package's two orders onto Ord.
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

// floatOrd returns the Ord of f, a sorted-set score. A non-negative float
// gets its sign bit set and a negative one has every bit flipped, which
// turns float64 order into uint64 order; -0 maps to +0's Ord. f must not be
// NaN: a NaN has no place in the order.
func floatOrd(f float64) uint64 {
	b := math.Float64bits(f)
	if b == 1<<63 { // -0
		b = 0
	}
	if b>>63 == 0 {
		return b | 1<<63
	}
	return ^b
}

// SkipList is a sequential skip list (Pugh [54]) mapping Keys to values,
// under SkipListPQ and SkipListDict.
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
	next []*skipNode[V]
}

// before reports whether n is a node that sorts before k.
func (n *skipNode[V]) before(k Key) bool { return n != nil && n.key.less(k) }

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
		tower []*skipNode[V]
	)
	switch {
	case lvl <= 1:
		c := new(struct {
			skipNode[V]
			t [1]*skipNode[V]
		})
		n, tower = &c.skipNode, c.t[:]
	case lvl <= 2:
		c := new(struct {
			skipNode[V]
			t [2]*skipNode[V]
		})
		n, tower = &c.skipNode, c.t[:]
	case lvl <= 4:
		c := new(struct {
			skipNode[V]
			t [4]*skipNode[V]
		})
		n, tower = &c.skipNode, c.t[:]
	case lvl <= 8:
		c := new(struct {
			skipNode[V]
			t [8]*skipNode[V]
		})
		n, tower = &c.skipNode, c.t[:]
	default:
		c := new(struct {
			skipNode[V]
			t [skipMaxLevel]*skipNode[V]
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
// at level i whose key sorts before the searched key.
type preds[V any] [skipMaxLevel]*skipNode[V]

// search fills p with key's predecessors at every occupied level.
func (s *SkipList[V]) search(key Key, p *preds[V]) {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i].before(key) {
			x = x.next[i]
		}
		p[i] = x
	}
}

// find returns the node stored under key, or nil.
func (s *SkipList[V]) find(key Key) *skipNode[V] {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i].before(key) {
			x = x.next[i]
		}
	}
	if n := x.next[0]; n != nil && n.key == key {
		return n
	}
	return nil
}

// link splices n, tower and all, in after the predecessors in p, raising
// the list's level to the tower's height if need be.
func (s *SkipList[V]) link(n *skipNode[V], p *preds[V]) {
	lvl := len(n.next)
	for i := s.level; i < lvl; i++ {
		p[i] = s.head
	}
	s.level = max(s.level, lvl)
	for i := 0; i < lvl; i++ {
		n.next[i], p[i].next[i] = p[i].next[i], n
	}
	s.length++
}

// Insert adds key with val, or replaces the value if key is present.
// It reports whether the key was newly inserted.
func (s *SkipList[V]) Insert(key Key, val V) bool {
	var p preds[V]
	s.search(key, &p)
	if n := p[0].next[0]; n != nil && n.key == key {
		n.val = val
		return false
	}
	s.link(newSkipNode(key, val, s.randLevel()), &p)
	return true
}

// Delete removes key, reporting whether it was present.
func (s *SkipList[V]) Delete(key Key) bool {
	var p preds[V]
	s.search(key, &p)
	target := p[0].next[0]
	if target == nil || target.key != key {
		return false
	}
	s.removeNode(target, &p)
	return true
}

// removeNode unlinks target, whose predecessors p holds.
func (s *SkipList[V]) removeNode(target *skipNode[V], p *preds[V]) {
	for i := 0; i < s.level && p[i].next[i] == target; i++ {
		p[i].next[i] = target.next[i]
	}
	for s.level > 1 && s.head.next[s.level-1] == nil {
		s.level--
	}
	s.length--
}

// Get returns the value stored for key.
func (s *SkipList[V]) Get(key Key) (V, bool) {
	if n := s.find(key); n != nil {
		return n.val, true
	}
	var zero V
	return zero, false
}

// Min returns the smallest key and its value without removing it.
func (s *SkipList[V]) Min() (Key, V, bool) {
	if n := s.head.next[0]; n != nil {
		return n.key, n.val, true
	}
	var zero V
	return Key{}, zero, false
}

// DeleteMin removes and returns the smallest key and its value.
func (s *SkipList[V]) DeleteMin() (Key, V, bool) {
	target := s.head.next[0]
	if target == nil {
		var zero V
		return Key{}, zero, false
	}
	// The minimum is the first node: head precedes it at every level.
	var p preds[V]
	for i := 0; i < s.level; i++ {
		p[i] = s.head
	}
	s.removeNode(target, &p)
	return target.key, target.val, true
}

// Range calls fn for each entry in key order until fn returns false.
func (s *SkipList[V]) Range(fn func(Key, V) bool) {
	for n := s.head.next[0]; n != nil && fn(n.key, n.val); n = n.next[0] {
	}
}
