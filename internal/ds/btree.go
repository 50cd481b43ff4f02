package ds

// BTree is a sequential order-statistic B+tree over sorted-set members, the
// index under SortedSet (rank and range by rank).
//
// The leaves hold the members themselves: a slot is a *member, the hash
// map's entry, ordered by (score, name). Every member in the tree points at
// the leaf that holds it, and every node at its parent and its index there,
// so only Insert descends by key: a member's rank is its slot in its leaf
// plus the counts left of each link up, and Move and Delete build their
// path from the links. An inner node keeps, per child, a separator and the
// number of members below it. A node's score Ords are one contiguous array
// searched first; a name is read, through its entry, only when two Ords are
// equal.
// The shape is a function of the operation stream alone (no PRNG), so
// replicas built from the same stream are identical.
type BTree struct {
	root   *btreeNode
	height int // inner levels above the leaves; 0 while the root is a leaf
	length int
	free   *btreeNode // nodes freed by merges, linked through next
}

// member is a sorted set's member: its hash-map entry, whose key is the
// member's name and whose value its exact score and its place in the tree.
type member = hashEntry[memberVal]

type memberVal struct {
	score float64
	leaf  *btreeNode // the leaf holding the entry; nil while it is in no tree
}

// btreeB is the most entries a leaf, and children an inner node, holds;
// every node but the root holds at least btreeB/2. Chosen by paired
// benchmark runs against 16 and 64 (DESIGN.md §5d).
const btreeB = 32

// btreeMaxHeight bounds the inner levels: at the minimum fanout it holds
// more than 2^50 entries.
const btreeMaxHeight = 12

// btreeNode is a leaf or an inner node (kid, cnt); the tree's height says
// which. Item i's key is (ord[i], ent[i].key), ord[i] being ent[i]'s score
// in key order. In an inner node key i > 0 separates kid[i-1] from kid[i]
// (every key below kid[i] is >= it, every key below kid[i-1] < it) and key 0
// is not read by searches; a separator's entry lends only its name, which
// never changes, so the entry may since have moved or left the set. The
// children sit in an allocation of their own, so a leaf does not carry them.
// up and at place a node in the tree: its parent, nil at the root, and its
// index among the parent's children.
type btreeNode struct {
	n   int
	ord [btreeB]uint64
	ent [btreeB]*member
	*btreeKids
	up   *btreeNode
	at   int
	next *btreeNode // on the free list
}

// btreeKids is an inner node's children and their entry counts.
type btreeKids struct {
	kid [btreeB]*btreeNode
	cnt [btreeB]int // entries below kid[i]
}

// btreePath records the way down to a leaf: at inner level h (1 = just
// above the leaves), the node and the index of the child taken.
type btreePath struct {
	node [btreeMaxHeight + 1]*btreeNode
	idx  [btreeMaxHeight + 1]int
}

// NewBTree returns an empty tree.
func NewBTree() *BTree { return &BTree{root: new(btreeNode)} }

// Len returns the number of entries.
func (t *BTree) Len() int { return t.length }

func (n *btreeNode) key(i int) Key { return Key{Ord: n.ord[i], Tie: n.ent[i].key} }

// search returns the index of the first key >= (o, e.key).
func (n *btreeNode) search(o uint64, e *member) int {
	ord, i := n.ord[:n.n], 0
	for i < len(ord) && ord[i] < o {
		i++
	}
	for i < len(ord) && ord[i] == o && n.ent[i].key < e.key {
		i++
	}
	return i
}

// holds reports whether key i is (o, e.key).
func (n *btreeNode) holds(i int, o uint64, e *member) bool {
	return i < n.n && n.ord[i] == o && n.ent[i].key == e.key
}

// child returns the index of the inner node's child whose range holds
// (o, e.key).
func (n *btreeNode) child(o uint64, e *member) int {
	ord, i := n.ord[:n.n], 1
	for i < len(ord) && ord[i] < o {
		i++
	}
	for i < len(ord) && ord[i] == o && (n.ent[i] == e || n.ent[i].key <= e.key) {
		i++
	}
	return i - 1
}

// size returns the number of entries at and below n.
func (n *btreeNode) size(leaf bool) int {
	if leaf {
		return n.n
	}
	s := 0
	for _, c := range n.cnt[:n.n] {
		s += c
	}
	return s
}

// own points the items in slots [i, j) at n: a leaf's entries at the leaf,
// an inner node's children at n and at their slots.
func (n *btreeNode) own(i, j int, leaf bool) {
	if leaf {
		for _, e := range n.ent[i:j] {
			e.val.leaf = n
		}
		return
	}
	for k, c := range n.kid[i:j] {
		c.up, c.at = n, i+k
	}
}

// find returns the slot of e in leaf n, which holds it: the first slot
// with e's Ord, then the pointer.
func (n *btreeNode) find(e *member) int {
	o, i := floatOrd(e.val.score), 0
	for n.ord[i] < o {
		i++
	}
	for n.ent[i] != e {
		i++
	}
	return i
}

// moveItems copies m items of src from j to dst at i; the ranges may
// overlap. The items keep pointing at src and their old slots: the caller
// owns them anew.
func moveItems(dst *btreeNode, i int, src *btreeNode, j, m int, leaf bool) {
	copy(dst.ord[i:i+m], src.ord[j:j+m])
	copy(dst.ent[i:i+m], src.ent[j:j+m])
	if !leaf {
		copy(dst.kid[i:i+m], src.kid[j:j+m])
		copy(dst.cnt[i:i+m], src.cnt[j:j+m])
	}
}

// clearItems drops the references held by the items from i on, past the
// end.
func (n *btreeNode) clearItems(i int, leaf bool) {
	clear(n.ent[i:])
	if !leaf {
		clear(n.kid[i:])
	}
}

// insertItem puts an item at i, shifting the items from i right: o, e in a
// leaf, which e then points at, and o, e, kid, cnt in an inner node, whose
// children from i on are then linked at their new slots.
func (n *btreeNode) insertItem(i int, o uint64, e *member, kid *btreeNode, cnt int, leaf bool) {
	moveItems(n, i+1, n, i, n.n-i, leaf)
	n.ord[i], n.ent[i] = o, e
	n.n++
	if leaf {
		e.val.leaf = n
	} else {
		n.kid[i], n.cnt[i] = kid, cnt
		n.own(i, n.n, false)
	}
}

// removeItem deletes item i, shifting the items after it left (and, in an
// inner node, linking the shifted children at their new slots).
func (n *btreeNode) removeItem(i int, leaf bool) {
	moveItems(n, i, n, i+1, n.n-i-1, leaf)
	n.n--
	n.clearItems(n.n, leaf)
	if !leaf {
		n.own(i, n.n, false)
	}
}

// descend walks from the root to the leaf whose range holds (o, e.key),
// recording the inner nodes in p. It returns the leaf and the index of the
// first key >= (o, e.key). Only Insert needs it: an entry in the tree is
// reached from its leaf (pathTo).
func (t *BTree) descend(o uint64, e *member, p *btreePath) (*btreeNode, int) {
	n := t.root
	for h := t.height; h > 0; h-- {
		i := n.child(o, e)
		p.node[h], p.idx[h] = n, i
		n = n.kid[i]
	}
	return n, n.search(o, e)
}

// Insert adds e, which is in no tree, under its score and name, and
// reports true; if an entry is already stored under that key it reports
// false and changes nothing.
func (t *BTree) Insert(e *member) bool {
	o := floatOrd(e.val.score)
	var p btreePath
	l, i := t.descend(o, e, &p)
	if l.holds(i, o, e) {
		return false
	}
	t.insertAt(&p, l, i, o, e)
	return true
}

// pathTo records in p the inner nodes above leaf l, following the links up.
func (t *BTree) pathTo(l *btreeNode, p *btreePath) {
	for h := 1; h <= t.height; h++ {
		p.node[h], p.idx[h] = l.up, l.at
		l = l.up
	}
}

// Delete removes e from the tree, reporting false if e is in none.
func (t *BTree) Delete(e *member) bool {
	l := e.val.leaf
	if l == nil {
		return false
	}
	var p btreePath
	t.pathTo(l, &p)
	t.deleteAt(&p, l, l.find(e))
	return true
}

// Move sets the score of e, an entry of the tree, and moves it to its new
// place. It reports false, with nothing changed, if e is in no tree or
// another entry is stored under e's name at the new score, which a sorted
// set, whose names are unique, never asks for. The result is that of
// Delete(e), the new score, then Insert(e). If the new key still belongs in
// e's leaf, e slides there (slide); otherwise Move deletes e, with the path
// its leaf's links give, and inserts it, reusing the nodes merges freed;
// nothing is allocated.
func (t *BTree) Move(e *member, score float64) bool {
	l := e.val.leaf
	if l == nil {
		return false
	}
	i := l.find(e)
	if l.slide(i, floatOrd(score), e) {
		e.val.score = score
		return true
	}
	var p btreePath
	t.pathTo(l, &p)
	t.deleteAt(&p, l, i)
	prev := e.val.score
	e.val.score = score
	if !t.Insert(e) {
		e.val.score = prev
		t.Insert(e)
		return false
	}
	return true
}

// slide moves leaf l's entry i, e, to the key (o, e.key) if the key belongs
// in l, and reports whether it did. The search runs outward from slot i, in
// the direction of the move: the keys it passes are l's, and the bound
// behind it is e's old key, so the key belongs in l once a key of l lies
// past it, or else when it is inside the separator nearest l on that side
// (bound). An entry of l stored under the key refuses the slide.
func (l *btreeNode) slide(i int, o uint64, e *member) bool {
	j := i
	switch {
	case o > l.ord[i]:
		for j+1 < l.n && (l.ord[j+1] < o || l.ord[j+1] == o && l.ent[j+1].key < e.key) {
			j++
		}
		if j+1 == l.n && !l.bound(o, e, true) || l.holds(j+1, o, e) {
			return false
		}
		moveItems(l, i, l, i+1, j-i, true)
	case o < l.ord[i]:
		for j > 0 && (l.ord[j-1] > o || l.ord[j-1] == o && l.ent[j-1].key > e.key) {
			j--
		}
		if j == 0 && !l.bound(o, e, false) || j > 0 && l.holds(j-1, o, e) {
			return false
		}
		moveItems(l, j+1, l, j, i-j, true)
	}
	l.ord[j], l.ent[j] = o, e
	return true
}

// bound reports whether the key (o, e.key) lies inside the separator
// nearest leaf l on its right, or on its left, found up the links; a leaf
// at the tree's edge on that side has none.
func (l *btreeNode) bound(o uint64, e *member, right bool) bool {
	k := Key{Ord: o, Tie: e.key}
	for n := l; n.up != nil; n = n.up {
		switch p := n.up; {
		case right && n.at < p.n-1:
			return k.less(p.key(n.at + 1))
		case !right && n.at > 0:
			return !k.less(p.key(n.at))
		}
	}
	return true
}

// insertAt inserts e, whose key is absent, at index i of leaf l, the end of
// the descent recorded in p, and splits what overflows, bottom up.
func (t *BTree) insertAt(p *btreePath, l *btreeNode, i int, o uint64, e *member) {
	t.length++
	for h := 1; h <= t.height; h++ {
		p.node[h].cnt[p.idx[h]]++
	}
	var (
		n   = l
		kid *btreeNode // the item to insert into n: o, e at a leaf, o, e, kid, cnt above
		cnt int
	)
	for h := 0; ; h++ {
		leaf := h == 0
		if n.n < btreeB {
			n.insertItem(i, o, e, kid, cnt, leaf)
			return
		}
		const half = btreeB / 2
		r := t.alloc(leaf)
		moveItems(r, 0, n, half, btreeB-half, leaf)
		r.n, n.n = btreeB-half, half
		n.clearItems(half, leaf)
		r.own(0, r.n, leaf)
		if i <= half {
			n.insertItem(i, o, e, kid, cnt, leaf)
		} else {
			r.insertItem(i-half, o, e, kid, cnt, leaf)
		}
		rc := r.size(leaf)
		if h == t.height { // n is the root: grow a level
			root := t.alloc(false)
			root.n = 2
			root.ord[1], root.ent[1] = r.ord[0], r.ent[0]
			root.kid[0], root.cnt[0] = n, n.size(leaf)
			root.kid[1], root.cnt[1] = r, rc
			root.own(0, 2, false)
			t.root = root
			t.height++
			return
		}
		parent, j := p.node[h+1], p.idx[h+1]
		parent.cnt[j] -= rc // it already counts the new entry
		o, e, kid, cnt, i = r.ord[0], r.ent[0], r, rc, j+1
		n = parent
	}
}

// deleteAt removes entry i of leaf l, the end of the path recorded in p,
// and tops up what underflows, bottom up, by a borrow or a merge.
func (t *BTree) deleteAt(p *btreePath, l *btreeNode, i int) {
	t.length--
	for h := 1; h <= t.height; h++ {
		p.node[h].cnt[p.idx[h]]--
	}
	l.ent[i].val.leaf = nil
	l.removeItem(i, true)
	for h := 1; h <= t.height; h++ {
		parent, j := p.node[h], p.idx[h]
		if parent.kid[j].n >= btreeB/2 {
			break
		}
		t.rebalance(parent, j, h == 1)
	}
	if t.height > 0 && t.root.n == 1 {
		old := t.root
		t.root = old.kid[0]
		t.root.up = nil
		t.height--
		t.release(old)
	}
}

// rebalance refills parent's child j, one item short of half full, from a
// sibling that can spare an item, or else merges it with a sibling.
func (t *BTree) rebalance(parent *btreeNode, j int, leaf bool) {
	n := parent.kid[j]
	if j > 0 && parent.kid[j-1].n > btreeB/2 { // borrow the left sibling's last item
		s := parent.kid[j-1]
		last := s.n - 1
		moveItems(n, 1, n, 0, n.n, leaf)
		if !leaf {
			n.ord[1], n.ent[1] = parent.ord[j], parent.ent[j]
		}
		moveItems(n, 0, s, last, 1, leaf)
		n.n++
		parent.ord[j], parent.ent[j] = s.ord[last], s.ent[last]
		moved := 1
		if leaf {
			n.own(0, 1, true)
		} else {
			moved = n.cnt[0]
			n.own(0, n.n, false)
		}
		parent.cnt[j-1] -= moved
		parent.cnt[j] += moved
		s.n--
		s.clearItems(s.n, leaf)
		return
	}
	if j < parent.n-1 && parent.kid[j+1].n > btreeB/2 { // borrow the right sibling's first item
		s := parent.kid[j+1]
		moveItems(n, n.n, s, 0, 1, leaf)
		if !leaf {
			n.ord[n.n], n.ent[n.n] = parent.ord[j+1], parent.ent[j+1]
		}
		moved := 1
		if !leaf {
			moved = n.cnt[n.n]
		}
		n.own(n.n, n.n+1, leaf)
		n.n++
		s.removeItem(0, leaf)
		parent.ord[j+1], parent.ent[j+1] = s.ord[0], s.ent[0]
		parent.cnt[j] += moved
		parent.cnt[j+1] -= moved
		return
	}
	if j == 0 { // merge child j+1 into child j, or child j into child j-1
		j = 1
	}
	left, right := parent.kid[j-1], parent.kid[j]
	moveItems(left, left.n, right, 0, right.n, leaf)
	left.own(left.n, left.n+right.n, leaf)
	if !leaf {
		left.ord[left.n], left.ent[left.n] = parent.ord[j], parent.ent[j]
	}
	left.n += right.n
	parent.cnt[j-1] += parent.cnt[j]
	parent.removeItem(j, false)
	t.release(right)
}

// alloc returns an empty node, a recycled one if a merge freed any.
func (t *BTree) alloc(leaf bool) *btreeNode {
	n := t.free
	if n == nil {
		n = new(btreeNode)
	} else {
		t.free, n.next = n.next, nil
	}
	if !leaf && n.btreeKids == nil {
		n.btreeKids = new(btreeKids)
	}
	return n
}

// release keeps n, which no longer belongs to the tree, for alloc, with
// its children's arrays cleared but kept.
func (t *BTree) release(n *btreeNode) {
	kids := n.btreeKids
	*n = btreeNode{btreeKids: kids, next: t.free}
	if kids != nil {
		*kids = btreeKids{}
	}
	t.free = n
}

// Rank returns the 0-based position of e in sorted order, or false if e is
// in no tree: its slot in its leaf plus, at each link up, the counts of the
// children left of it. It compares no keys.
func (t *BTree) Rank(e *member) (int, bool) {
	l := e.val.leaf
	if l == nil {
		return 0, false
	}
	r := l.find(e)
	for n := l; n.up != nil; n = n.up {
		for _, c := range n.up.cnt[:n.at] {
			r += c
		}
	}
	return r, true
}

// ByRank returns the entry at 0-based sorted position r.
func (t *BTree) ByRank(r int) (*member, bool) {
	if r < 0 || r >= t.length {
		return nil, false
	}
	n := t.root
	for h := t.height; h > 0; h-- {
		i := 0
		for r >= n.cnt[i] {
			r -= n.cnt[i]
			i++
		}
		n = n.kid[i]
	}
	return n.ent[r], true
}

// Range calls fn for the entries with ranks in [lo, hi] (inclusive,
// 0-based), in order, until fn returns false. Out-of-range bounds are
// clamped.
func (t *BTree) Range(lo, hi int, fn func(*member) bool) {
	t.root.walk(t.height, max(lo, 0), min(hi, t.length-1), fn)
}

// walk is Range below n, at height h, with lo and hi relative to n's first
// entry; it reports whether fn asked for more.
func (n *btreeNode) walk(h, lo, hi int, fn func(*member) bool) bool {
	if h == 0 {
		for i := lo; i <= hi; i++ {
			if !fn(n.ent[i]) {
				return false
			}
		}
		return true
	}
	for i := 0; i < n.n && hi >= 0; i++ {
		c := n.cnt[i]
		if lo < c && !n.kid[i].walk(h-1, max(lo, 0), min(hi, c-1), fn) {
			return false
		}
		lo, hi = lo-c, hi-c
	}
	return true
}
