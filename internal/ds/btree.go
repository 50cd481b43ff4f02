package ds

// BTree is a sequential order-statistic B+tree mapping Keys to values, the
// tree under SortedSet (rank and range by rank).
//
// Entries sit in the leaves, values inline. An inner node keeps, per child,
// a separator and the number of entries below it, so a rank is one descent:
// the counts left of the path plus the index in the leaf. A node's Ords are
// one contiguous array searched first; a Tie is read only when two Ords are
// equal. The shape is a function of the operation stream alone (no PRNG),
// so replicas built from the same stream are identical.
type BTree[V any] struct {
	root   *btreeNode[V]
	height int // inner levels above the leaves; 0 while the root is a leaf
	length int
	free   *btreeNode[V] // nodes freed by merges, linked through next
}

// btreeB is the most entries a leaf, and children an inner node, holds;
// every node but the root holds at least btreeB/2. Chosen by paired
// benchmark runs against 16 and 64 (DESIGN.md §5d).
const btreeB = 32

// btreeMaxHeight bounds the inner levels: at the minimum fanout it holds
// more than 2^50 entries.
const btreeMaxHeight = 12

// btreeNode is a leaf (val) or an inner node (kid, cnt); the tree's height
// says which. Item i's key is ord[i], tie[i]. In an inner node key i > 0
// separates kid[i-1] from kid[i] (every key below kid[i] is >= it, every
// key below kid[i-1] < it) and key 0 is not read by searches. The children
// sit in an allocation of their own, so a leaf does not carry them.
type btreeNode[V any] struct {
	n   int
	ord [btreeB]uint64
	tie [btreeB]string
	val [btreeB]V
	*btreeKids[V]
	next *btreeNode[V] // on the free list
}

// btreeKids is an inner node's children and their entry counts.
type btreeKids[V any] struct {
	kid [btreeB]*btreeNode[V]
	cnt [btreeB]int // entries below kid[i]
}

// btreePath records a descent: at inner level h (1 = just above the
// leaves), the node and the index of the child taken.
type btreePath[V any] struct {
	node [btreeMaxHeight + 1]*btreeNode[V]
	idx  [btreeMaxHeight + 1]int
}

// NewBTree returns an empty tree.
func NewBTree[V any]() *BTree[V] { return &BTree[V]{root: new(btreeNode[V])} }

// Len returns the number of entries.
func (t *BTree[V]) Len() int { return t.length }

func (n *btreeNode[V]) key(i int) Key { return Key{Ord: n.ord[i], Tie: n.tie[i]} }

// search returns the index of the first key >= k.
func (n *btreeNode[V]) search(k Key) int {
	ord, i := n.ord[:n.n], 0
	for i < len(ord) && ord[i] < k.Ord {
		i++
	}
	for i < len(ord) && ord[i] == k.Ord && n.tie[i] < k.Tie {
		i++
	}
	return i
}

// holds reports whether key i is k.
func (n *btreeNode[V]) holds(i int, k Key) bool {
	return i < n.n && n.ord[i] == k.Ord && n.tie[i] == k.Tie
}

// child returns the index of the inner node's child whose range holds k.
func (n *btreeNode[V]) child(k Key) int {
	ord, i := n.ord[:n.n], 1
	for i < len(ord) && ord[i] < k.Ord {
		i++
	}
	for i < len(ord) && ord[i] == k.Ord && n.tie[i] <= k.Tie {
		i++
	}
	return i - 1
}

// size returns the number of entries at and below n.
func (n *btreeNode[V]) size(leaf bool) int {
	if leaf {
		return n.n
	}
	s := 0
	for _, c := range n.cnt[:n.n] {
		s += c
	}
	return s
}

// moveItems copies m items of src from j to dst at i; the ranges may
// overlap.
func moveItems[V any](dst *btreeNode[V], i int, src *btreeNode[V], j, m int, leaf bool) {
	copy(dst.ord[i:i+m], src.ord[j:j+m])
	copy(dst.tie[i:i+m], src.tie[j:j+m])
	if leaf {
		copy(dst.val[i:i+m], src.val[j:j+m])
	} else {
		copy(dst.kid[i:i+m], src.kid[j:j+m])
		copy(dst.cnt[i:i+m], src.cnt[j:j+m])
	}
}

// clearItems drops the references held by the items from i on, past the
// end.
func (n *btreeNode[V]) clearItems(i int, leaf bool) {
	clear(n.tie[i:])
	if leaf {
		clear(n.val[i:])
	} else {
		clear(n.kid[i:])
	}
}

// insertItem puts an item at i, shifting the items from i right: k, v in a
// leaf, k, kid, cnt in an inner node.
func (n *btreeNode[V]) insertItem(i int, k Key, v V, kid *btreeNode[V], cnt int, leaf bool) {
	moveItems(n, i+1, n, i, n.n-i, leaf)
	n.ord[i], n.tie[i] = k.Ord, k.Tie
	if leaf {
		n.val[i] = v
	} else {
		n.kid[i], n.cnt[i] = kid, cnt
	}
	n.n++
}

// removeItem deletes item i, shifting the items after it left.
func (n *btreeNode[V]) removeItem(i int, leaf bool) {
	moveItems(n, i, n, i+1, n.n-i-1, leaf)
	n.n--
	n.clearItems(n.n, leaf)
}

// descend walks from the root to the leaf whose range holds k, recording the
// inner nodes in p. It returns the leaf and the index of the first key >= k.
func (t *BTree[V]) descend(k Key, p *btreePath[V]) (*btreeNode[V], int) {
	n := t.root
	for h := t.height; h > 0; h-- {
		i := n.child(k)
		p.node[h], p.idx[h] = n, i
		n = n.kid[i]
	}
	return n, n.search(k)
}

// Get returns the value stored under k.
func (t *BTree[V]) Get(k Key) (V, bool) {
	n := t.root
	for h := t.height; h > 0; h-- {
		n = n.kid[n.child(k)]
	}
	if i := n.search(k); n.holds(i, k) {
		return n.val[i], true
	}
	var zero V
	return zero, false
}

// Insert adds k with v, or replaces the value if k is present. It reports
// whether k was newly inserted.
func (t *BTree[V]) Insert(k Key, v V) bool {
	var p btreePath[V]
	l, i := t.descend(k, &p)
	if l.holds(i, k) {
		l.val[i] = v
		return false
	}
	t.insertAt(&p, l, i, k, v)
	return true
}

// Delete removes k, reporting whether it was present.
func (t *BTree[V]) Delete(k Key) bool {
	var p btreePath[V]
	l, i := t.descend(k, &p)
	if !l.holds(i, k) {
		return false
	}
	t.deleteAt(&p, l, i)
	return true
}

// Move re-keys the entry stored under old to k with value v, and reports
// whether old was present. The result is that of Delete(old) then
// Insert(k, v), an entry already stored under k being replaced. If k still
// falls in old's leaf, between the separators that bound it, the entry
// slides inside the leaf: no count changes and nothing is allocated.
// Otherwise Move deletes and inserts, reusing the nodes merges freed.
func (t *BTree[V]) Move(old, k Key, v V) bool {
	var p btreePath[V]
	l, i := t.descend(old, &p)
	if !l.holds(i, old) {
		return false
	}
	if t.slide(&p, l, i, k, v) {
		return true
	}
	t.deleteAt(&p, l, i)
	if l, i = t.descend(k, &p); l.holds(i, k) {
		l.val[i] = v
	} else {
		t.insertAt(&p, l, i, k, v)
	}
	return true
}

// slide moves leaf l's entry i to k, reporting false, with nothing changed,
// unless k falls in l's range and no other entry of l is stored under k.
func (t *BTree[V]) slide(p *btreePath[V], l *btreeNode[V], i int, k Key, v V) bool {
	for h := 1; h <= t.height; h++ { // the nearest separators left and right
		if n, j := p.node[h], p.idx[h]; j > 0 {
			if k.less(n.key(j)) {
				return false
			}
			break
		}
	}
	for h := 1; h <= t.height; h++ {
		if n, j := p.node[h], p.idx[h]; j < n.n-1 {
			if !k.less(n.key(j + 1)) {
				return false
			}
			break
		}
	}
	j := l.search(k)
	switch {
	case l.holds(j, k) && j != i:
		return false
	case j > i:
		j--
		moveItems(l, i, l, i+1, j-i, true)
	case j < i:
		moveItems(l, j+1, l, j, i-j, true)
	}
	l.ord[j], l.tie[j], l.val[j] = k.Ord, k.Tie, v
	return true
}

// insertAt inserts k, which is absent, at index i of leaf l, the end of the
// descent recorded in p, and splits what overflows, bottom up.
func (t *BTree[V]) insertAt(p *btreePath[V], l *btreeNode[V], i int, k Key, v V) {
	t.length++
	for h := 1; h <= t.height; h++ {
		p.node[h].cnt[p.idx[h]]++
	}
	var (
		n   = l
		kid *btreeNode[V] // the item to insert into n: k, v at a leaf, k, kid, cnt above
		cnt int
	)
	for h := 0; ; h++ {
		leaf := h == 0
		if n.n < btreeB {
			n.insertItem(i, k, v, kid, cnt, leaf)
			return
		}
		const half = btreeB / 2
		r := t.alloc(leaf)
		moveItems(r, 0, n, half, btreeB-half, leaf)
		r.n, n.n = btreeB-half, half
		n.clearItems(half, leaf)
		if i <= half {
			n.insertItem(i, k, v, kid, cnt, leaf)
		} else {
			r.insertItem(i-half, k, v, kid, cnt, leaf)
		}
		rc := r.size(leaf)
		if h == t.height { // n is the root: grow a level
			root := t.alloc(false)
			root.n = 2
			root.ord[1], root.tie[1] = r.ord[0], r.tie[0]
			root.kid[0], root.cnt[0] = n, n.size(leaf)
			root.kid[1], root.cnt[1] = r, rc
			t.root = root
			t.height++
			return
		}
		parent, j := p.node[h+1], p.idx[h+1]
		parent.cnt[j] -= rc // it already counts the new entry
		k, kid, cnt, i = r.key(0), r, rc, j+1
		n = parent
	}
}

// deleteAt removes entry i of leaf l, the end of the descent recorded in p,
// and tops up what underflows, bottom up, by a borrow or a merge.
func (t *BTree[V]) deleteAt(p *btreePath[V], l *btreeNode[V], i int) {
	t.length--
	for h := 1; h <= t.height; h++ {
		p.node[h].cnt[p.idx[h]]--
	}
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
		t.height--
		t.release(old)
	}
}

// rebalance refills parent's child j, one item short of half full, from a
// sibling that can spare an item, or else merges it with a sibling.
func (t *BTree[V]) rebalance(parent *btreeNode[V], j int, leaf bool) {
	n := parent.kid[j]
	if j > 0 && parent.kid[j-1].n > btreeB/2 { // borrow the left sibling's last item
		s := parent.kid[j-1]
		last := s.n - 1
		moveItems(n, 1, n, 0, n.n, leaf)
		if !leaf {
			n.ord[1], n.tie[1] = parent.ord[j], parent.tie[j]
		}
		moveItems(n, 0, s, last, 1, leaf)
		n.n++
		parent.ord[j], parent.tie[j] = s.ord[last], s.tie[last]
		moved := 1
		if !leaf {
			moved = n.cnt[0]
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
			n.ord[n.n], n.tie[n.n] = parent.ord[j+1], parent.tie[j+1]
		}
		moved := 1
		if !leaf {
			moved = n.cnt[n.n]
		}
		n.n++
		s.removeItem(0, leaf)
		parent.ord[j+1], parent.tie[j+1] = s.ord[0], s.tie[0]
		parent.cnt[j] += moved
		parent.cnt[j+1] -= moved
		return
	}
	if j == 0 { // merge child j+1 into child j, or child j into child j-1
		j = 1
	}
	left, right := parent.kid[j-1], parent.kid[j]
	moveItems(left, left.n, right, 0, right.n, leaf)
	if !leaf {
		left.ord[left.n], left.tie[left.n] = parent.ord[j], parent.tie[j]
	}
	left.n += right.n
	parent.cnt[j-1] += parent.cnt[j]
	parent.removeItem(j, false)
	t.release(right)
}

// alloc returns an empty node, a recycled one if a merge freed any.
func (t *BTree[V]) alloc(leaf bool) *btreeNode[V] {
	n := t.free
	if n == nil {
		n = new(btreeNode[V])
	} else {
		t.free, n.next = n.next, nil
	}
	if !leaf && n.btreeKids == nil {
		n.btreeKids = new(btreeKids[V])
	}
	return n
}

// release keeps n, which no longer belongs to the tree, for alloc, with
// its children's arrays cleared but kept.
func (t *BTree[V]) release(n *btreeNode[V]) {
	kids := n.btreeKids
	*n = btreeNode[V]{btreeKids: kids, next: t.free}
	if kids != nil {
		*kids = btreeKids[V]{}
	}
	t.free = n
}

// Rank returns the 0-based position of k in sorted order, or false if k is
// absent: the counts left of the descent plus k's index in its leaf.
func (t *BTree[V]) Rank(k Key) (int, bool) {
	n, r := t.root, 0
	for h := t.height; h > 0; h-- {
		i := n.child(k)
		for _, c := range n.cnt[:i] {
			r += c
		}
		n = n.kid[i]
	}
	if i := n.search(k); n.holds(i, k) {
		return r + i, true
	}
	return 0, false
}

// ByRank returns the key and value at 0-based sorted position r.
func (t *BTree[V]) ByRank(r int) (Key, V, bool) {
	if r < 0 || r >= t.length {
		var zero V
		return Key{}, zero, false
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
	return n.key(r), n.val[r], true
}

// Range calls fn for the entries with ranks in [lo, hi] (inclusive,
// 0-based), in order, until fn returns false. Out-of-range bounds are
// clamped.
func (t *BTree[V]) Range(lo, hi int, fn func(k Key, v V) bool) {
	t.root.walk(t.height, max(lo, 0), min(hi, t.length-1), fn)
}

// walk is Range below n, at height h, with lo and hi relative to n's first
// entry; it reports whether fn asked for more.
func (n *btreeNode[V]) walk(h, lo, hi int, fn func(Key, V) bool) bool {
	if h == 0 {
		for i := lo; i <= hi; i++ {
			if !fn(n.key(i), n.val[i]) {
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
