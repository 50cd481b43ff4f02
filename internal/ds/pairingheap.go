package ds

// PairingHeap is a sequential min-priority queue (Fredman, Sedgewick,
// Sleator, Tarjan [26]). Insert and FindMin are O(1); DeleteMin is
// O(log n) amortized.
type PairingHeap[K any] struct {
	less   func(a, b K) bool
	root   *pairNode[K]
	length int
}

type pairNode[K any] struct {
	key     K
	child   *pairNode[K] // leftmost child
	sibling *pairNode[K] // next sibling to the right
}

// NewPairingHeap returns an empty pairing heap ordered by less.
func NewPairingHeap[K any](less func(a, b K) bool) *PairingHeap[K] {
	return &PairingHeap[K]{less: less}
}

// Len returns the number of elements.
func (h *PairingHeap[K]) Len() int { return h.length }

// Insert adds key to the heap.
func (h *PairingHeap[K]) Insert(key K) {
	h.root = h.meld(h.root, &pairNode[K]{key: key})
	h.length++
}

// FindMin returns the smallest key without removing it.
func (h *PairingHeap[K]) FindMin() (K, bool) {
	if h.root == nil {
		var zero K
		return zero, false
	}
	return h.root.key, true
}

// DeleteMin removes and returns the smallest key.
func (h *PairingHeap[K]) DeleteMin() (K, bool) {
	if h.root == nil {
		var zero K
		return zero, false
	}
	min := h.root.key
	h.root = h.mergePairs(h.root.child)
	h.length--
	return min, true
}

func (h *PairingHeap[K]) meld(a, b *pairNode[K]) *pairNode[K] {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if h.less(b.key, a.key) {
		a, b = b, a
	}
	// b becomes a's leftmost child.
	b.sibling = a.child
	a.child = b
	return a
}

// mergePairs implements the two-pass pairing strategy iteratively to avoid
// deep recursion on adversarial shapes.
func (h *PairingHeap[K]) mergePairs(first *pairNode[K]) *pairNode[K] {
	if first == nil {
		return nil
	}
	// Pass 1: meld adjacent pairs left to right.
	var pairs []*pairNode[K]
	for first != nil {
		a := first
		b := a.sibling
		if b == nil {
			a.sibling = nil
			pairs = append(pairs, a)
			break
		}
		first = b.sibling
		a.sibling, b.sibling = nil, nil
		pairs = append(pairs, h.meld(a, b))
	}
	// Pass 2: meld right to left.
	result := pairs[len(pairs)-1]
	for i := len(pairs) - 2; i >= 0; i-- {
		result = h.meld(pairs[i], result)
	}
	return result
}
