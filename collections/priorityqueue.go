package collections

import (
	"errors"

	nr "github.com/asplos17/nr"
)

// pqOpKind enumerates priority-queue operations.
type pqOpKind uint8

const (
	pqPush pqOpKind = iota
	pqPopMin
	pqPeekMin
	pqLen
)

type pqOp[T any] struct {
	kind pqOpKind
	item T
	prio int64
}

type pqResp[T any] struct {
	item T
	prio int64
	n    int
	ok   bool
}

// seqPQ is a sequential binary min-heap keyed by an int64 priority.
type seqPQ[T any] struct {
	items []pqEntry[T]
	next  uint64 // monotone insertion counter; deterministic across replicas
}

type pqEntry[T any] struct {
	item T
	prio int64
	seq  uint64 // insertion order breaks priority ties FIFO
}

func (q *seqPQ[T]) less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

func (q *seqPQ[T]) Execute(op pqOp[T]) pqResp[T] {
	switch op.kind {
	case pqPush:
		q.next++
		q.items = append(q.items, pqEntry[T]{item: op.item, prio: op.prio, seq: q.next})
		for i := len(q.items) - 1; i > 0; {
			parent := (i - 1) / 2
			if !q.less(i, parent) {
				break
			}
			q.items[i], q.items[parent] = q.items[parent], q.items[i]
			i = parent
		}
		return pqResp[T]{ok: true}
	case pqPopMin:
		if len(q.items) == 0 {
			return pqResp[T]{}
		}
		top := q.items[0]
		last := len(q.items) - 1
		q.items[0] = q.items[last]
		q.items = q.items[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			smallest := i
			if l < last && q.less(l, smallest) {
				smallest = l
			}
			if r < last && q.less(r, smallest) {
				smallest = r
			}
			if smallest == i {
				break
			}
			q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
			i = smallest
		}
		return pqResp[T]{item: top.item, prio: top.prio, ok: true}
	case pqPeekMin:
		if len(q.items) == 0 {
			return pqResp[T]{}
		}
		return pqResp[T]{item: q.items[0].item, prio: q.items[0].prio, ok: true}
	case pqLen:
		return pqResp[T]{n: len(q.items), ok: true}
	}
	return pqResp[T]{}
}

func (q *seqPQ[T]) IsReadOnly(op pqOp[T]) bool {
	return op.kind == pqPeekMin || op.kind == pqLen
}

// PriorityQueue is a linearizable, NUMA-aware min-priority queue: items pop
// in ascending priority order, FIFO within equal priorities.
type PriorityQueue[T any] struct {
	inst *nr.Instance[pqOp[T], pqResp[T]]
}

// NewPriorityQueue builds a priority queue replicated per the given nr
// options (default topology with none).
func NewPriorityQueue[T any](opts ...nr.Option) (*PriorityQueue[T], error) {
	inst, err := nr.New(func() nr.Sequential[pqOp[T], pqResp[T]] {
		return &seqPQ[T]{}
	}, opts...)
	if err != nil {
		return nil, err
	}
	return &PriorityQueue[T]{inst: inst}, nil
}

// PriorityQueueHandle executes operations for one goroutine.
type PriorityQueueHandle[T any] struct {
	h *nr.Handle[pqOp[T], pqResp[T]]
}

// Register binds the calling goroutine to the queue.
func (q *PriorityQueue[T]) Register() (*PriorityQueueHandle[T], error) {
	h, err := q.inst.Register()
	if err != nil {
		return nil, err
	}
	return &PriorityQueueHandle[T]{h: h}, nil
}

// ErrEmpty reports a pop or peek on an empty queue.
var ErrEmpty = errors.New("collections: empty")

// Push adds item with the given priority (smaller pops first).
func (h *PriorityQueueHandle[T]) Push(item T, priority int64) {
	h.h.Execute(pqOp[T]{kind: pqPush, item: item, prio: priority})
}

// PopMin removes and returns the lowest-priority item.
func (h *PriorityQueueHandle[T]) PopMin() (T, int64, error) {
	r := h.h.Execute(pqOp[T]{kind: pqPopMin})
	if !r.ok {
		var zero T
		return zero, 0, ErrEmpty
	}
	return r.item, r.prio, nil
}

// PeekMin returns the lowest-priority item without removing it.
func (h *PriorityQueueHandle[T]) PeekMin() (T, int64, error) {
	r := h.h.Execute(pqOp[T]{kind: pqPeekMin})
	if !r.ok {
		var zero T
		return zero, 0, ErrEmpty
	}
	return r.item, r.prio, nil
}

// Len returns the number of queued items.
func (h *PriorityQueueHandle[T]) Len() int {
	return h.h.Execute(pqOp[T]{kind: pqLen}).n
}
