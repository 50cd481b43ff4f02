// Package collections provides ready-made concurrent containers built on
// Node Replication: a hash map, a priority queue, and a sorted set with
// ordinary typed APIs. Each is the corresponding sequential structure from
// this repository passed through nr.New — exactly what a user would write
// by hand with the black-box API, packaged.
//
// Usage follows the NR model: construct the container, then Register once
// per goroutine to get a handle; handles are not safe for concurrent use,
// instances are.
//
//	m, _ := collections.NewMap[string, int]()
//	h, _ := m.Register()
//	h.Put("k", 1)
//	v, ok := h.Get("k")
package collections

import (
	nr "github.com/asplos17/nr"
)

// mapOpKind enumerates map operations.
type mapOpKind uint8

const (
	mapGet mapOpKind = iota
	mapPut
	mapDelete
	mapLen
)

type mapOp[K comparable, V any] struct {
	kind mapOpKind
	key  K
	val  V
}

type mapResp[V any] struct {
	val V
	n   int
	ok  bool
}

// seqMap is the sequential structure replicated by NR.
type seqMap[K comparable, V any] struct {
	m map[K]V
}

func (s *seqMap[K, V]) Execute(op mapOp[K, V]) mapResp[V] {
	switch op.kind {
	case mapGet:
		v, ok := s.m[op.key]
		return mapResp[V]{val: v, ok: ok}
	case mapPut:
		_, existed := s.m[op.key]
		s.m[op.key] = op.val
		return mapResp[V]{ok: !existed}
	case mapDelete:
		_, ok := s.m[op.key]
		delete(s.m, op.key)
		return mapResp[V]{ok: ok}
	case mapLen:
		return mapResp[V]{n: len(s.m), ok: true}
	}
	return mapResp[V]{}
}

func (s *seqMap[K, V]) IsReadOnly(op mapOp[K, V]) bool {
	return op.kind == mapGet || op.kind == mapLen
}

// mapKey is the key function of the map's conflict classes (nr.KeyMapper):
// per-key operations belong to their key's class, Len spans them all.
func mapKey[K comparable, V any](op mapOp[K, V]) (K, bool) {
	return op.key, op.kind != mapLen
}

// Map is a linearizable, NUMA-aware hash map: one set of replicas over one
// log under NewMap, or over logs partitioned by key hash under
// NewMapWithLogs, behind the same typed API.
type Map[K comparable, V any] struct {
	inst *nr.Instance[mapOp[K, V], mapResp[V]]
}

// NewMap builds a map replicated per the given nr options (default topology
// with none).
func NewMap[K comparable, V any](opts ...nr.Option) (*Map[K, V], error) {
	inst, err := nr.New(func() nr.Sequential[mapOp[K, V], mapResp[V]] {
		return &seqMap[K, V]{m: make(map[K]V)}
	}, opts...)
	if err != nil {
		return nil, err
	}
	return &Map[K, V]{inst: inst}, nil
}

// MapHandle executes map operations for one goroutine.
type MapHandle[K comparable, V any] struct {
	h *nr.Handle[mapOp[K, V], mapResp[V]]
}

// Register binds the calling goroutine to the map.
func (m *Map[K, V]) Register() (*MapHandle[K, V], error) {
	h, err := m.inst.Register()
	if err != nil {
		return nil, err
	}
	return &MapHandle[K, V]{h: h}, nil
}

// Stats exposes the underlying NR counters.
func (m *Map[K, V]) Stats() nr.Stats { return m.inst.Stats() }

// Metrics exposes the unified observability snapshot.
func (m *Map[K, V]) Metrics() nr.Metrics { return m.inst.Metrics() }

// Close stops the underlying instance's background goroutines.
func (m *Map[K, V]) Close() { m.inst.Close() }

// Get returns the value stored under key.
func (h *MapHandle[K, V]) Get(key K) (V, bool) {
	r := h.h.Execute(mapOp[K, V]{kind: mapGet, key: key})
	return r.val, r.ok
}

// Put stores val under key, reporting whether the key was newly inserted.
func (h *MapHandle[K, V]) Put(key K, val V) bool {
	return h.h.Execute(mapOp[K, V]{kind: mapPut, key: key, val: val}).ok
}

// Delete removes key, reporting whether it was present.
func (h *MapHandle[K, V]) Delete(key K) bool {
	return h.h.Execute(mapOp[K, V]{kind: mapDelete, key: key}).ok
}

// Len returns the number of entries, linearizably: under NewMapWithLogs it
// spans every class and goes through the cross-log barrier.
func (h *MapHandle[K, V]) Len() int {
	return h.h.Execute(mapOp[K, V]{kind: mapLen}).n
}
