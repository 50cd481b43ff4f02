package collections

import (
	nr "github.com/asplos17/nr"
)

// seqPartMap is the sequential structure behind NewMapWithLogs: the key
// space is hash-split into one sub-map per conflict class. Multi-log NR
// may apply different classes' batches to the SAME replica concurrently
// (each log has its own per-replica combiner and writer lock), so the
// structure must tolerate that — disjoint sub-maps do, a single Go map
// would race. Every replica asks the instance's own log mapper which class
// owns a key, so all of them agree.
type seqPartMap[K comparable, V any] struct {
	class nr.LogMapper[mapOp[K, V]]
	parts []map[K]V
}

// part returns the sub-map of a per-key op's class.
func (s *seqPartMap[K, V]) part(op mapOp[K, V]) map[K]V {
	return s.parts[s.class.LogIndex(op)]
}

func (s *seqPartMap[K, V]) Execute(op mapOp[K, V]) mapResp[V] {
	switch op.kind {
	case mapGet:
		v, ok := s.part(op)[op.key]
		return mapResp[V]{val: v, ok: ok}
	case mapPut:
		p := s.part(op)
		_, existed := p[op.key]
		p[op.key] = op.val
		return mapResp[V]{ok: !existed}
	case mapDelete:
		p := s.part(op)
		_, ok := p[op.key]
		delete(p, op.key)
		return mapResp[V]{ok: ok}
	case mapLen:
		n := 0
		for _, p := range s.parts {
			n += len(p)
		}
		return mapResp[V]{n: n, ok: true}
	}
	return mapResp[V]{}
}

func (s *seqPartMap[K, V]) IsReadOnly(op mapOp[K, V]) bool {
	return op.kind == mapGet || op.kind == mapLen
}

// NewMapWithLogs builds a Map whose single NR instance runs `logs`
// commutativity-partitioned logs (nr.WithLogs): per-key operations are
// hashed to a conflict class and only contend with that class, while Len
// spans every class and serializes through the cross-log barrier — unlike
// NewShardedMap's Len, it stays fully linearizable. Compared with
// NewShardedMap this keeps ONE set of replicas (one structure per node,
// single memory footprint) and one registration per goroutine; sharding
// multiplies whole instances. The extra opts are passed through to nr.New
// and must not include another WithLogs.
func NewMapWithLogs[K comparable, V any](logs int, opts ...nr.Option) (*Map[K, V], error) {
	logs = max(logs, 1) // match core's Logs <= 0 → single-log default
	mapper := nr.KeyMapper(logs, mapKey[K, V])
	all := append(append([]nr.Option(nil), opts...), nr.WithLogs(logs, mapper))
	inst, err := nr.New(func() nr.Sequential[mapOp[K, V], mapResp[V]] {
		s := &seqPartMap[K, V]{class: mapper, parts: make([]map[K]V, logs)}
		for i := range s.parts {
			s.parts[i] = make(map[K]V)
		}
		return s
	}, all...)
	if err != nil {
		return nil, err
	}
	return &Map[K, V]{inst: inst}, nil
}
