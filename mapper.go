package nr

import (
	"fmt"
	"hash/maphash"
	"reflect"
)

// KeyMapper builds the ready-made key-hash LogMapper for WithLogs: key
// extracts the comparable key an operation touches, or reports false for an
// operation that spans keys (classified CrossLog), and keys spread uniformly
// over classes under a randomly seeded hash (stable within one process,
// deliberately not across processes: classes are not a persistence
// boundary). A structure partitioned per class can hold the mapper and ask
// it where a key lives.
func KeyMapper[O any, K comparable](classes int, key func(O) (K, bool)) LogMapper[O] {
	seed := maphash.MakeSeed()
	n := uint64(max(classes, 1))
	return LogMapperFunc[O](func(op O) int {
		k, ok := key(op)
		if !ok {
			return CrossLog
		}
		return int(maphash.Comparable(seed, k) % n)
	})
}

// CheckMapperCommutes probes the LogMapper contract for one pair of
// operations: if mapper assigns a and b different conflict classes (neither
// being CrossLog), they must commute on the sequential structure — applying
// them in either order must yield the same responses and leave the
// structure in an equivalent state, as observed through the probe
// operations. It returns nil when the pair is unconstrained (same class, or
// either is CrossLog) or commutes, and a descriptive error otherwise.
//
// create must build a fresh structure in the same initial state on every
// call (the same requirement New places on it); the checker builds two,
// applies [a, b] to one and [b, a] to the other, and compares the two
// response pairs plus each probe's response against both results. Responses
// are compared with reflect.DeepEqual.
//
// The check is sound but necessarily incomplete — it proves a violation,
// never the absence of one — so drive it from a fuzzer or a generated
// operation corpus, as this repo's multi-log fuzz tests do:
//
//	f.Fuzz(func(t *testing.T, ka, kb int64, ...) {
//	    if err := nr.CheckMapperCommutes(create, mapper, probes, opA, opB); err != nil {
//	        t.Fatal(err)
//	    }
//	})
func CheckMapperCommutes[O, R any](create func() Sequential[O, R], mapper LogMapper[O], probes []O, a, b O) error {
	if create == nil {
		return fmt.Errorf("nr: CheckMapperCommutes: create function is nil")
	}
	if mapper == nil {
		return fmt.Errorf("nr: CheckMapperCommutes: mapper is nil")
	}
	ca, cb := mapper.LogIndex(a), mapper.LogIndex(b)
	if ca == cb || ca == CrossLog || cb == CrossLog {
		return nil // same class or cross-class: serialized by the protocol, no commutativity owed
	}
	s1, s2 := create(), create()
	ra1 := s1.Execute(a)
	rb1 := s1.Execute(b)
	rb2 := s2.Execute(b)
	ra2 := s2.Execute(a)
	if !reflect.DeepEqual(ra1, ra2) {
		return fmt.Errorf("nr: mapper contract violated: op %+v (class %d) answers %v before op %+v (class %d) but %v after it",
			a, ca, ra1, b, cb, ra2)
	}
	if !reflect.DeepEqual(rb1, rb2) {
		return fmt.Errorf("nr: mapper contract violated: op %+v (class %d) answers %v after op %+v (class %d) but %v before it",
			b, cb, rb1, a, ca, rb2)
	}
	for _, p := range probes {
		p1, p2 := s1.Execute(p), s2.Execute(p)
		if !reflect.DeepEqual(p1, p2) {
			return fmt.Errorf("nr: mapper contract violated: probe %+v observes %v after [%+v then %+v] but %v after [%+v then %+v] (classes %d, %d)",
				p, p1, a, b, p2, b, a, ca, cb)
		}
	}
	return nil
}
