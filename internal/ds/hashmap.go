package ds

// HashMap is a sequential chained hash table. It rehashes in one shot when
// the load factor exceeds 3/4, doubling the bucket array, as the dict used by
// Redis does (§7 of the paper notes the resize path must be treated as an
// update under black-box methods).
//
// It is kept instead of a Go map for its entries, which never move: a
// sorted-set member is its entry, which the sorted set's tree points at and
// which ZINCRBY reads and rewrites after one hash, where a map needs two, a
// lookup and then an assignment. With Go maps under SortedSet and the
// miniredis Store, the lib-durable benchmark (100% ZINCRBY, 2-CPU x86-64,
// medians of 6 paired 10 s runs) fell from 1.135 M to 1.017 M ops/s;
// pointer-valued maps took it to 0.883 M.
type HashMap[V any] struct {
	buckets []*hashEntry[V]
	length  int
	mask    uint64
}

type hashEntry[V any] struct {
	key  string
	hash uint64
	val  V
	next *hashEntry[V]
}

const hashMapMinBuckets = 16

// NewHashMap returns an empty map sized for capacity elements.
func NewHashMap[V any](capacity int) *HashMap[V] {
	n := hashMapMinBuckets
	for n < capacity {
		n <<= 1
	}
	return &HashMap[V]{buckets: make([]*hashEntry[V], n), mask: uint64(n - 1)}
}

// fnv1a hashes key with 64-bit FNV-1a.
func fnv1a(key string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return h
}

// Len returns the number of entries.
func (m *HashMap[V]) Len() int { return m.length }

// Set stores val under key, reporting whether the key was newly inserted.
func (m *HashMap[V]) Set(key string, val V) bool {
	h := fnv1a(key)
	for e := m.buckets[h&m.mask]; e != nil; e = e.next {
		if e.hash == h && e.key == key {
			e.val = val
			return false
		}
	}
	m.add(key, h, val)
	return true
}

// add inserts key, which is absent and hashes to h, and returns its entry.
func (m *HashMap[V]) add(key string, h uint64, val V) *hashEntry[V] {
	idx := h & m.mask
	e := &hashEntry[V]{key: key, hash: h, val: val, next: m.buckets[idx]}
	m.buckets[idx] = e
	m.length++
	if m.length > len(m.buckets)*3/4 {
		m.grow()
	}
	return e
}

// Get returns the value stored under key.
func (m *HashMap[V]) Get(key string) (V, bool) {
	if e := m.entry(key); e != nil {
		return e.val, true
	}
	var zero V
	return zero, false
}

// entry returns key's entry, or nil if the key is absent. An entry never
// moves: it is the same object from add until Delete.
func (m *HashMap[V]) entry(key string) *hashEntry[V] {
	h := fnv1a(key)
	for e := m.buckets[h&m.mask]; e != nil; e = e.next {
		if e.hash == h && e.key == key {
			return e
		}
	}
	return nil
}

// Delete removes key, reporting whether it was present.
func (m *HashMap[V]) Delete(key string) bool {
	h := fnv1a(key)
	idx := h & m.mask
	var prev *hashEntry[V]
	for e := m.buckets[idx]; e != nil; prev, e = e, e.next {
		if e.hash == h && e.key == key {
			if prev == nil {
				m.buckets[idx] = e.next
			} else {
				prev.next = e.next
			}
			m.length--
			return true
		}
	}
	return false
}

// Range calls fn for every entry in bucket order until fn returns false.
func (m *HashMap[V]) Range(fn func(key string, val V) bool) {
	for _, b := range m.buckets {
		for e := b; e != nil; e = e.next {
			if !fn(e.key, e.val) {
				return
			}
		}
	}
}

func (m *HashMap[V]) grow() {
	old := m.buckets
	m.buckets = make([]*hashEntry[V], len(old)*2)
	m.mask = uint64(len(m.buckets) - 1)
	for _, b := range old {
		for e := b; e != nil; {
			next := e.next
			idx := e.hash & m.mask
			e.next = m.buckets[idx]
			m.buckets[idx] = e
			e = next
		}
	}
}
