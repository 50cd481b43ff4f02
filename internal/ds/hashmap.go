package ds

// HashMap is a sequential chained hash table with incremental-free semantics:
// it rehashes in one shot when the load factor exceeds 3/4, doubling the
// bucket array, mirroring the dict used by Redis (§7 of the paper notes the
// resize path must be treated as an update under black-box methods).
//
// It exists (rather than using Go's built-in map) so that replicas built from
// the same operation stream are bit-for-bit deterministic, so memory
// accounting is possible, and so iteration order is stable.
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
	idx := h & m.mask
	for e := m.buckets[idx]; e != nil; e = e.next {
		if e.hash == h && e.key == key {
			e.val = val
			return false
		}
	}
	m.buckets[idx] = &hashEntry[V]{key: key, hash: h, val: val, next: m.buckets[idx]}
	m.length++
	if m.length > len(m.buckets)*3/4 {
		m.grow()
	}
	return true
}

// Get returns the value stored under key.
func (m *HashMap[V]) Get(key string) (V, bool) {
	if p := m.Ref(key); p != nil {
		return *p, true
	}
	var zero V
	return zero, false
}

// Ref returns a pointer to the value stored under key, or nil if the key is
// absent: one lookup for a caller that reads the value and then writes it.
// The pointer is valid until the key is deleted.
func (m *HashMap[V]) Ref(key string) *V {
	h := fnv1a(key)
	for e := m.buckets[h&m.mask]; e != nil; e = e.next {
		if e.hash == h && e.key == key {
			return &e.val
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
