package miniredis

import (
	"hash/maphash"
	"math/bits"
	"math/rand/v2"
	"sync/atomic"
)

// The server's intern table: internSets sets of internWays slots, and only
// pairs of at most internMaxPair bytes of key and member are kept. Its
// slots take 256 KiB, and the entries it keeps hold at most
// internSets × internWays × (internMaxPair + 2) bytes, about 2.2 MB.
const (
	internSets    = 1 << 13
	internWays    = 4
	internMaxPair = 64
)

// internTable holds one copy of each recurring update pair (key and
// member), so that an update seen before takes its owned strings from the
// table instead of allocating them (parseServed).
//
// It takes no lock. A slot is an atomic pointer to an entry (packPair),
// which is immutable once published, so a reader sees a whole entry or
// none. Two goroutines that miss on the same pair each publish their own
// copy, which costs at most a slot and a later miss. A full set evicts a
// random way: the evicted entry lives on in whatever op, log cell or
// keyspace member still points to it, and is collected after.
type internTable struct {
	seed  maphash.Seed
	mask  uint64 // sets - 1
	slots []atomic.Pointer[byte]
}

// newInternTable returns an empty table of sets × internWays slots; sets
// must be a power of two.
func newInternTable(sets int) *internTable {
	return &internTable{
		seed:  maphash.MakeSeed(),
		mask:  uint64(sets - 1),
		slots: make([]atomic.Pointer[byte], sets*internWays),
	}
}

// own returns key and member as strings that share no byte with the
// arguments: the table's copy of the pair if it holds one (no allocation),
// else a fresh copy in one allocation, published for the next time if the
// pair is at most internMaxPair bytes long. Equal means equal key and
// equal member, so ("ab", "c") and ("a", "bc") are two pairs.
func (t *internTable) own(key, member string) (string, string) {
	n := len(key) + len(member)
	if n == 0 {
		return key, member
	}
	if n > internMaxPair {
		s := view(append(append(make([]byte, 0, n), key...), member...))
		return s[:len(key)], s[len(key):]
	}
	// Key and member are hashed apart, so where the key ends is part of
	// the hash.
	h := maphash.String(t.seed, key) ^ bits.RotateLeft64(maphash.String(t.seed, member), 29)
	i := (h & t.mask) * internWays
	set := t.slots[i : i+internWays]
	// A set's ways fill in order and are never emptied, so the first empty
	// way ends the search and is where the new entry goes.
	w := 0
	for ; w < internWays; w++ {
		e := set[w].Load()
		if e == nil {
			break
		}
		if k, m := unpackPair(e); k == key && m == member {
			return k, m
		}
	}
	if w == internWays {
		w = rand.IntN(internWays)
	}
	e := packPair(key, member)
	set[w].Store(e)
	return unpackPair(e)
}
