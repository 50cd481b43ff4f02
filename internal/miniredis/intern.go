package miniredis

import (
	"hash/maphash"
	"math/bits"
	"math/rand/v2"
	"sync/atomic"
)

// The server's intern table: internSets sets of internWays slots, and only
// pairs of at most internMaxPair bytes of key and member are kept. A set is
// one 64-byte line, a word of tags and the slots, so the table takes
// 256 KiB, and the entries it keeps hold at most
// internSets × internWays × (internMaxPair + 2) bytes, about 1.9 MB.
const (
	internSets    = 1 << 12
	internWays    = 7
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
//
// Beside its slots, each set keeps a byte of tag per way: 0 until the way
// is first published, then a byte of the hash of the pair last published
// there. A lookup reads an entry only where the tag matches, so a miss
// reads no entry at all. Tags are hints. A way's tag is written after its
// slot, so a way with a tag always has an entry, but two publishers racing
// on one way may leave the tag of the pair that lost. Such a stale tag
// costs a copy, never a wrong pair: a pair is returned only once its key
// and member compare equal.
type internTable struct {
	seed maphash.Seed
	mask uint64 // sets - 1
	sets []internSet
}

// internSet is one set of the table, a cache line: way w's tag is byte w
// of tags, and the top byte is always 0.
type internSet struct {
	tags  atomic.Uint64
	slots [internWays]atomic.Pointer[byte]
}

// newInternTable returns an empty table of sets sets; sets must be a power
// of two.
func newInternTable(sets int) *internTable {
	return &internTable{
		seed: maphash.MakeSeed(),
		mask: uint64(sets - 1),
		sets: make([]internSet, sets),
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
	tag := max(byte(h>>56), 1) // the set index takes h's low bits
	set := &t.sets[h&t.mask]
	tags := set.tags.Load()
	for hits := zeroBytes(tags ^ uint64(tag)*0x0101010101010101); hits != 0; hits &= hits - 1 {
		w := bits.TrailingZeros64(hits) / 8
		if k, m := unpackPair(set.slots[w].Load()); k == key && m == member {
			return k, m
		}
	}
	// A set's ways fill in order and are never emptied, so the first way
	// without a tag is where the new entry goes.
	free := zeroBytes(tags)
	w := bits.TrailingZeros64(free) / 8
	if free == 0 {
		w = rand.IntN(internWays)
	}
	e := packPair(key, member)
	set.slots[w].Store(e)
	shift := 8 * w
	for old := set.tags.Load(); !set.tags.CompareAndSwap(old, old&^(0xff<<shift)|uint64(tag)<<shift); old = set.tags.Load() {
	}
	return unpackPair(e)
}

// zeroBytes returns the high bit of each of the low internWays bytes of v
// that is zero, and no other bit.
func zeroBytes(v uint64) uint64 {
	const lo7, ways = 0x7f7f7f7f7f7f7f7f, 1<<(8*internWays) - 1
	return ^((v&lo7 + lo7) | v | lo7) & ways
}
