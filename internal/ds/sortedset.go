package ds

import "math"

// SortedSet is a Redis-style sorted set: members (strings) with float64
// scores, backed by a hash map for O(1) member lookup and an order-statistic
// B+tree keyed by FloatKey(score, member) for O(log n) rank and range
// queries. Every update keeps both structures consistent — these are the
// "coupled data structures" of §6 that lock-free algorithms fundamentally
// cannot compose, and that NR updates atomically by treating the pair as one
// black box.
type SortedSet struct {
	byMember *HashMap[float64]
	// byScore's value is the stored score: the key sorts -0 with +0, the
	// value keeps the float exactly as it was set.
	byScore *BTree[float64]
}

// NewSortedSet returns an empty sorted set.
func NewSortedSet(capacity int) *SortedSet {
	return &SortedSet{
		byMember: NewHashMap[float64](capacity),
		byScore:  NewBTree[float64](),
	}
}

// Len returns the number of members.
func (z *SortedSet) Len() int { return z.byMember.Len() }

// Add sets member's score, reporting whether the member was newly added.
// Matches Redis ZADD. A NaN score has no place in the order and is ignored.
func (z *SortedSet) Add(member string, score float64) bool {
	if score != score {
		return false
	}
	if p := z.byMember.Ref(member); p != nil {
		z.rescore(p, member, score)
		return false
	}
	z.insert(member, score)
	return true
}

// IncrBy adds delta to member's score (creating it at delta if absent) and
// returns the new score. Matches Redis ZINCRBY, down to zslUpdateScore: the
// member's entry is moved, not deleted and reinserted. If the new
// score would be NaN (a NaN delta, or inf + -inf) nothing changes and NaN is
// returned.
func (z *SortedSet) IncrBy(member string, delta float64) float64 {
	p := z.byMember.Ref(member)
	if p == nil {
		if delta == delta {
			z.insert(member, delta)
		}
		return delta
	}
	score := *p + delta
	if score == score {
		z.rescore(p, member, score)
	}
	return score
}

// insert adds a member known to be absent.
func (z *SortedSet) insert(member string, score float64) {
	z.byMember.Set(member, score)
	z.byScore.Insert(FloatKey(score, member), score)
}

// rescore moves a present member, whose hash-map value p points to, to
// score; an unchanged score leaves the tree alone.
func (z *SortedSet) rescore(p *float64, member string, score float64) {
	if *p == score {
		return
	}
	z.byScore.Move(FloatKey(*p, member), FloatKey(score, member), score)
	*p = score
}

// Remove deletes member, reporting whether it was present.
func (z *SortedSet) Remove(member string) bool {
	score, ok := z.byMember.Get(member)
	if !ok {
		return false
	}
	z.byMember.Delete(member)
	z.byScore.Delete(FloatKey(score, member))
	return true
}

// Score returns member's score.
func (z *SortedSet) Score(member string) (float64, bool) {
	return z.byMember.Get(member)
}

// Rank returns member's 0-based rank in ascending (score, member) order.
// Matches Redis ZRANK: hash lookup first, then the tree's rank (§8.3).
func (z *SortedSet) Rank(member string) (int, bool) {
	score, ok := z.byMember.Get(member)
	if !ok {
		return 0, false
	}
	return z.byScore.Rank(FloatKey(score, member))
}

// Range calls fn for members with ranks in [lo, hi] inclusive, ascending.
func (z *SortedSet) Range(lo, hi int, fn func(member string, score float64) bool) {
	z.byScore.Range(lo, hi, func(k Key, score float64) bool {
		return fn(k.Tie, score)
	})
}

// ByRank returns the member and score at 0-based rank r.
func (z *SortedSet) ByRank(r int) (member string, score float64, ok bool) {
	k, score, ok := z.byScore.ByRank(r)
	return k.Tie, score, ok
}

// consistent reports whether the two underlying structures agree, down to
// the bits of every stored score; tests only.
func (z *SortedSet) consistent() bool {
	if z.byMember.Len() != z.byScore.Len() {
		return false
	}
	ok := true
	z.byMember.Range(func(member string, score float64) bool {
		got, found := z.byScore.Get(FloatKey(score, member))
		ok = found && math.Float64bits(got) == math.Float64bits(score)
		return ok
	})
	return ok
}
