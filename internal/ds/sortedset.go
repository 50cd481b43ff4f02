package ds

// SortedSet is a Redis-style sorted set: members (strings) with float64
// scores, backed by a hash map for O(1) member lookup and an order-statistic
// B+tree over (score, member) for O(log n) rank and range queries. Every
// update keeps both structures consistent — these are the "coupled data
// structures" of §6 that lock-free algorithms fundamentally cannot compose,
// and that NR updates atomically by treating the pair as one black box.
//
// A member is one object, its hash-map entry: the name, the exact score
// and the tree leaf that holds it. The tree's slots point at these entries,
// so each name and score is stored once, Range and ByRank read the score
// from the entry (-0 included), and a re-scored or ranked member starts
// from its leaf rather than from the root.
type SortedSet struct {
	byMember *HashMap[memberVal]
	byScore  *BTree
}

// NewSortedSet returns an empty sorted set.
func NewSortedSet(capacity int) *SortedSet {
	return &SortedSet{
		byMember: NewHashMap[memberVal](capacity),
		byScore:  NewBTree(),
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
	if e := z.byMember.entry(member); e != nil {
		z.rescore(e, score)
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
	e := z.byMember.entry(member)
	if e == nil {
		if delta == delta {
			z.insert(member, delta)
		}
		return delta
	}
	score := e.val.score + delta
	if score == score {
		z.rescore(e, score)
	}
	return score
}

// insert adds a member known to be absent.
func (z *SortedSet) insert(name string, score float64) {
	z.byScore.Insert(z.byMember.add(name, fnv1a(name), memberVal{score: score}))
}

// rescore moves a present member to score; an unchanged score leaves the
// tree alone.
func (z *SortedSet) rescore(e *member, score float64) {
	if e.val.score != score {
		z.byScore.Move(e, score)
	}
}

// Remove deletes member, reporting whether it was present.
func (z *SortedSet) Remove(member string) bool {
	e := z.byMember.entry(member)
	if e == nil {
		return false
	}
	z.byScore.Delete(e)
	z.byMember.Delete(member)
	return true
}

// Score returns member's score.
func (z *SortedSet) Score(member string) (float64, bool) {
	if e := z.byMember.entry(member); e != nil {
		return e.val.score, true
	}
	return 0, false
}

// Rank returns member's 0-based rank in ascending (score, member) order.
// Matches Redis ZRANK: hash lookup first, then the tree's rank, counted up
// from the member's leaf (§8.3).
func (z *SortedSet) Rank(member string) (int, bool) {
	e := z.byMember.entry(member)
	if e == nil {
		return 0, false
	}
	return z.byScore.Rank(e)
}

// Range calls fn for members with ranks in [lo, hi] inclusive, ascending.
func (z *SortedSet) Range(lo, hi int, fn func(member string, score float64) bool) {
	z.byScore.Range(lo, hi, func(e *member) bool {
		return fn(e.key, e.val.score)
	})
}

// ByRank returns the member and score at 0-based rank r.
func (z *SortedSet) ByRank(r int) (name string, score float64, ok bool) {
	e, ok := z.byScore.ByRank(r)
	if !ok {
		return "", 0, false
	}
	return e.key, e.val.score, true
}
