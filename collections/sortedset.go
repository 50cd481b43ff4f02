package collections

import (
	nr "github.com/asplos17/nr"
	"github.com/asplos17/nr/internal/ds"
)

// SortedSet is a linearizable, NUMA-aware sorted set in the Redis style:
// string members ranked by float64 score (ties break lexicographically).
// It wraps the repository's coupled hash-map + B+tree structure — the §6
// "coupled data structures" case — through NR.
type SortedSet struct {
	inst *nr.Instance[ds.ZOp, ds.ZResult]
}

// NewSortedSet builds a sorted set replicated per the given nr options.
func NewSortedSet(opts ...nr.Option) (*SortedSet, error) {
	inst, err := nr.New(func() nr.Sequential[ds.ZOp, ds.ZResult] {
		return ds.NewSeqSortedSet(64)
	}, opts...)
	if err != nil {
		return nil, err
	}
	return &SortedSet{inst: inst}, nil
}

// SortedSetHandle executes operations for one goroutine.
type SortedSetHandle struct {
	h *nr.Handle[ds.ZOp, ds.ZResult]
}

// Register binds the calling goroutine to the set.
func (z *SortedSet) Register() (*SortedSetHandle, error) {
	h, err := z.inst.Register()
	if err != nil {
		return nil, err
	}
	return &SortedSetHandle{h: h}, nil
}

// Add sets member's score, reporting whether the member was newly added.
func (h *SortedSetHandle) Add(member string, score float64) bool {
	return h.h.Execute(ds.ZOp{Kind: ds.ZAdd, Member: member, Score: score}).OK
}

// IncrBy adds delta to member's score (creating it at delta) and returns
// the new score.
func (h *SortedSetHandle) IncrBy(member string, delta float64) float64 {
	return h.h.Execute(ds.ZOp{Kind: ds.ZIncrBy, Member: member, Score: delta}).Score
}

// Remove deletes member, reporting whether it was present.
func (h *SortedSetHandle) Remove(member string) bool {
	return h.h.Execute(ds.ZOp{Kind: ds.ZRem, Member: member}).OK
}

// Score returns member's score.
func (h *SortedSetHandle) Score(member string) (float64, bool) {
	r := h.h.Execute(ds.ZOp{Kind: ds.ZScore, Member: member})
	return r.Score, r.OK
}

// Rank returns member's 0-based ascending rank.
func (h *SortedSetHandle) Rank(member string) (int, bool) {
	r := h.h.Execute(ds.ZOp{Kind: ds.ZRank, Member: member})
	return r.Rank, r.OK
}

// Len returns the number of members.
func (h *SortedSetHandle) Len() int {
	return int(h.h.Execute(ds.ZOp{Kind: ds.ZCard}).Rank)
}
