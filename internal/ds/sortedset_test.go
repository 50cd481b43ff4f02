package ds

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestSortedSetAddScoreRank(t *testing.T) {
	z := NewSortedSet(0)
	if !z.Add("alice", 10) {
		t.Error("Add(alice) = false, want true")
	}
	if z.Add("alice", 20) {
		t.Error("re-Add(alice) = true, want false")
	}
	z.Add("bob", 5)
	z.Add("carol", 15)
	if s, ok := z.Score("alice"); !ok || s != 20 {
		t.Errorf("Score(alice) = %v,%v, want 20,true", s, ok)
	}
	// Ascending by score: bob(5), carol(15), alice(20).
	cases := []struct {
		member string
		rank   int
	}{{"bob", 0}, {"carol", 1}, {"alice", 2}}
	for _, c := range cases {
		if r, ok := z.Rank(c.member); !ok || r != c.rank {
			t.Errorf("Rank(%s) = %d,%v, want %d,true", c.member, r, ok, c.rank)
		}
	}
	if _, ok := z.Rank("dave"); ok {
		t.Error("Rank(dave) = ok for absent member")
	}
	if err := z.consistent(); err != nil {
		t.Error(err)
	}
}

func TestSortedSetIncrBy(t *testing.T) {
	z := NewSortedSet(0)
	if s := z.IncrBy("x", 3); s != 3 {
		t.Errorf("IncrBy new member = %v, want 3", s)
	}
	if s := z.IncrBy("x", 4); s != 7 {
		t.Errorf("IncrBy existing = %v, want 7", s)
	}
	if s, _ := z.Score("x"); s != 7 {
		t.Errorf("Score after IncrBy = %v, want 7", s)
	}
	z.Add("y", 1)
	z.IncrBy("y", 100)
	if r, _ := z.Rank("y"); r != 1 {
		t.Errorf("Rank(y) after IncrBy = %d, want 1", r)
	}
	if err := z.consistent(); err != nil {
		t.Errorf("after IncrBy: %v", err)
	}
}

func TestSortedSetRemoveAndRange(t *testing.T) {
	z := NewSortedSet(0)
	for i := 0; i < 10; i++ {
		z.Add(fmt.Sprintf("m%d", i), float64(i))
	}
	if !z.Remove("m5") {
		t.Error("Remove(m5) = false")
	}
	if z.Remove("m5") {
		t.Error("double Remove(m5) = true")
	}
	if z.Len() != 9 {
		t.Fatalf("Len = %d, want 9", z.Len())
	}
	var members []string
	z.Range(0, 100, func(m string, _ float64) bool {
		members = append(members, m)
		return true
	})
	want := []string{"m0", "m1", "m2", "m3", "m4", "m6", "m7", "m8", "m9"}
	if len(members) != len(want) {
		t.Fatalf("Range = %v, want %v", members, want)
	}
	for i := range want {
		if members[i] != want[i] {
			t.Fatalf("Range = %v, want %v", members, want)
		}
	}
	if m, s, ok := z.ByRank(4); !ok || m != "m4" || s != 4 {
		t.Errorf("ByRank(4) = %s,%v,%v, want m4,4,true", m, s, ok)
	}
	if _, _, ok := z.ByRank(99); ok {
		t.Error("ByRank(99) = ok")
	}
}

func TestSortedSetTieBreakByMember(t *testing.T) {
	z := NewSortedSet(0)
	z.Add("b", 1)
	z.Add("a", 1)
	z.Add("c", 1)
	// Equal scores order lexicographically by member, as in Redis.
	want := []string{"a", "b", "c"}
	for i, w := range want {
		if m, _, _ := z.ByRank(i); m != w {
			t.Errorf("ByRank(%d) = %s, want %s", i, m, w)
		}
	}
}

// A NaN has no place in the (score, member) order: floatOrd would file it
// past +Inf (or, sign bit set, before -Inf), where Redis shows nothing, and
// it never equals itself, so every re-add would move the node again. Neither
// Add nor IncrBy lets one in.
func TestSortedSetRefusesNaN(t *testing.T) {
	z := NewSortedSet(0)
	for i, m := range []string{"a", "b", "c"} {
		z.Add(m, float64(i))
	}
	model := map[string]float64{"a": 0, "b": 1, "c": 2}
	if z.Add("x", math.NaN()) || z.Add("b", math.NaN()) {
		t.Error("Add with a NaN score reported a new member")
	}
	if got := z.IncrBy("x", math.NaN()); got == got {
		t.Errorf("IncrBy(x, NaN) = %v, want NaN", got)
	}
	z.Add("c", math.Inf(1))
	model["c"] = math.Inf(1)
	if got := z.IncrBy("c", math.Inf(-1)); got == got {
		t.Errorf("IncrBy(inf, -inf) = %v, want NaN", got)
	}
	checkSortedSetAgainst(t, z, model)
}

func TestSortedSetRandomConsistency(t *testing.T) {
	z := NewSortedSet(0)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 20000; i++ {
		m := fmt.Sprintf("m%d", rng.Intn(200))
		switch rng.Intn(4) {
		case 0:
			z.Add(m, float64(rng.Intn(1000)))
		case 1:
			z.IncrBy(m, float64(rng.Intn(10)))
		case 2:
			z.Remove(m)
		case 3:
			z.Rank(m)
		}
	}
	if err := z.consistent(); err != nil {
		t.Fatalf("after the random workload: %v", err)
	}
}

// TestSortedSetAgainstSortedSlice drives Add, IncrBy (positive, negative and
// zero deltas) and Remove against a model kept as a sorted slice. Scores are
// small integers, so ties are common and the member decides; sets of three
// and a dozen members stay in one leaf, while 150 members span several, so
// a move both slides inside a leaf and crosses leaves.
func TestSortedSetAgainstSortedSlice(t *testing.T) {
	for _, members := range []int{3, 12, 150} {
		z := NewSortedSet(0)
		model := map[string]float64{}
		rng := rand.New(rand.NewSource(int64(members)))
		for i := 0; i < 6000; i++ {
			m := fmt.Sprintf("m%03d", rng.Intn(members))
			old, present := model[m]
			switch rng.Intn(8) {
			case 0:
				sc := float64(rng.Intn(9))
				if got := z.Add(m, sc); got == present {
					t.Fatalf("op %d: Add(%s) = %v with present=%v", i, m, got, present)
				}
				model[m] = sc
			case 1:
				if got := z.Remove(m); got != present {
					t.Fatalf("op %d: Remove(%s) = %v, want %v", i, m, got, present)
				}
				delete(model, m)
			default:
				delta := float64(rng.Intn(9) - 4)
				if rng.Intn(6) == 0 {
					delta *= 25 // across the whole set
				}
				if got := z.IncrBy(m, delta); got != old+delta {
					t.Fatalf("op %d: IncrBy(%s, %v) = %v, want %v", i, m, delta, got, old+delta)
				}
				model[m] = old + delta
			}
			checkSortedSetAgainst(t, z, model)
			if t.Failed() {
				t.Fatalf("diverged at op %d (%d members)", i, members)
			}
		}
	}
}

// scoredMember and lessScored are the (score, member) order, compared as
// floats and strings: the oracle the tree's key order is pinned against.
type scoredMember struct {
	score  float64
	member string
}

func lessScored(a, b scoredMember) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.member < b.member
}

// TestSortedSetMatchesScoredOrder drives Add, IncrBy and Remove with scores
// and deltas drawn from ±0, ±Inf, subnormals and the extremes, so ties are
// common and -0 meets +0, against a model that applies the same rules to
// exact floats; every read must match the model's (score, member) order,
// each score to the bit.
func TestSortedSetMatchesScoredOrder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	scores := []float64{
		math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64, negZero,
		0, math.SmallestNonzeroFloat64, 0.5, 1, math.MaxFloat64, math.Inf(1),
	}
	deltas := []float64{negZero, 0, -1, 1, 0.5, math.Inf(-1), math.Inf(1), math.SmallestNonzeroFloat64}
	z := NewSortedSet(0)
	model := map[string]float64{}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		m := fmt.Sprintf("m%02d", rng.Intn(30))
		old, present := model[m]
		switch rng.Intn(5) {
		case 0:
			sc := scores[rng.Intn(len(scores))]
			if got := z.Add(m, sc); got == present {
				t.Fatalf("op %d: Add(%s) = %v with present=%v", i, m, got, present)
			}
			if !present || sc != old {
				model[m] = sc
			}
		case 1:
			if got := z.Remove(m); got != present {
				t.Fatalf("op %d: Remove(%s) = %v, want %v", i, m, got, present)
			}
			delete(model, m)
		default:
			delta := deltas[rng.Intn(len(deltas))]
			want := delta
			if present {
				want = old + delta
			}
			got := z.IncrBy(m, delta)
			if math.Float64bits(got) != math.Float64bits(want) && (got == got || want == want) {
				t.Fatalf("op %d: IncrBy(%s, %v) = %v, want %v", i, m, delta, got, want)
			}
			if want == want && (!present || want != old) {
				model[m] = want
			}
		}
		checkSortedSetAgainst(t, z, model)
		if t.Failed() {
			t.Fatalf("diverged at op %d", i)
		}
	}
}

// checkSortedSetAgainst compares every read of z with the model, each score
// to the bit.
func checkSortedSetAgainst(t *testing.T, z *SortedSet, model map[string]float64) {
	t.Helper()
	want := make([]scoredMember, 0, len(model))
	for m, sc := range model {
		want = append(want, scoredMember{sc, m})
	}
	sort.Slice(want, func(i, j int) bool { return lessScored(want[i], want[j]) })
	if z.Len() != len(want) {
		t.Errorf("Len = %d, want %d", z.Len(), len(want))
	}
	if err := z.consistent(); err != nil {
		t.Error(err)
	}
	for r, w := range want {
		if got, ok := z.Rank(w.member); !ok || got != r {
			t.Errorf("Rank(%s) = %d,%v, want %d", w.member, got, ok, r)
		}
		if m, sc, ok := z.ByRank(r); !ok || m != w.member || math.Float64bits(sc) != math.Float64bits(w.score) {
			t.Errorf("ByRank(%d) = %s,%v,%v, want %s,%v", r, m, sc, ok, w.member, w.score)
		}
	}
	var got []scoredMember
	z.Range(0, z.Len()-1, func(m string, sc float64) bool {
		got = append(got, scoredMember{sc, m})
		return true
	})
	if !slices.EqualFunc(got, want, func(a, b scoredMember) bool {
		return a.member == b.member && math.Float64bits(a.score) == math.Float64bits(b.score)
	}) {
		t.Errorf("Range = %v, want %v", got, want)
	}
}

// Property: ranks form a dense prefix 0..Len-1 and agree with ByRank.
func TestSortedSetRankDenseProperty(t *testing.T) {
	f := func(scores []float64) bool {
		z := NewSortedSet(0)
		for i, s := range scores {
			z.Add(fmt.Sprintf("m%d", i), s)
		}
		for r := 0; r < z.Len(); r++ {
			m, _, ok := z.ByRank(r)
			if !ok {
				return false
			}
			got, ok := z.Rank(m)
			if !ok || got != r {
				return false
			}
		}
		return z.consistent() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// consistent reports the first way in which the two underlying structures
// disagree: the tree must hold exactly the hash map's entries, each of them
// pointing at the leaf that holds it in a used slot (treeConsistent). The
// scores read from the entries are checked to the bit by
// checkSortedSetAgainst's ByRank and Range comparisons.
func (z *SortedSet) consistent() error {
	var in []*member
	for _, b := range z.byMember.buckets {
		for e := b; e != nil; e = e.next {
			in = append(in, e)
		}
	}
	if len(in) != z.byMember.Len() {
		return fmt.Errorf("hash map holds %d entries, Len = %d", len(in), z.byMember.Len())
	}
	return treeConsistent(z.byScore, in)
}
