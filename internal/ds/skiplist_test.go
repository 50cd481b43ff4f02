package ds

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func newIntList(seed uint64) *SkipList[uint64] { return NewSkipList[uint64](seed) }

// ascending returns the list's keys, in order, as ints.
func ascending[V any](s *SkipList[V]) []int64 {
	var keys []int64
	for x := s.head.next[0]; x != nil; x = x.next[0] {
		keys = append(keys, x.key.Int())
	}
	return keys
}

// TestKeyOrderMatchesNumericOrder: IntKey and floatOrd order Ord exactly as
// int64 and float64 order their arguments, -0 with +0, and Tie breaks an
// Ord tie, as lessScored does. Int inverts IntKey.
func TestKeyOrderMatchesNumericOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	floats := []float64{
		math.Inf(-1), -math.MaxFloat64, -1, -0x1p-1022, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64,
		0x1p-1022, 1, math.Nextafter(1, 2), math.MaxFloat64, math.Inf(1),
	}
	for len(floats) < 200 {
		if f := math.Float64frombits(rng.Uint64()); f == f {
			floats = append(floats, f)
		}
	}
	for _, a := range floats {
		for _, b := range floats {
			oa, ob := floatOrd(a), floatOrd(b)
			if (oa < ob) != (a < b) || (oa == ob) != (a == b) {
				t.Fatalf("floatOrd(%v) = %#x, floatOrd(%v) = %#x", a, oa, b, ob)
			}
			for _, ties := range [][2]string{{"a", "b"}, {"b", "a"}, {"a", "a"}} {
				x, y := scoredMember{a, ties[0]}, scoredMember{b, ties[1]}
				if got := (Key{oa, ties[0]}).less(Key{ob, ties[1]}); got != lessScored(x, y) {
					t.Fatalf("key order of %v, %v = %v, lessScored says %v", x, y, got, !got)
				}
			}
		}
	}
	ints := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	for len(ints) < 200 {
		ints = append(ints, int64(rng.Uint64()))
	}
	for _, a := range ints {
		if got := IntKey(a).Int(); got != a {
			t.Fatalf("IntKey(%d).Int() = %d", a, got)
		}
		for _, b := range ints {
			ka, kb := IntKey(a), IntKey(b)
			if (ka.Ord < kb.Ord) != (a < b) || (ka.Ord == kb.Ord) != (a == b) {
				t.Fatalf("IntKey(%d).Ord = %#x, IntKey(%d).Ord = %#x", a, ka.Ord, b, kb.Ord)
			}
		}
	}
}

// TestSkipListInsertAllocatesOneObject: a new key's node and its tower are
// one allocation.
func TestSkipListInsertAllocatesOneObject(t *testing.T) {
	s := NewSkipList[float64](1)
	k := int64(0)
	allocs := testing.AllocsPerRun(2000, func() {
		k++
		s.Insert(IntKey(k), 1)
	})
	if allocs != 1 {
		t.Errorf("Insert of a new key allocates %v objects, want 1", allocs)
	}
}

func TestSkipListEmpty(t *testing.T) {
	s := newIntList(1)
	if s.Len() != 0 {
		t.Errorf("Len() = %d, want 0", s.Len())
	}
	if _, ok := s.Get(IntKey(5)); ok {
		t.Error("Get on empty returned ok")
	}
	if _, _, ok := s.Min(); ok {
		t.Error("Min on empty returned ok")
	}
	if _, _, ok := s.DeleteMin(); ok {
		t.Error("DeleteMin on empty returned ok")
	}
	if s.Delete(IntKey(5)) {
		t.Error("Delete on empty returned true")
	}
	if !s.checkOrder() {
		t.Error("empty list invalid")
	}
}

func TestSkipListInsertGetDelete(t *testing.T) {
	s := newIntList(2)
	if !s.Insert(IntKey(10), 100) {
		t.Error("first Insert(10) = false, want true")
	}
	if s.Insert(IntKey(10), 200) {
		t.Error("second Insert(10) = true, want false (replace)")
	}
	if v, ok := s.Get(IntKey(10)); !ok || v != 200 {
		t.Errorf("Get(10) = %d,%v, want 200,true", v, ok)
	}
	if !s.Delete(IntKey(10)) {
		t.Error("Delete(10) = false, want true")
	}
	if s.Delete(IntKey(10)) {
		t.Error("Delete(10) twice = true, want false")
	}
	if s.Len() != 0 {
		t.Errorf("Len() = %d, want 0", s.Len())
	}
}

func TestSkipListOrderAndMin(t *testing.T) {
	s := newIntList(3)
	keys := []int64{5, 1, 9, 3, 7, 2, 8, 4, 6, 0}
	for _, k := range keys {
		s.Insert(IntKey(k), uint64(k*10))
	}
	got := ascending(s)
	for _, k := range got {
		if v, _ := s.Get(IntKey(k)); v != uint64(k*10) {
			t.Errorf("value for %d = %d", k, v)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("not sorted: %v", got)
		}
	}
	for want := int64(0); want < 10; want++ {
		k, _, ok := s.Min()
		if !ok || k.Int() != want {
			t.Fatalf("Min = %d,%v, want %d,true", k.Int(), ok, want)
		}
		dk, _, ok := s.DeleteMin()
		if !ok || dk.Int() != want {
			t.Fatalf("DeleteMin = %d,%v, want %d,true", dk.Int(), ok, want)
		}
	}
}

func TestSkipListAgainstMapOracle(t *testing.T) {
	s := newIntList(7)
	oracle := map[int64]uint64{}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		k := int64(rng.Intn(500))
		switch rng.Intn(3) {
		case 0:
			v := rng.Uint64()
			wantNew := func() bool { _, ok := oracle[k]; return !ok }()
			if got := s.Insert(IntKey(k), v); got != wantNew {
				t.Fatalf("op %d: Insert(%d) = %v, want %v", i, k, got, wantNew)
			}
			oracle[k] = v
		case 1:
			_, present := oracle[k]
			if got := s.Delete(IntKey(k)); got != present {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", i, k, got, present)
			}
			delete(oracle, k)
		case 2:
			wv, wok := oracle[k]
			gv, gok := s.Get(IntKey(k))
			if gok != wok || (gok && gv != wv) {
				t.Fatalf("op %d: Get(%d) = %d,%v, want %d,%v", i, k, gv, gok, wv, wok)
			}
		}
		if s.Len() != len(oracle) {
			t.Fatalf("op %d: Len = %d, want %d", i, s.Len(), len(oracle))
		}
	}
	if !s.checkOrder() {
		t.Error("order invariant violated after random workload")
	}
	var keys []int64
	for k := range oracle {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if got := ascending(s); !slices.Equal(got, keys) {
		t.Fatalf("keys = %v, want %v", got, keys)
	}
}

func TestSkipListDeterministicAcrossReplicas(t *testing.T) {
	// Same seed + same op stream must produce structurally equal results —
	// the property NR relies on for replica consistency.
	a, b := newIntList(99), newIntList(99)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		k := int64(rng.Intn(300))
		v := rng.Uint64()
		switch rng.Intn(3) {
		case 0:
			ra, rb := a.Insert(IntKey(k), v), b.Insert(IntKey(k), v)
			if ra != rb {
				t.Fatalf("Insert diverged at op %d", i)
			}
		case 1:
			if a.Delete(IntKey(k)) != b.Delete(IntKey(k)) {
				t.Fatalf("Delete diverged at op %d", i)
			}
		case 2:
			ka, va, oka := a.DeleteMin()
			kb, vb, okb := b.DeleteMin()
			if ka != kb || va != vb || oka != okb {
				t.Fatalf("DeleteMin diverged at op %d", i)
			}
		}
	}
	if a.Len() != b.Len() {
		t.Fatalf("lengths diverged: %d vs %d", a.Len(), b.Len())
	}
}

// Property: Insert then Delete of an absent key leaves the structure
// behaviorally unchanged for lookups of other keys.
func TestSkipListInsertDeleteRoundTrip(t *testing.T) {
	f := func(base []int64, probe int64) bool {
		s := newIntList(13)
		for _, k := range base {
			if k != probe {
				s.Insert(IntKey(k), uint64(k))
			}
		}
		before := s.Len()
		s.Insert(IntKey(probe), 1)
		s.Delete(IntKey(probe))
		if s.Len() != before {
			return false
		}
		for _, k := range base {
			if k == probe {
				continue
			}
			if v, ok := s.Get(IntKey(k)); !ok || v != uint64(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// checkOrder reports whether the keys strictly ascend and number Len.
func (s *SkipList[V]) checkOrder() bool {
	n := 0
	for prev, x := s.head, s.head.next[0]; x != nil; prev, x = x, x.next[0] {
		if prev != s.head && !prev.key.less(x.key) {
			return false
		}
		n++
	}
	return n == s.length
}
