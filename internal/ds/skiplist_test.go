package ds

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func newIntList(seed uint64) *SkipList[uint64] { return NewSkipList[uint64](seed) }

// TestKeyOrderMatchesNumericOrder: IntKey and FloatKey order Ord exactly as
// int64 and float64 order their arguments, -0 with +0, and Tie breaks an
// Ord tie, as lessScored does.
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
			ka, kb := FloatKey(a, ""), FloatKey(b, "")
			if (ka.Ord < kb.Ord) != (a < b) || (ka.Ord == kb.Ord) != (a == b) {
				t.Fatalf("FloatKey(%v).Ord = %#x, FloatKey(%v).Ord = %#x", a, ka.Ord, b, kb.Ord)
			}
			for _, ties := range [][2]string{{"a", "b"}, {"b", "a"}, {"a", "a"}} {
				x, y := scoredMember{a, ties[0]}, scoredMember{b, ties[1]}
				if got := FloatKey(a, ties[0]).less(FloatKey(b, ties[1])); got != lessScored(x, y) {
					t.Fatalf("FloatKey order of %v, %v = %v, lessScored says %v", x, y, got, !got)
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
	if _, ok := s.Rank(IntKey(5)); ok {
		t.Error("Rank on empty returned ok")
	}
	if _, _, ok := s.ByRank(0); ok {
		t.Error("ByRank(0) on empty returned ok")
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
	var got []int64
	s.RangeByRank(0, s.Len()-1, func(k Key, v uint64) bool {
		got = append(got, k.Int())
		if v != uint64(k.Int()*10) {
			t.Errorf("value for %d = %d", k.Int(), v)
		}
		return true
	})
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

func TestSkipListRank(t *testing.T) {
	s := newIntList(4)
	for i := int64(0); i < 100; i++ {
		s.Insert(IntKey(i*2), 0) // even keys 0..198
	}
	for i := int64(0); i < 100; i++ {
		r, ok := s.Rank(IntKey(i * 2))
		if !ok || r != int(i) {
			t.Fatalf("Rank(%d) = %d,%v, want %d,true", i*2, r, ok, i)
		}
	}
	if _, ok := s.Rank(IntKey(3)); ok {
		t.Error("Rank(3) = ok for absent key")
	}
	for i := 0; i < 100; i++ {
		k, _, ok := s.ByRank(i)
		if !ok || k.Int() != int64(i*2) {
			t.Fatalf("ByRank(%d) = %d,%v, want %d,true", i, k.Int(), ok, i*2)
		}
	}
	if _, _, ok := s.ByRank(100); ok {
		t.Error("ByRank(100) out of range = ok")
	}
	if _, _, ok := s.ByRank(-1); ok {
		t.Error("ByRank(-1) = ok")
	}
}

func TestSkipListRankAfterDeletes(t *testing.T) {
	s := newIntList(5)
	for i := int64(0); i < 50; i++ {
		s.Insert(IntKey(i), 0)
	}
	for i := int64(0); i < 50; i += 2 {
		s.Delete(IntKey(i)) // remove evens, odds remain
	}
	for i := 0; i < 25; i++ {
		k, _, ok := s.ByRank(i)
		if !ok || k.Int() != int64(2*i+1) {
			t.Fatalf("ByRank(%d) = %d, want %d", i, k.Int(), 2*i+1)
		}
	}
	if !s.checkSpans() {
		t.Error("span invariant violated after deletes")
	}
}

func TestSkipListRangeByRank(t *testing.T) {
	s := newIntList(6)
	for i := int64(0); i < 10; i++ {
		s.Insert(IntKey(i), uint64(i))
	}
	var got []int64
	s.RangeByRank(3, 6, func(k Key, _ uint64) bool {
		got = append(got, k.Int())
		return true
	})
	want := []int64{3, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("RangeByRank(3,6) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RangeByRank(3,6) = %v, want %v", got, want)
		}
	}
	// Clamping and early stop.
	got = got[:0]
	s.RangeByRank(-5, 100, func(k Key, _ uint64) bool {
		got = append(got, k.Int())
		return len(got) < 3
	})
	if len(got) != 3 {
		t.Errorf("early-stop range returned %d items, want 3", len(got))
	}
	got = got[:0]
	s.RangeByRank(7, 3, func(k Key, _ uint64) bool { got = append(got, k.Int()); return true })
	if len(got) != 0 {
		t.Errorf("inverted range returned %v", got)
	}
}

func TestSkipListAgainstMapOracle(t *testing.T) {
	s := newIntList(7)
	oracle := map[int64]uint64{}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		k := int64(rng.Intn(500))
		switch rng.Intn(4) {
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
		case 3:
			// Mostly short hops (the fast path and the finger walk), some
			// anywhere, some onto a key that is taken or onto itself.
			to := k + int64(rng.Intn(7)) - 3
			if rng.Intn(4) == 0 {
				to = int64(rng.Intn(500))
			}
			v, present := oracle[k]
			nv := rng.Uint64()
			if got := s.Move(IntKey(k), IntKey(to), nv); got != present {
				t.Fatalf("op %d: Move(%d, %d) = %v, want %v", i, k, to, got, present)
			}
			if present {
				delete(oracle, k)
				oracle[to] = nv
			}
			if gv, ok := s.Get(IntKey(to)); present && (!ok || gv != nv) {
				t.Fatalf("op %d: after Move(%d, %d) Get = %d,%v, want %d (was %d)", i, k, to, gv, ok, nv, v)
			}
			if !s.checkSpans() {
				t.Fatalf("op %d: span invariant violated by Move(%d, %d)", i, k, to)
			}
		}
		if s.Len() != len(oracle) {
			t.Fatalf("op %d: Len = %d, want %d", i, s.Len(), len(oracle))
		}
	}
	if !s.checkSpans() {
		t.Error("span invariant violated after random workload")
	}
	var keys []int64
	for k := range oracle {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for r, k := range keys {
		if got, _, ok := s.ByRank(r); !ok || got.Int() != k {
			t.Fatalf("ByRank(%d) = %d,%v, want %d", r, got.Int(), ok, k)
		}
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

// Property: for any key set, ranks are a permutation of 0..n-1 consistent
// with sorted order.
func TestSkipListRankProperty(t *testing.T) {
	f := func(keys []int64) bool {
		s := newIntList(11)
		uniq := map[int64]bool{}
		for _, k := range keys {
			s.Insert(IntKey(k), 0)
			uniq[k] = true
		}
		var sorted []int64
		for k := range uniq {
			sorted = append(sorted, k)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i, k := range sorted {
			r, ok := s.Rank(IntKey(k))
			if !ok || r != i {
				return false
			}
		}
		return s.checkSpans()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
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
