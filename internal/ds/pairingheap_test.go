package ds

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func newIntHeap() *PairingHeap[int64] {
	return NewPairingHeap[int64](func(a, b int64) bool { return a < b })
}

func TestPairingHeapEmpty(t *testing.T) {
	h := newIntHeap()
	if h.Len() != 0 {
		t.Errorf("Len() = %d, want 0", h.Len())
	}
	if _, ok := h.FindMin(); ok {
		t.Error("FindMin on empty = ok")
	}
	if _, ok := h.DeleteMin(); ok {
		t.Error("DeleteMin on empty = ok")
	}
}

func TestPairingHeapSortedExtraction(t *testing.T) {
	h := newIntHeap()
	keys := []int64{5, 3, 8, 1, 9, 2, 7, 4, 6, 0, 5, 3} // duplicates allowed
	for _, k := range keys {
		h.Insert(k)
	}
	if h.Len() != len(keys) {
		t.Fatalf("Len() = %d, want %d", h.Len(), len(keys))
	}
	want := append([]int64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i, w := range want {
		m, ok := h.FindMin()
		if !ok || m != w {
			t.Fatalf("FindMin #%d = %d,%v, want %d", i, m, ok, w)
		}
		d, ok := h.DeleteMin()
		if !ok || d != w {
			t.Fatalf("DeleteMin #%d = %d,%v, want %d", i, d, ok, w)
		}
	}
	if h.Len() != 0 {
		t.Errorf("Len() after drain = %d, want 0", h.Len())
	}
}

func TestPairingHeapMerge(t *testing.T) {
	a, b := newIntHeap(), newIntHeap()
	for i := int64(0); i < 10; i += 2 {
		a.Insert(i)
	}
	for i := int64(1); i < 10; i += 2 {
		b.Insert(i)
	}
	a.Merge(b)
	if b.Len() != 0 {
		t.Errorf("merged-from heap Len = %d, want 0", b.Len())
	}
	if a.Len() != 10 {
		t.Fatalf("merged heap Len = %d, want 10", a.Len())
	}
	for want := int64(0); want < 10; want++ {
		if d, _ := a.DeleteMin(); d != want {
			t.Fatalf("DeleteMin = %d, want %d", d, want)
		}
	}
	a.Merge(nil) // must not panic
	var empty = newIntHeap()
	a.Merge(empty) // merging empty is a no-op
}

func TestPairingHeapRandomOracle(t *testing.T) {
	h := newIntHeap()
	var oracle []int64
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 30000; i++ {
		if rng.Intn(2) == 0 || len(oracle) == 0 {
			k := int64(rng.Intn(10000))
			h.Insert(k)
			oracle = append(oracle, k)
		} else {
			minIdx := 0
			for j, v := range oracle {
				if v < oracle[minIdx] {
					minIdx = j
				}
			}
			want := oracle[minIdx]
			oracle[minIdx] = oracle[len(oracle)-1]
			oracle = oracle[:len(oracle)-1]
			got, ok := h.DeleteMin()
			if !ok || got != want {
				t.Fatalf("op %d: DeleteMin = %d,%v, want %d", i, got, ok, want)
			}
		}
		if h.Len() != len(oracle) {
			t.Fatalf("op %d: Len = %d, want %d", i, h.Len(), len(oracle))
		}
	}
}

// Property: heap sort through the pairing heap equals sort.Slice.
func TestPairingHeapSortProperty(t *testing.T) {
	f := func(keys []int64) bool {
		h := newIntHeap()
		for _, k := range keys {
			h.Insert(k)
		}
		want := append([]int64(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for _, w := range want {
			got, ok := h.DeleteMin()
			if !ok || got != w {
				return false
			}
		}
		_, ok := h.DeleteMin()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPairingHeapDeepDoesNotOverflow(t *testing.T) {
	// Sorted inserts create a long child chain; DeleteMin must handle it
	// iteratively without blowing the stack.
	h := newIntHeap()
	const n = 200000
	for i := n - 1; i >= 0; i-- {
		h.Insert(int64(i))
	}
	for i := 0; i < n; i++ {
		if d, _ := h.DeleteMin(); d != int64(i) {
			t.Fatalf("DeleteMin = %d, want %d", d, i)
		}
	}
}
