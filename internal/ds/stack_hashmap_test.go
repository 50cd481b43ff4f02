package ds

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStackLIFO(t *testing.T) {
	s := NewStack[int64](4)
	if _, ok := s.Pop(); ok {
		t.Error("Pop on empty = ok")
	}
	if _, ok := s.Peek(); ok {
		t.Error("Peek on empty = ok")
	}
	for i := int64(0); i < 100; i++ {
		s.Push(i)
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
	if v, ok := s.Peek(); !ok || v != 99 {
		t.Errorf("Peek = %d,%v, want 99,true", v, ok)
	}
	for i := int64(99); i >= 0; i-- {
		v, ok := s.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = %d,%v, want %d,true", v, ok, i)
		}
	}
	if s.Len() != 0 {
		t.Errorf("Len after drain = %d, want 0", s.Len())
	}
}

func TestStackNegativeCapacity(t *testing.T) {
	s := NewStack[int64](-5)
	s.Push(1)
	if v, ok := s.Pop(); !ok || v != 1 {
		t.Errorf("Pop = %d,%v, want 1,true", v, ok)
	}
}

// Property: pushing a sequence then popping yields the reverse.
func TestStackReverseProperty(t *testing.T) {
	f := func(vals []int64) bool {
		s := NewStack[int64](0)
		for _, v := range vals {
			s.Push(v)
		}
		for i := len(vals) - 1; i >= 0; i-- {
			got, ok := s.Pop()
			if !ok || got != vals[i] {
				return false
			}
		}
		_, ok := s.Pop()
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashMapBasic(t *testing.T) {
	m := NewHashMap[int](0)
	if m.Len() != 0 {
		t.Errorf("Len = %d, want 0", m.Len())
	}
	if !m.Set("a", 1) {
		t.Error("first Set = false")
	}
	if m.Set("a", 2) {
		t.Error("second Set = true")
	}
	if v, ok := m.Get("a"); !ok || v != 2 {
		t.Errorf("Get(a) = %d,%v, want 2,true", v, ok)
	}
	if _, ok := m.Get("b"); ok {
		t.Error("Get(b) = ok for absent key")
	}
	if !m.Delete("a") {
		t.Error("Delete(a) = false")
	}
	if m.Delete("a") {
		t.Error("Delete(a) twice = true")
	}
}

func TestHashMapGrowth(t *testing.T) {
	m := NewHashMap[int](0)
	const n = 10000
	for i := 0; i < n; i++ {
		m.Set(fmt.Sprintf("key-%d", i), i)
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for i := 0; i < n; i++ {
		if v, ok := m.Get(fmt.Sprintf("key-%d", i)); !ok || v != i {
			t.Fatalf("Get(key-%d) = %d,%v", i, v, ok)
		}
	}
	// buckets must have grown beyond the minimum
	if len(m.buckets) <= hashMapMinBuckets {
		t.Errorf("buckets = %d, expected growth", len(m.buckets))
	}
}

func TestHashMapRange(t *testing.T) {
	m := NewHashMap[int](0)
	for i := 0; i < 50; i++ {
		m.Set(fmt.Sprintf("k%d", i), i)
	}
	seen := map[string]int{}
	m.Range(func(k string, v int) bool {
		seen[k] = v
		return true
	})
	if len(seen) != 50 {
		t.Fatalf("Range visited %d entries, want 50", len(seen))
	}
	count := 0
	m.Range(func(string, int) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early-stop Range visited %d, want 10", count)
	}
}

func TestHashMapAgainstBuiltinOracle(t *testing.T) {
	m := NewHashMap[uint64](0)
	oracle := map[string]uint64{}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 30000; i++ {
		k := fmt.Sprintf("k%d", rng.Intn(800))
		switch rng.Intn(3) {
		case 0:
			v := rng.Uint64()
			_, present := oracle[k]
			if got := m.Set(k, v); got == present {
				t.Fatalf("op %d: Set(%s) newly-inserted = %v, want %v", i, k, got, !present)
			}
			oracle[k] = v
		case 1:
			_, present := oracle[k]
			if got := m.Delete(k); got != present {
				t.Fatalf("op %d: Delete(%s) = %v, want %v", i, k, got, present)
			}
			delete(oracle, k)
		case 2:
			wv, wok := oracle[k]
			gv, gok := m.Get(k)
			if gok != wok || (gok && gv != wv) {
				t.Fatalf("op %d: Get(%s) = %d,%v, want %d,%v", i, k, gv, gok, wv, wok)
			}
		}
		if m.Len() != len(oracle) {
			t.Fatalf("op %d: Len = %d, want %d", i, m.Len(), len(oracle))
		}
	}
}

// Property: a set of distinct keys is fully retrievable.
func TestHashMapRetrievalProperty(t *testing.T) {
	f := func(keys []string) bool {
		m := NewHashMap[int](0)
		uniq := map[string]int{}
		for i, k := range keys {
			m.Set(k, i)
			uniq[k] = i
		}
		if m.Len() != len(uniq) {
			return false
		}
		for k, want := range uniq {
			if v, ok := m.Get(k); !ok || v != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
