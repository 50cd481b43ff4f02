package collections

import (
	"fmt"
	"sync"
	"testing"

	nr "github.com/asplos17/nr"
)

func smallCfg() []nr.Option {
	return []nr.Option{nr.WithNodes(2, 3, 1), nr.WithLogEntries(512)}
}

func TestMapBasic(t *testing.T) {
	m, err := NewMap[string, int](smallCfg()...)
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.Register()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Get("x"); ok {
		t.Error("Get on empty = ok")
	}
	if !h.Put("x", 1) {
		t.Error("fresh Put = false")
	}
	if h.Put("x", 2) {
		t.Error("overwriting Put = true")
	}
	if v, ok := h.Get("x"); !ok || v != 2 {
		t.Errorf("Get = %d,%v", v, ok)
	}
	if h.Len() != 1 {
		t.Errorf("Len = %d", h.Len())
	}
	if !h.Delete("x") {
		t.Error("Delete existing = false")
	}
	if h.Delete("x") {
		t.Error("Delete absent = true")
	}
	if m.Stats().UpdateOps == 0 {
		t.Error("stats not wired")
	}
}

func TestMapConcurrentDisjoint(t *testing.T) {
	m, err := NewMap[int, int](smallCfg()...)
	if err != nil {
		t.Fatal(err)
	}
	const threads, per = 4, 800
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		h, err := m.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, h *MapHandle[int, int]) {
			defer wg.Done()
			base := g * per
			for i := 0; i < per; i++ {
				k := base + i
				if !h.Put(k, k*2) {
					t.Errorf("Put(%d) reported existing", k)
					return
				}
				if v, ok := h.Get(k); !ok || v != k*2 {
					t.Errorf("Get(%d) = %d,%v", k, v, ok)
					return
				}
			}
		}(g, h)
	}
	wg.Wait()
	h, _ := m.Register()
	if got := h.Len(); got != threads*per {
		t.Errorf("Len = %d, want %d", got, threads*per)
	}
}

func TestPriorityQueueOrdering(t *testing.T) {
	q, err := NewPriorityQueue[string](smallCfg()...)
	if err != nil {
		t.Fatal(err)
	}
	h, err := q.Register()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.PopMin(); err != ErrEmpty {
		t.Errorf("PopMin on empty = %v, want ErrEmpty", err)
	}
	h.Push("low", 3)
	h.Push("urgent", 1)
	h.Push("mid", 2)
	h.Push("urgent-2", 1) // FIFO within equal priority
	if item, prio, err := h.PeekMin(); err != nil || item != "urgent" || prio != 1 {
		t.Errorf("PeekMin = %q,%d,%v", item, prio, err)
	}
	want := []string{"urgent", "urgent-2", "mid", "low"}
	for _, w := range want {
		item, _, err := h.PopMin()
		if err != nil || item != w {
			t.Fatalf("PopMin = %q,%v want %q", item, err, w)
		}
	}
	if h.Len() != 0 {
		t.Errorf("Len = %d", h.Len())
	}
}

func TestPriorityQueueConcurrentConservation(t *testing.T) {
	q, err := NewPriorityQueue[int64](smallCfg()...)
	if err != nil {
		t.Fatal(err)
	}
	const threads, per = 4, 600
	var wg sync.WaitGroup
	popped := make([][]int64, threads)
	for g := 0; g < threads; g++ {
		h, err := q.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, h *PriorityQueueHandle[int64]) {
			defer wg.Done()
			base := int64(g * per)
			for i := 0; i < per; i++ {
				v := base + int64(i)
				h.Push(v, v)
				if item, _, err := h.PopMin(); err == nil {
					popped[g] = append(popped[g], item)
				}
			}
		}(g, h)
	}
	wg.Wait()
	seen := map[int64]int{}
	for _, ps := range popped {
		for _, v := range ps {
			seen[v]++
		}
	}
	h, _ := q.Register()
	for {
		v, _, err := h.PopMin()
		if err != nil {
			break
		}
		seen[v]++
	}
	if len(seen) != threads*per {
		t.Fatalf("saw %d distinct items, want %d", len(seen), threads*per)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("item %d popped %d times", v, n)
		}
	}
}

func TestSortedSetBasic(t *testing.T) {
	z, err := NewSortedSet(smallCfg()...)
	if err != nil {
		t.Fatal(err)
	}
	h, err := z.Register()
	if err != nil {
		t.Fatal(err)
	}
	if !h.Add("alice", 10) {
		t.Error("fresh Add = false")
	}
	h.Add("bob", 5)
	if sc := h.IncrBy("bob", 20); sc != 25 {
		t.Errorf("IncrBy = %v", sc)
	}
	if r, ok := h.Rank("alice"); !ok || r != 0 {
		t.Errorf("Rank(alice) = %d,%v, want 0 (bob is now 25)", r, ok)
	}
	if sc, ok := h.Score("bob"); !ok || sc != 25 {
		t.Errorf("Score(bob) = %v,%v", sc, ok)
	}
	if h.Len() != 2 {
		t.Errorf("Len = %d", h.Len())
	}
	if !h.Remove("bob") {
		t.Error("Remove = false")
	}
	if _, ok := h.Rank("bob"); ok {
		t.Error("Rank after Remove = ok")
	}
}

func TestSortedSetConcurrentLeaderboard(t *testing.T) {
	z, err := NewSortedSet(smallCfg()...)
	if err != nil {
		t.Fatal(err)
	}
	const threads, per = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		h, err := z.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, h *SortedSetHandle) {
			defer wg.Done()
			member := fmt.Sprintf("p%d", g)
			for i := 0; i < per; i++ {
				h.IncrBy(member, 1)
				if _, ok := h.Rank(member); !ok {
					t.Errorf("member %s lost", member)
					return
				}
			}
		}(g, h)
	}
	wg.Wait()
	h, _ := z.Register()
	for g := 0; g < threads; g++ {
		if sc, ok := h.Score(fmt.Sprintf("p%d", g)); !ok || sc != per {
			t.Errorf("p%d score = %v,%v, want %d", g, sc, ok, per)
		}
	}
}
