package collections

import (
	"sync"
	"sync/atomic"
	"testing"

	nr "github.com/asplos17/nr"
	"github.com/asplos17/nr/internal/linearize"
)

// TestMapWithLogsLinearizable is TestMapLinearizable over the multi-log
// map: the WHOLE history — not per class — must stay linearizable, because
// per-key classes touch disjoint sub-maps (locality composes them) and Len
// serializes through the cross-log barrier. Every replica must then hold the
// same sub-maps (mapReplicasAgree). A class gets ~5 updates a round, so its
// 4-entry log wraps.
func TestMapWithLogsLinearizable(t *testing.T) {
	for round := 0; round < 25; round++ {
		m, err := NewMapWithLogs[int64, uint64](4, nr.WithNodes(2, 2, 1), nr.WithLogEntries(4))
		if err != nil {
			t.Fatal(err)
		}
		const threads, per = 4, 8
		rec := linearize.NewRecorder(threads)
		var wg sync.WaitGroup
		for g := 0; g < threads; g++ {
			h, err := m.Register()
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(g int, h *MapHandle[int64, uint64]) {
				defer wg.Done()
				cl := rec.Client(g)
				rng := uint64(round*53+g)*2654435761 + 1
				for i := 0; i < per; i++ {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					key := int64(rng % 4)
					switch rng % 3 {
					case 0:
						call := cl.Invoke()
						ok := h.Put(key, rng)
						cl.Complete(call, linearize.DictIn{Kind: 'i', Key: key, Val: rng},
							linearize.DictOut{Val: rng, OK: ok})
					case 1:
						call := cl.Invoke()
						ok := h.Delete(key)
						cl.Complete(call, linearize.DictIn{Kind: 'd', Key: key},
							linearize.DictOut{OK: ok})
					default:
						call := cl.Invoke()
						v, ok := h.Get(key)
						cl.Complete(call, linearize.DictIn{Kind: 'l', Key: key},
							linearize.DictOut{Val: v, OK: ok})
					}
				}
			}(g, h)
		}
		wg.Wait()
		if !linearize.Check(linearize.DictModel(), rec.History()) {
			t.Fatalf("round %d: multi-log Map history not linearizable", round)
		}
		if err := mapReplicasAgree(m); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		m.Close()
	}
}

// TestMapWithLogsLenBounds pins the multi-log map's linearizable Len: every
// Len lands between the inserts completed before it started and those
// started before it returned.
func TestMapWithLogsLenBounds(t *testing.T) {
	m, err := NewMapWithLogs[int64, uint64](4, nr.WithNodes(2, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const writers, perW, lenOps = 4, 150, 80
	var started, completed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		h, err := m.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, h *MapHandle[int64, uint64]) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				started.Add(1)
				h.Put(int64(g)*1_000_000+int64(i), 1)
				completed.Add(1)
			}
		}(g, h)
	}
	for g := 0; g < 2; g++ {
		h, err := m.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(h *MapHandle[int64, uint64]) {
			defer wg.Done()
			for i := 0; i < lenOps; i++ {
				lo := completed.Load()
				n := int64(h.Len())
				hi := started.Load()
				if n < lo || n > hi {
					t.Errorf("Len = %d outside [%d, %d]", n, lo, hi)
				}
			}
		}(h)
	}
	wg.Wait()
	h, err := m.Register()
	if err != nil {
		t.Fatal(err)
	}
	if n := h.Len(); n != writers*perW {
		t.Fatalf("final Len = %d, want %d", n, writers*perW)
	}
}

// TestMapWithLogsSingle pins the degenerate configuration: one log (and
// even logs <= 0) behaves exactly like NewMap.
func TestMapWithLogsSingle(t *testing.T) {
	for _, logs := range []int{0, 1} {
		m, err := NewMapWithLogs[string, int](logs, nr.WithNodes(1, 2, 1))
		if err != nil {
			t.Fatalf("logs=%d: %v", logs, err)
		}
		h, err := m.Register()
		if err != nil {
			t.Fatal(err)
		}
		if !h.Put("a", 1) || !h.Put("b", 2) {
			t.Fatal("fresh keys reported as existing")
		}
		if v, ok := h.Get("a"); !ok || v != 1 {
			t.Fatalf("Get(a) = %d,%v", v, ok)
		}
		if h.Len() != 2 {
			t.Fatalf("Len = %d, want 2", h.Len())
		}
		m.Close()
	}
}
