package collections

import (
	"sync"
	"testing"

	nr "github.com/asplos17/nr"
	"github.com/asplos17/nr/internal/linearize"
)

// TestShardedMapLinearizable records short concurrent histories through the
// NewShardedMap facade and verifies them against the dictionary model. This is
// the per-key-linearizability claim of DESIGN.md §11 made executable: every
// operation here touches a single key, and linearizability is local
// (Herlihy & Wing) — a history over multiple objects is linearizable iff
// each object's subhistory is — so hash-partitioned keys behaving like
// independent linearizable objects makes the whole history check out
// against the sequential dictionary model, even though no cross-shard order
// exists. A router bug that let one key's operations straddle shards would
// surface here as a non-linearizable history.
func TestShardedMapLinearizable(t *testing.T) {
	for round := 0; round < 40; round++ {
		m, err := NewShardedMap[int64, uint64](3, nr.WithNodes(2, 2, 1), nr.WithLogEntries(128))
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
				rng := uint64(round*37+g)*2654435761 + 1
				for i := 0; i < per; i++ {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					// 4 keys over 3 shards: at least two keys share a shard
					// and at least two shards are populated, so both the
					// same-shard and cross-shard interleavings get exercised.
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
					case 2:
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
			t.Fatalf("round %d: sharded Map history not linearizable", round)
		}
		m.Close()
	}
}

// TestShardedMapLenSumsShards pins Len on a sharded map: the keyless count
// runs on every shard and the counts add up.
func TestShardedMapLenSumsShards(t *testing.T) {
	m, err := NewShardedMap[int64, uint64](3, nr.WithNodes(1, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h, err := m.Register()
	if err != nil {
		t.Fatal(err)
	}
	const keys = 40 // enough that all 3 shards hold some w.h.p.
	for k := int64(0); k < keys; k++ {
		h.Put(k, uint64(k))
	}
	h.Delete(7)
	if n := h.Len(); n != keys-1 {
		t.Errorf("Len = %d, want %d", n, keys-1)
	}
}
