package collections

import (
	"fmt"
	"sync"
	"testing"

	nr "github.com/asplos17/nr"
	"github.com/asplos17/nr/internal/linearize"
)

// TestMapLinearizable records short concurrent histories through the Map
// facade and verifies them against the dictionary model, then requires every
// replica to hold the same contents. A round's ~20 updates wrap the 16-entry
// log, so cells are recycled under concurrent fills and replays.
func TestMapLinearizable(t *testing.T) {
	for round := 0; round < 40; round++ {
		m, err := NewMap[int64, uint64](nr.WithNodes(2, 2, 1), nr.WithLogEntries(16))
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
				rng := uint64(round*31+g)*2654435761 + 1
				for i := 0; i < per; i++ {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					key := int64(rng % 3)
					switch (rng >> 32) % 3 { // independent of key: every op meets every key
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
			t.Fatalf("round %d: Map history not linearizable", round)
		}
		if err := mapReplicasAgree(m); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// mapReplicasAgree is the replica oracle: it brings every replica up to
// date and reports an error unless each one's sorted key/value dump (per
// class sub-map under NewMapWithLogs) is the same. A history can be
// linearizable while replicas diverge, e.g. when a black box's update is
// not deterministic and no later read happens to look at the difference.
func mapReplicasAgree(m *Map[int64, uint64]) error {
	m.inst.Quiesce()
	dumps := make([]string, m.inst.Replicas())
	for n := range dumps {
		m.inst.Inspect(n, func(s nr.Sequential[mapOp[int64, uint64], mapResp[uint64]]) {
			dumps[n] = fmt.Sprint(s) // fmt prints a map's entries in key order
		})
	}
	for n := 1; n < len(dumps); n++ {
		if dumps[n] != dumps[0] {
			return fmt.Errorf("replica %d holds %s, replica 0 holds %s", n, dumps[n], dumps[0])
		}
	}
	return nil
}
