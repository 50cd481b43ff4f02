// Leaderboard: the paper's Redis scenario (§8.3) as a library user would
// write it — a game leaderboard backed by the repository's sorted set
// (hash table + B+tree, updated atomically as one black box), made
// concurrent with NR. Score updates are ZINCRBY; rank queries are ZRANK.
package main

import (
	"fmt"
	"log"
	"sync"

	nr "github.com/asplos17/nr"
	"github.com/asplos17/nr/internal/ds"
)

func main() {
	// One replica per node, each built by the same constructor.
	inst, err := nr.New(
		func() nr.Sequential[ds.ZOp, ds.ZResult] { return ds.NewSeqSortedSet(1024) },
		nr.WithNodes(4, 4, 1),
	)
	if err != nil {
		log.Fatal(err)
	}

	const players = 64
	names := make([]string, players)
	for i := range names {
		names[i] = fmt.Sprintf("player-%02d", i)
	}

	// Populate, as the paper does before measuring.
	seedH, err := inst.Register()
	if err != nil {
		log.Fatal(err)
	}
	for i, n := range names {
		seedH.Execute(ds.ZOp{Kind: ds.ZAdd, Member: n, Score: float64(i)})
	}

	// Concurrent game traffic: 90% rank queries, 10% score bumps — the
	// YCSB-style 10%-update mix of §8.3.
	const clients, opsPer = 8, 20000
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		h, err := inst.Register()
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(c int, h *nr.Handle[ds.ZOp, ds.ZResult]) {
			defer wg.Done()
			seed := uint64(c)*0x9e3779b97f4a7c15 + 1
			for i := 0; i < opsPer; i++ {
				seed ^= seed << 13
				seed ^= seed >> 7
				seed ^= seed << 17
				who := names[seed%players]
				if seed%10 == 0 {
					h.Execute(ds.ZOp{Kind: ds.ZIncrBy, Member: who, Score: float64(seed % 7)})
				} else {
					r := h.Execute(ds.ZOp{Kind: ds.ZRank, Member: who})
					if !r.OK {
						log.Fatalf("player %s vanished", who)
					}
				}
			}
		}(c, h)
	}
	wg.Wait()

	// Print the podium from any replica — they are all identical.
	inst.Quiesce()
	fmt.Println("final top 3:")
	inst.Inspect(0, func(s nr.Sequential[ds.ZOp, ds.ZResult]) {
		z := s.(*ds.SeqSortedSet).Inner()
		for i := 0; i < 3; i++ {
			m, sc, ok := z.ByRank(z.Len() - 1 - i)
			if ok {
				fmt.Printf("  %d. %s (%.0f)\n", i+1, m, sc)
			}
		}
	})
	st := inst.Stats()
	fmt.Printf("reads=%d updates=%d combining-rounds=%d\n", st.ReadOps, st.UpdateOps, st.Combines)
}
