package nr_test

import (
	"fmt"
	"sync"
	"testing"

	nr "github.com/asplos17/nr"
	"github.com/asplos17/nr/internal/ds"
	"github.com/asplos17/nr/internal/linearize"
	"github.com/asplos17/nr/internal/miniredis"
	"github.com/asplos17/nr/internal/trace"
	"github.com/asplos17/nr/internal/workload"
)

// TestIntegration_LinearizabilityThroughPublicAPI records real concurrent
// histories through the public nr API and verifies them with the checker —
// the repository's end-to-end validation of the paper's central claim.
func TestIntegration_LinearizabilityThroughPublicAPI(t *testing.T) {
	newCtr := func() nr.Sequential[cOp, uint64] { return &apiCounter{} }
	const rounds = 60
	for round := 0; round < rounds; round++ {
		inst, err := nr.New(newCtr, nr.WithNodes(2, 2, 1), nr.WithLogEntries(128))
		if err != nil {
			t.Fatal(err)
		}
		const threads, per = 4, 8
		rec := linearize.NewRecorder(threads)
		var wg sync.WaitGroup
		for g := 0; g < threads; g++ {
			h, err := inst.Register()
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(g int, h *nr.Handle[cOp, uint64]) {
				defer wg.Done()
				cl := rec.Client(g)
				rng := workload.NewRNG(uint64(round*100 + g + 1))
				for i := 0; i < per; i++ {
					inc := rng.Intn(2) == 0
					call := cl.Invoke()
					out := h.Execute(cOp{inc: inc})
					cl.Complete(call, linearize.RegisterIn{Inc: inc}, out)
				}
			}(g, h)
		}
		wg.Wait()
		if !linearize.Check(linearize.CounterModel(), rec.History()) {
			t.Fatalf("round %d: history not linearizable", round)
		}
	}
}

type cOp struct{ inc bool }

type apiCounter struct{ v uint64 }

func (c *apiCounter) Execute(op cOp) uint64 {
	if op.inc {
		c.v++
	}
	return c.v
}
func (c *apiCounter) IsReadOnly(op cOp) bool { return !op.inc }

// TestIntegration_EveryShippedStructureUnderNR runs each sequential
// structure the repository ships through the public API concurrently and
// checks replica agreement.
func TestIntegration_EveryShippedStructureUnderNR(t *testing.T) {
	cfg := []nr.Option{nr.WithNodes(2, 2, 1), nr.WithLogEntries(512)}

	t.Run("skiplist-pq", func(t *testing.T) {
		inst, err := nr.New(func() nr.Sequential[ds.PQOp, ds.PQResult] {
			return ds.NewSkipListPQ(3)
		}, cfg...)
		if err != nil {
			t.Fatal(err)
		}
		driveAndCompare(t, inst, func(rng *workload.RNG) ds.PQOp {
			switch rng.Intn(3) {
			case 0:
				return ds.PQOp{Kind: ds.PQInsert, Key: int64(rng.Intn(5000))}
			case 1:
				return ds.PQOp{Kind: ds.PQDeleteMin}
			}
			return ds.PQOp{Kind: ds.PQFindMin}
		}, func(s nr.Sequential[ds.PQOp, ds.PQResult]) int { return s.(*ds.SkipListPQ).Len() })
	})

	t.Run("pairing-heap", func(t *testing.T) {
		inst, err := nr.New(func() nr.Sequential[ds.PQOp, ds.PQResult] {
			return ds.NewHeapPQ()
		}, cfg...)
		if err != nil {
			t.Fatal(err)
		}
		driveAndCompare(t, inst, func(rng *workload.RNG) ds.PQOp {
			if rng.Intn(2) == 0 {
				return ds.PQOp{Kind: ds.PQInsert, Key: int64(rng.Intn(5000))}
			}
			return ds.PQOp{Kind: ds.PQDeleteMin}
		}, func(s nr.Sequential[ds.PQOp, ds.PQResult]) int { return s.(*ds.HeapPQ).Len() })
	})

	t.Run("stack", func(t *testing.T) {
		inst, err := nr.New(func() nr.Sequential[ds.StackOp, ds.StackResult] {
			return ds.NewSeqStack(64)
		}, cfg...)
		if err != nil {
			t.Fatal(err)
		}
		driveAndCompare(t, inst, func(rng *workload.RNG) ds.StackOp {
			if rng.Intn(2) == 0 {
				return ds.StackOp{Kind: ds.StackPush, Value: int64(rng.Next())}
			}
			return ds.StackOp{Kind: ds.StackPop}
		}, func(s nr.Sequential[ds.StackOp, ds.StackResult]) int { return s.(*ds.SeqStack).Len() })
	})

	t.Run("sorted-set", func(t *testing.T) {
		inst, err := nr.New(func() nr.Sequential[ds.ZOp, ds.ZResult] {
			return ds.NewSeqSortedSet(16, 11)
		}, cfg...)
		if err != nil {
			t.Fatal(err)
		}
		driveAndCompare(t, inst, func(rng *workload.RNG) ds.ZOp {
			m := fmt.Sprintf("m%d", rng.Intn(40))
			switch rng.Intn(4) {
			case 0:
				return ds.ZOp{Kind: ds.ZAdd, Member: m, Score: float64(rng.Intn(100))}
			case 1:
				return ds.ZOp{Kind: ds.ZIncrBy, Member: m, Score: 1}
			case 2:
				return ds.ZOp{Kind: ds.ZRem, Member: m}
			}
			return ds.ZOp{Kind: ds.ZRank, Member: m}
		}, func(s nr.Sequential[ds.ZOp, ds.ZResult]) int { return s.(*ds.SeqSortedSet).Inner().Len() })
	})

	t.Run("queue", func(t *testing.T) {
		inst, err := nr.New(func() nr.Sequential[ds.QueueOp, ds.QueueResult] {
			return ds.NewSeqQueue(64)
		}, cfg...)
		if err != nil {
			t.Fatal(err)
		}
		driveAndCompare(t, inst, func(rng *workload.RNG) ds.QueueOp {
			switch rng.Intn(5) {
			case 0, 1:
				return ds.QueueOp{Kind: ds.QueueEnqueue, Value: int64(rng.Next())}
			case 2, 3:
				return ds.QueueOp{Kind: ds.QueueDequeue}
			}
			return ds.QueueOp{Kind: ds.QueuePeek}
		}, func(s nr.Sequential[ds.QueueOp, ds.QueueResult]) int { return s.(*ds.SeqQueue).Len() })
	})

	// Get reorders recency, so which keys survive eviction depends on the
	// order of reads too: the fingerprint is over the surviving key set.
	t.Run("lru", func(t *testing.T) {
		const keys = 200
		inst, err := nr.New(func() nr.Sequential[ds.LRUOp, ds.LRUResult] {
			return ds.NewSeqLRU(64)
		}, cfg...)
		if err != nil {
			t.Fatal(err)
		}
		driveAndCompare(t, inst, func(rng *workload.RNG) ds.LRUOp {
			k := int64(rng.Intn(keys))
			switch rng.Intn(4) {
			case 0:
				return ds.LRUOp{Kind: ds.LRUPut, Key: k, Value: rng.Next()}
			case 1:
				return ds.LRUOp{Kind: ds.LRUGet, Key: k}
			case 2:
				return ds.LRUOp{Kind: ds.LRURemove, Key: k}
			}
			return ds.LRUOp{Kind: ds.LRUPeek, Key: k}
		}, func(s nr.Sequential[ds.LRUOp, ds.LRUResult]) int {
			sum := 0
			for k := int64(0); k < keys; k++ {
				if s.Execute(ds.LRUOp{Kind: ds.LRUPeek, Key: k}).OK {
					sum += int(k*k) + 1
				}
			}
			return sum
		})
	})

	// Three dictionaries behind one op type: swapping the constructor is the
	// whole port (the black-box claim). Keys are few enough that deletes hit
	// absent keys, which FastPathDict serves through TryReadOnly (§6).
	dictOp := func(rng *workload.RNG) ds.DictOp {
		k := int64(rng.Intn(300))
		switch rng.Intn(4) {
		case 0:
			return ds.DictOp{Kind: ds.DictInsert, Key: k, Value: rng.Next()}
		case 1, 2:
			return ds.DictOp{Kind: ds.DictDelete, Key: k}
		}
		return ds.DictOp{Kind: ds.DictLookup, Key: k}
	}
	for _, d := range []struct {
		name   string
		create func() nr.Sequential[ds.DictOp, ds.DictResult]
	}{
		{"skiplist-dict", func() nr.Sequential[ds.DictOp, ds.DictResult] { return ds.NewSkipListDict(5) }},
		{"btree-dict", func() nr.Sequential[ds.DictOp, ds.DictResult] { return ds.NewBTreeDict() }},
		{"fastpath-dict", func() nr.Sequential[ds.DictOp, ds.DictResult] { return ds.NewFastPathDict(5) }},
	} {
		t.Run(d.name, func(t *testing.T) {
			inst, err := nr.New(d.create, cfg...)
			if err != nil {
				t.Fatal(err)
			}
			driveAndCompare(t, inst, dictOp, func(s nr.Sequential[ds.DictOp, ds.DictResult]) int {
				return s.(interface{ Len() int }).Len()
			})
		})
	}

	// The buffer's length never changes; a read of entry 0 and seven derived
	// entries is its replica fingerprint.
	t.Run("buffer", func(t *testing.T) {
		inst, err := nr.New(func() nr.Sequential[ds.BufferOp, ds.BufferResult] {
			return ds.NewSeqBuffer(256)
		}, cfg...)
		if err != nil {
			t.Fatal(err)
		}
		driveAndCompare(t, inst, func(rng *workload.RNG) ds.BufferOp {
			return ds.BufferOp{Update: rng.Intn(2) == 0, Seed: rng.Next(), C: 4}
		}, func(s nr.Sequential[ds.BufferOp, ds.BufferResult]) int {
			return int(s.Execute(ds.BufferOp{Seed: 1, C: 8}).Sum)
		})
	})

	t.Run("miniredis-store", func(t *testing.T) {
		inst, err := nr.New(func() nr.Sequential[miniredis.StoreOp, miniredis.StoreResult] {
			return miniredis.NewStore(13)
		}, cfg...)
		if err != nil {
			t.Fatal(err)
		}
		driveAndCompare(t, inst, func(rng *workload.RNG) miniredis.StoreOp {
			m := fmt.Sprintf("m%d", rng.Intn(40))
			switch rng.Intn(3) {
			case 0:
				return miniredis.StoreOp{Cmd: miniredis.CmdZIncrBy, Key: "z", Member: m, Score: 1}
			case 1:
				return miniredis.StoreOp{Cmd: miniredis.CmdZRank, Key: "z", Member: m}
			}
			return miniredis.StoreOp{Cmd: miniredis.CmdZCard, Key: "z"}
		}, func(s nr.Sequential[miniredis.StoreOp, miniredis.StoreResult]) int {
			return s.(*miniredis.Store).Len()
		})
	})
}

// TestIntegration_ReplayedZIncrByAllocatesNothing pins the paper's §8.3
// update end to end: NR executes it once per replica (§5.1), so whatever the
// structure allocates is paid `nodes` times under a writer lock. The read on
// node 1 makes replica 1 replay each update inside the measured call. It
// runs with default options and with the metrics observer and a flight
// recorder attached, the configuration nrredis serves with.
func TestIntegration_ReplayedZIncrByAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []nr.Option
	}{
		{"default", nil},
		{"observed", []nr.Option{nr.WithMetrics(), nr.WithFlightRecorderInstance(nr.NewFlightRecorder(nr.TraceConfig{RingSlots: 1024}))}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst, err := nr.New(func() nr.Sequential[miniredis.StoreOp, miniredis.StoreResult] {
				return miniredis.NewStore(13)
			}, append([]nr.Option{nr.WithNodes(2, 1, 1)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Close()
			h0, err := inst.RegisterOnNode(0)
			if err != nil {
				t.Fatal(err)
			}
			h1, err := inst.RegisterOnNode(1)
			if err != nil {
				t.Fatal(err)
			}
			incr := make([]miniredis.StoreOp, 64)
			for i := range incr {
				incr[i] = miniredis.StoreOp{Cmd: miniredis.CmdZIncrBy, Key: "z", Member: fmt.Sprintf("m%02d", i), Score: 7}
				h0.Execute(miniredis.StoreOp{Cmd: miniredis.CmdZAdd, Key: "z", Member: incr[i].Member, Score: float64(i)})
			}
			rank := miniredis.StoreOp{Cmd: miniredis.CmdZRank, Key: "z", Member: "m00"}
			// Each measured call runs 32 ops per handle, two sampling periods,
			// so the sampled and the unsampled branch both run in every call
			// and an allocation on either one shows.
			i := 0
			if n := testing.AllocsPerRun(50, func() {
				for range 2 * trace.SampleEvery {
					h0.Execute(incr[i%len(incr)])
					h1.Execute(rank)
					i++
				}
			}); n != 0 {
				t.Errorf("ZINCRBY of an existing member replayed on two replicas: %v allocs per 32 op pairs, want 0", n)
			}
			if st := inst.Stats(); st.UpdateOps < 1000 || st.ReadOps < 1000 {
				t.Fatalf("stats = %+v: the measured ops did not run", st)
			}
		})
	}
}

// driveAndCompare runs 4 goroutines of ops, then asserts every replica
// reaches the same size.
func driveAndCompare[O, R any](t *testing.T, inst *nr.Instance[O, R],
	gen func(*workload.RNG) O, size func(nr.Sequential[O, R]) int) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		h, err := inst.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, h *nr.Handle[O, R]) {
			defer wg.Done()
			rng := workload.NewRNG(uint64(g + 1))
			for i := 0; i < 1200; i++ {
				h.Execute(gen(rng))
			}
		}(g, h)
	}
	wg.Wait()
	inst.Quiesce()
	sizes := make([]int, inst.Replicas())
	for n := 0; n < inst.Replicas(); n++ {
		inst.Inspect(n, func(s nr.Sequential[O, R]) { sizes[n] = size(s) })
	}
	for n := 1; n < len(sizes); n++ {
		if sizes[n] != sizes[0] {
			t.Fatalf("replica sizes diverged: %v", sizes)
		}
	}
}
