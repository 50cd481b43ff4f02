// Benchmarks driving the REAL implementation (not the simulator), one per
// table/figure of the paper's evaluation. On a machine without many cores
// these measure per-operation overhead and contention behaviour under the
// Go scheduler; the full 112-thread sweeps that regenerate the figures'
// curves live in cmd/nrbench (deterministic NUMA simulator). Run with:
//
//	go test -bench=. -benchmem
package nr_test

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/asplos17/nr/internal/baseline"
	"github.com/asplos17/nr/internal/core"
	"github.com/asplos17/nr/internal/ds"
	"github.com/asplos17/nr/internal/lockfree"
	"github.com/asplos17/nr/internal/miniredis"
	"github.com/asplos17/nr/internal/numastack"
	"github.com/asplos17/nr/internal/topology"
	"github.com/asplos17/nr/internal/workload"
)

// benchTopo sizes the software topology to the host so every parallel
// benchmark goroutine can register.
func benchTopo() topology.Topology {
	procs := runtime.GOMAXPROCS(0)
	return topology.New(2, max(procs, 2), 2)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// newMethod builds a concurrent wrapper around seq() for the named method.
func newMethod[O, R any](b *testing.B, method string, seq func() core.Sequential[O, R]) baseline.Shared[O, R] {
	b.Helper()
	topo := benchTopo()
	switch method {
	case "NR":
		inst, err := core.New[O, R](seq, core.Options{Topology: topo})
		if err != nil {
			b.Fatal(err)
		}
		return &baseline.NRAdapter[O, R]{Inst: inst}
	case "SL":
		return baseline.NewSpinLocked[O, R](seq())
	case "RWL":
		return baseline.NewRWLocked[O, R](seq(), topo.TotalThreads())
	case "FC":
		return baseline.NewFlatCombining[O, R](seq(), topo.TotalThreads())
	case "FC+":
		return baseline.NewFlatCombiningPlus[O, R](seq(), topo.TotalThreads())
	}
	b.Fatalf("unknown method %s", method)
	return nil
}

var allMethods = []string{"NR", "SL", "RWL", "FC", "FC+"}

// runShared drives a Shared structure with RunParallel; gen produces the
// next operation for a thread.
func runShared[O, R any](b *testing.B, s baseline.Shared[O, R], gen func(rng *workload.RNG) O) {
	b.Helper()
	handles := make(chan baseline.Executor[O, R], 256)
	for i := 0; i < 256; i++ {
		ex, err := s.Register()
		if err != nil {
			break // topology full; RunParallel will use what we have
		}
		handles <- ex
	}
	var seedCounter uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ex := <-handles
		seedCounter++
		rng := workload.NewRNG(seedCounter * 0x9e3779b97f4a7c15)
		for pb.Next() {
			ex.Execute(gen(rng))
		}
		handles <- ex
	})
}

// pqGen produces the §8.1 priority-queue mix.
func pqGen(mix workload.Mix, keys workload.KeyDist) func(rng *workload.RNG) ds.PQOp {
	return func(rng *workload.RNG) ds.PQOp {
		switch mix.Kind(rng) {
		case workload.OpAdd:
			return ds.PQOp{Kind: ds.PQInsert, Key: keys.Key(rng)}
		case workload.OpRemove:
			return ds.PQOp{Kind: ds.PQDeleteMin}
		default:
			return ds.PQOp{Kind: ds.PQFindMin}
		}
	}
}

// BenchmarkFig5_SkipListPQ reproduces Figure 5 (a-d) on the real skip-list
// priority queue: method × update ratio, 200K-element prefill.
func BenchmarkFig5_SkipListPQ(b *testing.B) {
	for _, method := range allMethods {
		for _, upd := range []float64{0, 0.1, 1.0} {
			b.Run(fmt.Sprintf("%s/upd=%.0f%%", method, upd*100), func(b *testing.B) {
				s := newMethod(b, method, func() core.Sequential[ds.PQOp, ds.PQResult] {
					pq := ds.NewSkipListPQ(7)
					rng := workload.NewRNG(7)
					for i := 0; i < 200000; i++ {
						pq.Execute(ds.PQOp{Kind: ds.PQInsert, Key: int64(rng.Next() % (1 << 40))})
					}
					return pq
				})
				gen := pqGen(workload.NewMix(upd), workload.NewUniform(1<<40))
				runShared(b, s, gen)
			})
		}
	}
}

// BenchmarkFig6_PairingHeapPQ reproduces Figure 6 on the pairing heap.
func BenchmarkFig6_PairingHeapPQ(b *testing.B) {
	for _, method := range allMethods {
		for _, upd := range []float64{0.1, 1.0} {
			b.Run(fmt.Sprintf("%s/upd=%.0f%%", method, upd*100), func(b *testing.B) {
				s := newMethod(b, method, func() core.Sequential[ds.PQOp, ds.PQResult] {
					pq := ds.NewHeapPQ()
					rng := workload.NewRNG(11)
					for i := 0; i < 200000; i++ {
						pq.Execute(ds.PQOp{Kind: ds.PQInsert, Key: int64(rng.Next() % (1 << 40))})
					}
					return pq
				})
				gen := pqGen(workload.NewMix(upd), workload.NewUniform(1<<40))
				runShared(b, s, gen)
			})
		}
	}
}

// dictGen produces the §8.1.3 dictionary mix over a key distribution.
func dictGen(mix workload.Mix, keys workload.KeyDist) func(rng *workload.RNG) ds.DictOp {
	return func(rng *workload.RNG) ds.DictOp {
		k := keys.Key(rng)
		switch mix.Kind(rng) {
		case workload.OpAdd:
			return ds.DictOp{Kind: ds.DictInsert, Key: k, Value: uint64(k)}
		case workload.OpRemove:
			return ds.DictOp{Kind: ds.DictDelete, Key: k}
		default:
			return ds.DictOp{Kind: ds.DictLookup, Key: k}
		}
	}
}

// BenchmarkFig7_SkipListDict reproduces Figure 7: uniform and zipf(1.5)
// keys, 10% and 100% updates.
func BenchmarkFig7_SkipListDict(b *testing.B) {
	dists := map[string]func() workload.KeyDist{
		"uniform": func() workload.KeyDist { return workload.NewUniform(400000) },
		"zipf":    func() workload.KeyDist { return workload.NewZipf(400000, 1.5) },
	}
	for _, method := range allMethods {
		for distName, mk := range dists {
			for _, upd := range []float64{0.1, 1.0} {
				b.Run(fmt.Sprintf("%s/%s/upd=%.0f%%", method, distName, upd*100), func(b *testing.B) {
					s := newMethod(b, method, func() core.Sequential[ds.DictOp, ds.DictResult] {
						d := ds.NewSkipListDict(13)
						rng := workload.NewRNG(13)
						for i := 0; i < 200000; i++ {
							d.Execute(ds.DictOp{Kind: ds.DictInsert, Key: int64(rng.Next() % 400000), Value: 1})
						}
						return d
					})
					gen := dictGen(workload.NewMix(upd), mk())
					runShared(b, s, gen)
				})
			}
		}
	}
}

// BenchmarkFig7_LockFreeDict measures the LF baseline of Figure 7 (the
// Herlihy–Shavit lock-free skip list) under both key distributions.
func BenchmarkFig7_LockFreeDict(b *testing.B) {
	for distName, mk := range map[string]func() workload.KeyDist{
		"uniform": func() workload.KeyDist { return workload.NewUniform(400000) },
		"zipf":    func() workload.KeyDist { return workload.NewZipf(400000, 1.5) },
	} {
		for _, upd := range []float64{0.1, 1.0} {
			b.Run(fmt.Sprintf("LF/%s/upd=%.0f%%", distName, upd*100), func(b *testing.B) {
				s := lockfree.NewSkipList()
				mix := workload.NewMix(upd)
				keys := mk()
				var seed uint64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					seed++
					rng := workload.NewRNG(seed * 77)
					for pb.Next() {
						k := keys.Key(rng)
						switch mix.Kind(rng) {
						case workload.OpAdd:
							s.Insert(k, uint64(k))
						case workload.OpRemove:
							s.Delete(k)
						default:
							s.Contains(k)
						}
					}
				})
				b.ReportMetric(float64(s.FailedCAS()), "failedCAS")
			})
		}
	}
}

// BenchmarkFig8_Stack reproduces Figure 8: push/pop mix over every method
// including the lock-free Treiber stack and the NUMA-aware elimination
// stack.
func BenchmarkFig8_Stack(b *testing.B) {
	for _, method := range allMethods {
		b.Run(method, func(b *testing.B) {
			s := newMethod(b, method, func() core.Sequential[ds.StackOp, ds.StackResult] {
				st := ds.NewSeqStack(256)
				for i := int64(0); i < 64; i++ {
					st.Execute(ds.StackOp{Kind: ds.StackPush, Value: i})
				}
				return st
			})
			runShared(b, s, func(rng *workload.RNG) ds.StackOp {
				if rng.Intn(2) == 0 {
					return ds.StackOp{Kind: ds.StackPush, Value: int64(rng.Next())}
				}
				return ds.StackOp{Kind: ds.StackPop}
			})
		})
	}
	b.Run("LF-treiber", func(b *testing.B) {
		s := lockfree.NewTreiberStack[int64]()
		var seed uint64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			seed++
			rng := workload.NewRNG(seed * 31)
			for pb.Next() {
				if rng.Intn(2) == 0 {
					s.Push(int64(rng.Next()))
				} else {
					s.Pop()
				}
			}
		})
	})
	b.Run("NA-elimination", func(b *testing.B) {
		s := numastack.New(benchTopo(), 8)
		handles := make(chan *numastack.Handle, 64)
		for i := 0; i < 64; i++ {
			h, err := s.Register()
			if err != nil {
				break
			}
			handles <- h
		}
		var seed uint64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			h := <-handles
			seed++
			rng := workload.NewRNG(seed * 93)
			for pb.Next() {
				if rng.Intn(2) == 0 {
					h.Push(int64(rng.Next()))
				} else {
					h.Pop()
				}
			}
			handles <- h
		})
	})
}

// BenchmarkFig9_Synthetic reproduces Figure 9: the padded buffer with
// n=200K entries and c=8 lines per operation.
func BenchmarkFig9_Synthetic(b *testing.B) {
	for _, method := range allMethods {
		for _, upd := range []float64{0.1, 1.0} {
			b.Run(fmt.Sprintf("%s/upd=%.0f%%", method, upd*100), func(b *testing.B) {
				s := newMethod(b, method, func() core.Sequential[ds.BufferOp, ds.BufferResult] {
					return ds.NewSeqBuffer(200000)
				})
				mix := workload.NewMix(upd)
				runShared(b, s, func(rng *workload.RNG) ds.BufferOp {
					return ds.BufferOp{
						Update: mix.Kind(rng) != workload.OpRead,
						Seed:   rng.Next(),
						C:      8,
					}
				})
			})
		}
	}
}

// BenchmarkFig10_CacheLinesPerOp reproduces Figure 10's x axis: the effect
// of c (cache lines touched per operation) on NR.
func BenchmarkFig10_CacheLinesPerOp(b *testing.B) {
	for _, c := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("NR/c=%d", c), func(b *testing.B) {
			s := newMethod(b, "NR", func() core.Sequential[ds.BufferOp, ds.BufferResult] {
				return ds.NewSeqBuffer(200000)
			})
			runShared(b, s, func(rng *workload.RNG) ds.BufferOp {
				return ds.BufferOp{Update: true, Seed: rng.Next(), C: c}
			})
		})
	}
}

// BenchmarkFig11_Redis reproduces Figure 11: the mini-Redis sorted set
// (10K items) under the YCSB-style ZRANK/ZINCRBY mixes, invoking operations
// directly after the RPC layer as the paper does.
func BenchmarkFig11_Redis(b *testing.B) {
	members := make([]string, 10000)
	for i := range members {
		members[i] = fmt.Sprintf("item:%05d", i)
	}
	for _, method := range []string{"NR", "SL", "RWL", "FC", "FC+"} {
		for _, upd := range []float64{0.1, 0.5, 1.0} {
			b.Run(fmt.Sprintf("%s/upd=%.0f%%", method, upd*100), func(b *testing.B) {
				s := newMethod(b, method, func() core.Sequential[miniredis.StoreOp, miniredis.StoreResult] {
					st := miniredis.NewStore(3)
					for i, m := range members {
						st.Execute(miniredis.StoreOp{Cmd: miniredis.CmdZAdd, Key: "zset", Member: m, Score: float64(i)})
					}
					return st
				})
				mix := workload.NewMix(upd)
				runShared(b, s, func(rng *workload.RNG) miniredis.StoreOp {
					m := members[rng.Intn(len(members))]
					if mix.Kind(rng) == workload.OpRead {
						return miniredis.StoreOp{Cmd: miniredis.CmdZRank, Key: "zset", Member: m}
					}
					return miniredis.StoreOp{Cmd: miniredis.CmdZIncrBy, Key: "zset", Member: m, Score: 1}
				})
			})
		}
	}
}

// BenchmarkTableMemory reproduces the memory tables (Fig. 5f, 6c, 7e): MB
// consumed by NR (4 replicas + log) versus a single sequential copy, for a
// 200K-element structure. The MB metric is the deliverable; ns/op is noise.
func BenchmarkTableMemory(b *testing.B) {
	builders := []struct {
		name   string
		nr     func() float64
		single func() float64
	}{
		{"skiplistpq",
			func() float64 {
				inst, err := core.New[ds.PQOp, ds.PQResult](
					func() core.Sequential[ds.PQOp, ds.PQResult] { return ds.NewSkipListPQ(1) },
					core.Options{Topology: topology.Intel4x14x2(), LogEntries: 1 << 16})
				if err != nil {
					b.Fatal(err)
				}
				h, _ := inst.Register()
				for k := 0; k < 200000; k++ {
					h.Execute(ds.PQOp{Kind: ds.PQInsert, Key: int64(k)})
				}
				inst.Quiesce()
				mb := heapMB()
				_ = inst.Stats()
				return mb
			},
			func() float64 {
				pq := ds.NewSkipListPQ(1)
				for k := 0; k < 200000; k++ {
					pq.Execute(ds.PQOp{Kind: ds.PQInsert, Key: int64(k)})
				}
				mb := heapMB()
				_ = pq.Len()
				return mb
			}},
		{"pairingheap",
			func() float64 {
				inst, err := core.New[ds.PQOp, ds.PQResult](
					func() core.Sequential[ds.PQOp, ds.PQResult] { return ds.NewHeapPQ() },
					core.Options{Topology: topology.Intel4x14x2(), LogEntries: 1 << 16})
				if err != nil {
					b.Fatal(err)
				}
				h, _ := inst.Register()
				for k := 0; k < 200000; k++ {
					h.Execute(ds.PQOp{Kind: ds.PQInsert, Key: int64(k)})
				}
				inst.Quiesce()
				mb := heapMB()
				_ = inst.Stats()
				return mb
			},
			func() float64 {
				pq := ds.NewHeapPQ()
				for k := 0; k < 200000; k++ {
					pq.Execute(ds.PQOp{Kind: ds.PQInsert, Key: int64(k)})
				}
				mb := heapMB()
				_ = pq.Len()
				return mb
			}},
	}
	for _, c := range builders {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				base := heapMB()
				nrMB := c.nr() - base
				base = heapMB()
				singleMB := c.single() - base
				b.ReportMetric(nrMB, "NR-MB")
				b.ReportMetric(singleMB, "single-MB")
			}
		})
	}
}

// heapMB reports live heap after a GC, in MB.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// BenchmarkExtQueue is an extension beyond the paper's figures: the FIFO
// queue (§2 lists it among the canonical contended structures) under every
// method, including the Michael–Scott lock-free queue as the LF baseline.
func BenchmarkExtQueue(b *testing.B) {
	for _, method := range allMethods {
		b.Run(method, func(b *testing.B) {
			s := newMethod(b, method, func() core.Sequential[ds.QueueOp, ds.QueueResult] {
				q := ds.NewSeqQueue(1024)
				for i := int64(0); i < 128; i++ {
					q.Execute(ds.QueueOp{Kind: ds.QueueEnqueue, Value: i})
				}
				return q
			})
			runShared(b, s, func(rng *workload.RNG) ds.QueueOp {
				if rng.Intn(2) == 0 {
					return ds.QueueOp{Kind: ds.QueueEnqueue, Value: int64(rng.Next())}
				}
				return ds.QueueOp{Kind: ds.QueueDequeue}
			})
		})
	}
	b.Run("LF-msqueue", func(b *testing.B) {
		q := lockfree.NewMSQueue[int64]()
		var seed uint64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			seed++
			rng := workload.NewRNG(seed * 17)
			for pb.Next() {
				if rng.Intn(2) == 0 {
					q.Enqueue(int64(rng.Next()))
				} else {
					q.Dequeue()
				}
			}
		})
	})
}

// BenchmarkExtLRUCache is an extension: a shared LRU cache where even Get
// is an update (it reorders the recency list) — an operation-contention
// workload par excellence.
func BenchmarkExtLRUCache(b *testing.B) {
	for _, method := range allMethods {
		for _, hitTarget := range []string{"hot", "uniform"} {
			b.Run(fmt.Sprintf("%s/%s", method, hitTarget), func(b *testing.B) {
				s := newMethod(b, method, func() core.Sequential[ds.LRUOp, ds.LRUResult] {
					c := ds.NewSeqLRU(4096)
					for i := int64(0); i < 4096; i++ {
						c.Execute(ds.LRUOp{Kind: ds.LRUPut, Key: i, Value: uint64(i)})
					}
					return c
				})
				var keys workload.KeyDist
				if hitTarget == "hot" {
					keys = workload.NewZipf(8192, 1.5)
				} else {
					keys = workload.NewUniform(8192)
				}
				runShared(b, s, func(rng *workload.RNG) ds.LRUOp {
					k := keys.Key(rng)
					if rng.Intn(10) == 0 {
						return ds.LRUOp{Kind: ds.LRUPut, Key: k, Value: rng.Next()}
					}
					return ds.LRUOp{Kind: ds.LRUGet, Key: k}
				})
			})
		}
	}
}

// BenchmarkExtBTreeDict is an extension: the dictionary benchmarks with the
// B-tree substituted for the skip list — one constructor change, same
// concurrent structure, demonstrating the black-box property.
func BenchmarkExtBTreeDict(b *testing.B) {
	for _, upd := range []float64{0.1, 1.0} {
		b.Run(fmt.Sprintf("NR/upd=%.0f%%", upd*100), func(b *testing.B) {
			s := newMethod(b, "NR", func() core.Sequential[ds.DictOp, ds.DictResult] {
				d := ds.NewBTreeDict()
				rng := workload.NewRNG(17)
				for i := 0; i < 200000; i++ {
					d.Execute(ds.DictOp{Kind: ds.DictInsert, Key: int64(rng.Next() % 400000), Value: 1})
				}
				return d
			})
			gen := dictGen(workload.NewMix(upd), workload.NewUniform(400000))
			runShared(b, s, gen)
		})
	}
}

// BenchmarkExtFakeUpdates measures the §6 fake-update fast path: a
// delete-heavy workload over mostly-absent keys with and without the
// TryReadOnly optimization.
func BenchmarkExtFakeUpdates(b *testing.B) {
	gen := func(rng *workload.RNG) ds.DictOp {
		// 95% of deletes target absent keys.
		return ds.DictOp{Kind: ds.DictDelete, Key: int64(rng.Next() % 1_000_000)}
	}
	b.Run("with-fastpath", func(b *testing.B) {
		s := newMethod(b, "NR", func() core.Sequential[ds.DictOp, ds.DictResult] {
			d := ds.NewFastPathDict(19)
			for i := int64(0); i < 50000; i++ {
				d.Execute(ds.DictOp{Kind: ds.DictInsert, Key: i, Value: 1})
			}
			return d
		})
		runShared(b, s, gen)
	})
	b.Run("without-fastpath", func(b *testing.B) {
		s := newMethod(b, "NR", func() core.Sequential[ds.DictOp, ds.DictResult] {
			d := ds.NewSkipListDict(19)
			for i := int64(0); i < 50000; i++ {
				d.Execute(ds.DictOp{Kind: ds.DictInsert, Key: i, Value: 1})
			}
			return d
		})
		runShared(b, s, gen)
	})
}
