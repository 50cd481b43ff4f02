package bench

import (
	"fmt"
	"runtime"
	"sort"

	"github.com/asplos17/nr/internal/core"
	"github.com/asplos17/nr/internal/ds"
	"github.com/asplos17/nr/internal/sim"
	"github.com/asplos17/nr/internal/topology"
	"github.com/asplos17/nr/internal/workload"
)

// extWorkNs converts the paper's external-work parameter e (random writes
// between operations) to simulated nanoseconds: roughly 2ns per write to
// thread-local memory.
func extWorkNs(e int) uint64 { return uint64(e) * 2 }

// Figures returns the registry of all reproducible experiments, keyed by
// the paper's figure/table ids.
func Figures() map[string]Figure {
	figs := map[string]Figure{}
	add := func(f Figure) {
		if f.Unit == "" {
			f.Unit = "ops/us"
		}
		figs[f.ID] = f
	}

	pqMethods := []string{"NR", "SL", "RWL", "FC", "FC+", "LF"}
	lockMethods := []string{"NR", "SL", "RWL", "FC", "FC+"}

	// --- Figure 5: skip list priority queue --------------------------------
	add(Figure{ID: "5a", Title: "Skip list priority queue, 0% updates, e=0", XLabel: "threads",
		Run: func(cfg Config) []Series {
			return threadSweep(cfg, SkipListPQ, 0, 0, methodSet(pqMethods...))
		}})
	add(Figure{ID: "5b", Title: "Skip list priority queue, 10% updates, e=0", XLabel: "threads",
		Run: func(cfg Config) []Series {
			return threadSweep(cfg, SkipListPQ, 100, 0, methodSet(pqMethods...))
		}})
	add(Figure{ID: "5c", Title: "Skip list priority queue, 100% updates, e=0", XLabel: "threads",
		Run: func(cfg Config) []Series {
			return threadSweep(cfg, SkipListPQ, 1000, 0, methodSet(pqMethods...))
		}})
	add(Figure{ID: "5d", Title: "Skip list priority queue, 100% updates, e=512", XLabel: "threads",
		Run: func(cfg Config) []Series {
			return threadSweep(cfg, SkipListPQ, 1000, extWorkNs(512), methodSet(pqMethods...))
		}})
	add(Figure{ID: "5e", Title: "Skip list priority queue, 100% updates, max threads, e sweep", XLabel: "work e",
		Run: func(cfg Config) []Series {
			cfg = cfg.withDefaults()
			var out []Series
			for _, m := range methodSet(pqMethods...) {
				s := Series{Method: m.name}
				for _, e := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512} {
					machine := sim.New(cfg.Topo, cfg.Cost)
					res := m.run(machine, SkipListPQ, sim.Run{
						Threads:        cfg.Topo.TotalThreads(),
						OpsPerThread:   cfg.OpsPerThread,
						UpdatePermille: 1000,
						ExternalWorkNs: extWorkNs(e),
					})
					s.Points = append(s.Points, Point{X: e, OpsPerUs: res.OpsPerUs()})
				}
				out = append(out, s)
			}
			return out
		}})
	add(Figure{ID: "5f", Title: "Skip list priority queue memory (MB) at max threads", XLabel: "items", Unit: "MB",
		Run: func(cfg Config) []Series { return memoryTable(cfg, "skiplistpq") }})

	// --- Figure 6: pairing heap priority queue -----------------------------
	add(Figure{ID: "6a", Title: "Pairing heap priority queue, 10% updates", XLabel: "threads",
		Run: func(cfg Config) []Series {
			return threadSweep(cfg, PairingHeapPQ, 100, 0, methodSet(lockMethods...))
		}})
	add(Figure{ID: "6b", Title: "Pairing heap priority queue, 100% updates", XLabel: "threads",
		Run: func(cfg Config) []Series {
			return threadSweep(cfg, PairingHeapPQ, 1000, 0, methodSet(lockMethods...))
		}})
	add(Figure{ID: "6c", Title: "Pairing heap memory (MB) at max threads", XLabel: "items", Unit: "MB",
		Run: func(cfg Config) []Series { return memoryTable(cfg, "pairingheap") }})

	// --- Figure 7: skip list dictionary ------------------------------------
	add(Figure{ID: "7a", Title: "Skip list dictionary, uniform keys, 10% updates", XLabel: "threads",
		Run: func(cfg Config) []Series {
			return threadSweep(cfg, DictUniform, 100, 0, methodSet(pqMethods...))
		}})
	add(Figure{ID: "7b", Title: "Skip list dictionary, uniform keys, 100% updates", XLabel: "threads",
		Run: func(cfg Config) []Series {
			return threadSweep(cfg, DictUniform, 1000, 0, methodSet(pqMethods...))
		}})
	add(Figure{ID: "7c", Title: "Skip list dictionary, zipf(1.5) keys, 10% updates", XLabel: "threads",
		Run: func(cfg Config) []Series {
			return threadSweep(cfg, DictZipf, 100, 0, methodSet(pqMethods...))
		}})
	add(Figure{ID: "7d", Title: "Skip list dictionary, zipf(1.5) keys, 100% updates", XLabel: "threads",
		Run: func(cfg Config) []Series {
			return threadSweep(cfg, DictZipf, 1000, 0, methodSet(pqMethods...))
		}})
	add(Figure{ID: "7e", Title: "Skip list dictionary memory (MB) at max threads", XLabel: "items", Unit: "MB",
		Run: func(cfg Config) []Series { return memoryTable(cfg, "dict") }})

	// --- Figure 8: stack -----------------------------------------------------
	add(Figure{ID: "8", Title: "Stack, 100% updates (with NUMA-aware elimination stack)", XLabel: "threads",
		Run: func(cfg Config) []Series {
			return threadSweep(cfg, Stack, 1000, 0, methodSet("NA", "NR", "SL", "RWL", "FC", "FC+", "LF"))
		}})

	// --- Figure 9: synthetic structure scalability ---------------------------
	add(Figure{ID: "9a", Title: "Synthetic structure (n=200K, c=8), 10% updates", XLabel: "threads",
		Run: func(cfg Config) []Series {
			return threadSweep(cfg, Synthetic(200000, 8), 100, 0, methodSet(lockMethods...))
		}})
	add(Figure{ID: "9b", Title: "Synthetic structure (n=200K, c=8), 100% updates", XLabel: "threads",
		Run: func(cfg Config) []Series {
			return threadSweep(cfg, Synthetic(200000, 8), 1000, 0, methodSet(lockMethods...))
		}})

	// --- Figure 10: effect of c ---------------------------------------------
	cSweep := func(updatePermille int) func(cfg Config) []Series {
		return func(cfg Config) []Series {
			cfg = cfg.withDefaults()
			baselines := methodSet("SL", "RWL", "FC", "FC+")
			nr := methodSet("NR")[0]
			out := make([]Series, len(baselines))
			for i := range baselines {
				out[i].Method = "NR/" + baselines[i].name
			}
			for _, c := range []int{1, 2, 4, 8, 16, 32, 64} {
				p := Synthetic(200000, c)
				run := sim.Run{
					Threads:        cfg.Topo.TotalThreads(),
					OpsPerThread:   cfg.OpsPerThread,
					UpdatePermille: updatePermille,
				}
				machine := sim.New(cfg.Topo, cfg.Cost)
				nrOps := nr.run(machine, p, run).OpsPerUs()
				for i, b := range baselines {
					machine := sim.New(cfg.Topo, cfg.Cost)
					ops := b.run(machine, p, run).OpsPerUs()
					speedup := 0.0
					if ops > 0 {
						speedup = nrOps / ops
					}
					out[i].Points = append(out[i].Points, Point{X: c, OpsPerUs: speedup})
				}
			}
			return out
		}
	}
	add(Figure{ID: "10a", Title: "NR speedup vs cache lines per op (c), 10% updates (y = ×)", XLabel: "c",
		Unit: "x", Run: cSweep(100)})
	add(Figure{ID: "10b", Title: "NR speedup vs cache lines per op (c), 100% updates (y = ×)", XLabel: "c",
		Unit: "x", Run: cSweep(1000)})

	// --- §8.2.3: structure size sweep ----------------------------------------
	add(Figure{ID: "size", Title: "Synthetic structure size sweep (c=8, 100% updates, max threads)", XLabel: "n",
		Run: func(cfg Config) []Series {
			cfg = cfg.withDefaults()
			var out []Series
			for _, m := range methodSet(lockMethods...) {
				s := Series{Method: m.name}
				for _, n := range []int{2000, 20000, 200000, 1000000} {
					machine := sim.New(cfg.Topo, cfg.Cost)
					res := m.run(machine, Synthetic(n, 8), sim.Run{
						Threads:        cfg.Topo.TotalThreads(),
						OpsPerThread:   cfg.OpsPerThread,
						UpdatePermille: 1000,
					})
					s.Points = append(s.Points, Point{X: n, OpsPerUs: res.OpsPerUs()})
				}
				out = append(out, s)
			}
			return out
		}})

	// --- Figure 11/12: Redis ---------------------------------------------------
	redisFig := func(id string, updatePermille int, topo topology.Topology, cost sim.CostModel, label string) {
		add(Figure{ID: id, Title: fmt.Sprintf("Redis sorted set (%s), %d%% updates", label, updatePermille/10),
			XLabel: "threads",
			Run: func(cfg Config) []Series {
				cfg.Topo = topo
				cfg.Cost = cost
				cfg = cfg.withDefaults()
				cfg.Threads = defaultSweep(topo)
				return threadSweep(cfg, RedisZSet, updatePermille, 0, methodSet(lockMethods...))
			}})
	}
	intel := topology.Intel4x14x2()
	amd := topology.AMD8x6()
	redisFig("11a", 100, intel, sim.IntelCosts(), "Intel")
	redisFig("11b", 500, intel, sim.IntelCosts(), "Intel")
	redisFig("11c", 1000, intel, sim.IntelCosts(), "Intel")
	redisFig("12a", 100, amd, sim.AMDCosts(), "AMD")
	redisFig("12b", 500, amd, sim.AMDCosts(), "AMD")
	redisFig("12c", 1000, amd, sim.AMDCosts(), "AMD")

	// --- Figure 13/14: ablation ---------------------------------------------
	add(Figure{ID: "14", Title: "Throughput loss when disabling each NR technique (%)", XLabel: "upd%",
		Unit: "%", Run: runAblation})

	// --- Extensions beyond the paper -----------------------------------------
	queueProfile := sim.Profile{
		NLines: 4096, UpdateCLines: 2, ReadCLines: 1, UpdateNs: 15, ReadNs: 10,
		UpdateHotPermille: 1000, ReadHotPermille: 1000, HotLines: 2, HotPathLines: 2,
	}
	add(Figure{ID: "ext-queue", Title: "FIFO queue, 100% updates (extension; LF = Michael-Scott-style)",
		XLabel: "threads",
		Run: func(cfg Config) []Series {
			return threadSweep(cfg, queueProfile, 1000, 0, methodSet("NR", "SL", "RWL", "FC", "FC+", "LF"))
		}})

	return figs
}

// IDs returns the figure ids in display order.
func IDs() []string {
	figs := Figures()
	ids := make([]string, 0, len(figs))
	for id := range figs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// runAblation reproduces Fig. 14: percentage throughput loss at max threads
// when each of the five techniques (Fig. 13) is disabled, for 10% and 100%
// update workloads on the skip-list priority queue.
func runAblation(cfg Config) []Series {
	cfg = cfg.withDefaults()
	techniques := []struct {
		name string
		opts sim.NROpts
	}{
		{"#1 flat combining", sim.NROpts{DisableCombining: true}},
		{"#2 read optimization", sim.NROpts{ReadWaitLogTail: true}},
		{"#3 separate replica lock", sim.NROpts{CombinedReplicaLock: true}},
		{"#4 parallel replica update", sim.NROpts{SerialReplicaUpdate: true}},
		{"#5 better readers-writer lock", sim.NROpts{CentralizedReaderLock: true}},
	}
	out := make([]Series, 1+len(techniques))
	out[0].Method = "full NR"
	for i, tch := range techniques {
		out[i+1].Method = tch.name
	}
	for _, upd := range []int{100, 1000} {
		run := sim.Run{
			Threads:        cfg.Topo.TotalThreads(),
			OpsPerThread:   cfg.OpsPerThread,
			UpdatePermille: upd,
		}
		machine := sim.New(cfg.Topo, cfg.Cost)
		full := sim.RunNR(machine, SkipListPQ, run, sim.NROpts{}).OpsPerUs()
		out[0].Points = append(out[0].Points, Point{X: upd / 10, OpsPerUs: 0})
		for i, tch := range techniques {
			machine := sim.New(cfg.Topo, cfg.Cost)
			got := sim.RunNR(machine, SkipListPQ, run, tch.opts).OpsPerUs()
			loss := 0.0
			if full > 0 {
				loss = 100 * (1 - got/full)
			}
			out[i+1].Points = append(out[i+1].Points, Point{X: upd / 10, OpsPerUs: loss})
		}
	}
	return out
}

// memoryTable reproduces the paper's memory-cost tables (Fig. 5f, 6c, 7e)
// on the real implementation: build the structure with 200K elements under
// NR (4 replicas + log) and under a single-copy method, and report MB.
func memoryTable(cfg Config, structure string) []Series {
	cfg = cfg.withDefaults()
	const items = 200000

	measure := func(build func() func()) float64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		keep := build()
		runtime.GC()
		runtime.ReadMemStats(&after)
		mb := float64(after.HeapAlloc-before.HeapAlloc) / (1 << 20)
		keep() // keep the structure alive past the measurement
		return mb
	}

	var nrMB, singleMB float64
	switch structure {
	case "skiplistpq":
		nrMB = measure(func() func() {
			inst, err := core.New[ds.PQOp, ds.PQResult](
				func() core.Sequential[ds.PQOp, ds.PQResult] { return ds.NewSkipListPQ(1) },
				core.Options{Topology: cfg.Topo, LogEntries: 1 << 16})
			if err != nil {
				panic(err)
			}
			h, _ := inst.Register()
			rng := workload.NewRNG(1)
			for i := 0; i < items; i++ {
				h.Execute(ds.PQOp{Kind: ds.PQInsert, Key: int64(rng.Next())})
			}
			inst.Quiesce()
			return func() { _ = inst.Stats() }
		})
		singleMB = measure(func() func() {
			pq := ds.NewSkipListPQ(1)
			rng := workload.NewRNG(1)
			for i := 0; i < items; i++ {
				pq.Execute(ds.PQOp{Kind: ds.PQInsert, Key: int64(rng.Next())})
			}
			return func() { _ = pq.Len() }
		})
	case "pairingheap":
		nrMB = measure(func() func() {
			inst, err := core.New[ds.PQOp, ds.PQResult](
				func() core.Sequential[ds.PQOp, ds.PQResult] { return ds.NewHeapPQ() },
				core.Options{Topology: cfg.Topo, LogEntries: 1 << 16})
			if err != nil {
				panic(err)
			}
			h, _ := inst.Register()
			rng := workload.NewRNG(2)
			for i := 0; i < items; i++ {
				h.Execute(ds.PQOp{Kind: ds.PQInsert, Key: int64(rng.Next())})
			}
			inst.Quiesce()
			return func() { _ = inst.Stats() }
		})
		singleMB = measure(func() func() {
			pq := ds.NewHeapPQ()
			rng := workload.NewRNG(2)
			for i := 0; i < items; i++ {
				pq.Execute(ds.PQOp{Kind: ds.PQInsert, Key: int64(rng.Next())})
			}
			return func() { _ = pq.Len() }
		})
	case "dict":
		nrMB = measure(func() func() {
			inst, err := core.New[ds.DictOp, ds.DictResult](
				func() core.Sequential[ds.DictOp, ds.DictResult] { return ds.NewSkipListDict(3) },
				core.Options{Topology: cfg.Topo, LogEntries: 1 << 16})
			if err != nil {
				panic(err)
			}
			h, _ := inst.Register()
			rng := workload.NewRNG(3)
			for i := 0; i < items; i++ {
				h.Execute(ds.DictOp{Kind: ds.DictInsert, Key: int64(rng.Next()), Value: rng.Next()})
			}
			inst.Quiesce()
			return func() { _ = inst.Stats() }
		})
		singleMB = measure(func() func() {
			d := ds.NewSkipListDict(3)
			rng := workload.NewRNG(3)
			for i := 0; i < items; i++ {
				d.Execute(ds.DictOp{Kind: ds.DictInsert, Key: int64(rng.Next()), Value: rng.Next()})
			}
			return func() { _ = d.Len() }
		})
	default:
		panic("bench: unknown structure " + structure)
	}
	return []Series{
		{Method: "NR", Points: []Point{{X: items, OpsPerUs: nrMB}}},
		{Method: "others", Points: []Point{{X: items, OpsPerUs: singleMB}}},
	}
}
