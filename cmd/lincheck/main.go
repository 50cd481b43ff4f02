// Command lincheck runs randomized linearizability validation of NR against
// sequential models: many short concurrent histories are recorded on a real
// concurrent execution and checked with a Wing&Gong-style checker.
//
// Usage:
//
//	lincheck -structure counter -rounds 200 -threads 4 -ops 12
//	lincheck -structure dict -rounds 100
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sync"

	"github.com/asplos17/nr/internal/core"
	"github.com/asplos17/nr/internal/ds"
	"github.com/asplos17/nr/internal/linearize"
	"github.com/asplos17/nr/internal/topology"
)

type counter struct{ v uint64 }

func (c *counter) Execute(inc bool) uint64 {
	if inc {
		c.v++
	}
	return c.v
}
func (c *counter) IsReadOnly(inc bool) bool { return !inc }

func main() {
	var (
		structure = flag.String("structure", "counter", "counter, dict, or stack")
		rounds    = flag.Int("rounds", 200, "independent histories to record and check")
		threads   = flag.Int("threads", 4, "concurrent threads per history")
		opsPer    = flag.Int("ops", 10, "operations per thread per history")
		seed      = flag.Int64("seed", 1, "workload seed")
	)
	flag.Parse()

	opts := core.Options{Topology: topology.New(2, (*threads+1)/2, 1), LogEntries: 1 << 12}
	failures := 0
	for round := 0; round < *rounds; round++ {
		ok := false
		switch *structure {
		case "counter":
			ok = checkCounter(opts, *threads, *opsPer, *seed+int64(round))
		case "dict":
			ok = checkDict(opts, *threads, *opsPer, *seed+int64(round))
		case "stack":
			ok = checkStack(opts, *threads, *opsPer, *seed+int64(round))
		default:
			log.Fatalf("lincheck: unknown structure %q", *structure)
		}
		if !ok {
			failures++
			fmt.Printf("round %d: NOT LINEARIZABLE\n", round)
		}
	}
	fmt.Printf("lincheck: %d rounds, %d failures (structure=%s threads=%d ops=%d)\n",
		*rounds, failures, *structure, *threads, *opsPer)
	if failures > 0 {
		os.Exit(1)
	}
}

func checkCounter(opts core.Options, threads, opsPer int, seed int64) bool {
	inst, err := core.New[bool, uint64](
		func() core.Sequential[bool, uint64] { return &counter{} }, opts)
	if err != nil {
		log.Fatal(err)
	}
	rec := linearize.NewRecorder(threads)
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		h, err := inst.Register()
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(g int, h *core.Handle[bool, uint64]) {
			defer wg.Done()
			cl := rec.Client(g)
			rng := uint64(seed)<<8 | uint64(g) | 1
			for i := 0; i < opsPer; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				inc := rng%2 == 0
				call := cl.Invoke()
				out := h.Execute(inc)
				cl.Complete(call, linearize.RegisterIn{Inc: inc}, out)
			}
		}(g, h)
	}
	wg.Wait()
	return linearize.Check(linearize.CounterModel(), rec.History())
}

func checkDict(opts core.Options, threads, opsPer int, seed int64) bool {
	inst, err := core.New[ds.DictOp, ds.DictResult](
		func() core.Sequential[ds.DictOp, ds.DictResult] { return ds.NewSkipListDict(99) }, opts)
	if err != nil {
		log.Fatal(err)
	}
	rec := linearize.NewRecorder(threads)
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		h, err := inst.Register()
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(g int, h *core.Handle[ds.DictOp, ds.DictResult]) {
			defer wg.Done()
			cl := rec.Client(g)
			rng := uint64(seed)<<8 | uint64(g) | 1
			for i := 0; i < opsPer; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				key := int64(rng % 3) // tiny key space maximizes interference
				var op ds.DictOp
				var in linearize.DictIn
				switch rng % 3 {
				case 0:
					op = ds.DictOp{Kind: ds.DictInsert, Key: key, Value: rng}
					in = linearize.DictIn{Kind: 'i', Key: key, Val: rng}
				case 1:
					op = ds.DictOp{Kind: ds.DictDelete, Key: key}
					in = linearize.DictIn{Kind: 'd', Key: key}
				case 2:
					op = ds.DictOp{Kind: ds.DictLookup, Key: key}
					in = linearize.DictIn{Kind: 'l', Key: key}
				}
				call := cl.Invoke()
				out := h.Execute(op)
				cl.Complete(call, in, linearize.DictOut{Val: out.Value, OK: out.OK})
			}
		}(g, h)
	}
	wg.Wait()
	return linearize.Check(linearize.DictModel(), rec.History())
}

func checkStack(opts core.Options, threads, opsPer int, seed int64) bool {
	inst, err := core.New[ds.StackOp, ds.StackResult](
		func() core.Sequential[ds.StackOp, ds.StackResult] { return ds.NewSeqStack(0) }, opts)
	if err != nil {
		log.Fatal(err)
	}
	rec := linearize.NewRecorder(threads)
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		h, err := inst.Register()
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(g int, h *core.Handle[ds.StackOp, ds.StackResult]) {
			defer wg.Done()
			cl := rec.Client(g)
			rng := uint64(seed)<<8 | uint64(g) | 1
			for i := 0; i < opsPer; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				if rng%2 == 0 {
					v := int64(rng % 1000)
					call := cl.Invoke()
					out := h.Execute(ds.StackOp{Kind: ds.StackPush, Value: v})
					cl.Complete(call, linearize.StackIn{Push: true, Val: v},
						linearize.StackOut{Val: out.Value, OK: out.OK})
				} else {
					call := cl.Invoke()
					out := h.Execute(ds.StackOp{Kind: ds.StackPop})
					cl.Complete(call, linearize.StackIn{},
						linearize.StackOut{Val: out.Value, OK: out.OK})
				}
			}
		}(g, h)
	}
	wg.Wait()
	return linearize.Check(linearize.StackModel(), rec.History())
}
