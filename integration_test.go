package nr_test

import (
	"fmt"
	"strings"
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
// checks that every replica ends in the same state (driveAndCompare).
//
// It also guards the rule that reads must not write: four handles on two
// nodes put two readers on each replica at once, so under -race (the root
// package is in make tier1-race) a read that writes the structure, such as a
// rank cache in SortedSet.Rank, fails the sorted-set and miniredis-store
// subtests.
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
		}, func(s nr.Sequential[ds.PQOp, ds.PQResult]) string {
			var b strings.Builder
			s.(*ds.SkipListPQ).Range(func(k int64) bool {
				fmt.Fprintf(&b, "%d ", k)
				return true
			})
			return b.String()
		})
	})

	// The pairing heap has no read-only walk: its size stands for its state.
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
		}, func(s nr.Sequential[ds.PQOp, ds.PQResult]) string { return fmt.Sprint(s.(*ds.HeapPQ).Len()) })
	})

	// This subtest and miniredis-store are mostly ZRANKs: -race sees a read
	// that writes only between two reads of one replica with no update
	// between them.
	t.Run("sorted-set", func(t *testing.T) {
		inst, err := nr.New(func() nr.Sequential[ds.ZOp, ds.ZResult] {
			return ds.NewSeqSortedSet(16)
		}, cfg...)
		if err != nil {
			t.Fatal(err)
		}
		driveAndCompare(t, inst, func(rng *workload.RNG) ds.ZOp {
			m := fmt.Sprintf("m%d", rng.Intn(40))
			switch rng.Intn(16) {
			case 0:
				return ds.ZOp{Kind: ds.ZAdd, Member: m, Score: float64(rng.Intn(100))}
			case 1:
				return ds.ZOp{Kind: ds.ZIncrBy, Member: m, Score: 1}
			case 2:
				return ds.ZOp{Kind: ds.ZRem, Member: m}
			}
			return ds.ZOp{Kind: ds.ZRank, Member: m}
		}, func(s nr.Sequential[ds.ZOp, ds.ZResult]) string {
			var b strings.Builder
			z := s.(*ds.SeqSortedSet).Inner()
			z.Range(0, z.Len()-1, func(m string, sc float64) bool {
				fmt.Fprintf(&b, "%s=%v ", m, sc)
				return true
			})
			return b.String()
		})
	})

	// Two dictionaries behind one op type: swapping the constructor is the
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
		{"fastpath-dict", func() nr.Sequential[ds.DictOp, ds.DictResult] { return ds.NewFastPathDict(5) }},
	} {
		t.Run(d.name, func(t *testing.T) {
			inst, err := nr.New(d.create, cfg...)
			if err != nil {
				t.Fatal(err)
			}
			driveAndCompare(t, inst, dictOp, func(s nr.Sequential[ds.DictOp, ds.DictResult]) string {
				var b strings.Builder
				s.(interface {
					Range(func(int64, uint64) bool)
				}).Range(func(k int64, v uint64) bool {
					fmt.Fprintf(&b, "%d=%d ", k, v)
					return true
				})
				return b.String()
			})
		})
	}

	t.Run("miniredis-store", func(t *testing.T) {
		inst, err := nr.New(func() nr.Sequential[miniredis.StoreOp, miniredis.StoreResult] {
			return miniredis.NewStore(13)
		}, cfg...)
		if err != nil {
			t.Fatal(err)
		}
		driveAndCompare(t, inst, func(rng *workload.RNG) miniredis.StoreOp {
			m := fmt.Sprintf("m%d", rng.Intn(40))
			switch rng.Intn(8) {
			case 0:
				return miniredis.StoreOp{Cmd: miniredis.CmdZIncrBy, Key: "z", Member: m, Score: 1}
			case 1, 2, 3, 4, 5, 6:
				return miniredis.StoreOp{Cmd: miniredis.CmdZRank, Key: "z", Member: m}
			}
			return miniredis.StoreOp{Cmd: miniredis.CmdZCard, Key: "z"}
		}, func(s nr.Sequential[miniredis.StoreOp, miniredis.StoreResult]) string {
			b, err := s.(*miniredis.Store).SnapshotBytes()
			if err != nil {
				t.Error(err)
			}
			return string(b)
		})
	})
}

// TestIntegration_ReplicaOracleCatchesNondeterminism runs a black box that
// breaks §4's determinism rule through the same oracle: each replica's
// replay of an update bumps whichever key a range over a Go map yields
// first, and Go randomizes that order. Every replica keeps the same number
// of keys, so only a comparison of whole states sees the divergence.
func TestIntegration_ReplicaOracleCatchesNondeterminism(t *testing.T) {
	inst, err := nr.New(func() nr.Sequential[int, int] {
		p := mapPicker{}
		for k := range 8 {
			p[k] = 0
		}
		return p
	}, nr.WithNodes(2, 2, 1), nr.WithLogEntries(512))
	if err != nil {
		t.Fatal(err)
	}
	// fmt prints a map's entries in key order.
	err = driveReplicas(inst, func(rng *workload.RNG) int { return rng.Intn(2) },
		func(s nr.Sequential[int, int]) string { return fmt.Sprint(s) })
	if err == nil {
		t.Fatal("replicas of a black box that iterates a Go map in Execute compared equal")
	}
}

// mapPicker counts bumps per key: op 1 bumps a key, op 0 reads the number
// of keys.
type mapPicker map[int]int

func (p mapPicker) Execute(op int) int {
	if op == 1 {
		for k := range p {
			p[k]++
			return k
		}
	}
	return len(p)
}

func (p mapPicker) IsReadOnly(op int) bool { return op == 0 }

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

// driveAndCompare runs driveReplicas and fails t on its error.
func driveAndCompare[O, R any](t *testing.T, inst *nr.Instance[O, R],
	gen func(*workload.RNG) O, state func(nr.Sequential[O, R]) string) {
	t.Helper()
	if err := driveReplicas(inst, gen, state); err != nil {
		t.Fatal(err)
	}
}

// driveReplicas runs 4 goroutines of 1,200 ops each, brings every replica up
// to date, and reports an error unless state, a canonical encoding of a
// replica's contents, is the same on every replica.
func driveReplicas[O, R any](inst *nr.Instance[O, R],
	gen func(*workload.RNG) O, state func(nr.Sequential[O, R]) string) error {
	hs := make([]*nr.Handle[O, R], 4)
	for g := range hs {
		h, err := inst.Register()
		if err != nil {
			return err
		}
		hs[g] = h
	}
	var wg sync.WaitGroup
	for g, h := range hs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := workload.NewRNG(uint64(g + 1))
			for i := 0; i < 1200; i++ {
				h.Execute(gen(rng))
			}
		}()
	}
	wg.Wait()
	inst.Quiesce()
	states := make([]string, inst.Replicas())
	for n := range states {
		inst.Inspect(n, func(s nr.Sequential[O, R]) { states[n] = state(s) })
	}
	for n := 1; n < len(states); n++ {
		if states[n] != states[0] {
			return fmt.Errorf("replica %d's state differs from replica 0's:\n%q\n%q", n, states[n], states[0])
		}
	}
	return nil
}
