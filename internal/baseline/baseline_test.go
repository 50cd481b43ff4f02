package baseline

import (
	"sync"
	"testing"

	"github.com/asplos17/nr/internal/core"
	"github.com/asplos17/nr/internal/ds"
	"github.com/asplos17/nr/internal/topology"
)

// counter mirrors the test structure used in core's tests.
type counter struct{ v uint64 }

type ctrOp uint8

const (
	ctrRead ctrOp = iota
	ctrInc
)

func (c *counter) Execute(op ctrOp) uint64 {
	if op == ctrInc {
		c.v++
	}
	return c.v
}
func (c *counter) IsReadOnly(op ctrOp) bool { return op == ctrRead }

// methods returns every baseline plus NR over a fresh counter.
func methods(t *testing.T) map[string]Shared[ctrOp, uint64] {
	t.Helper()
	inst, err := core.New[ctrOp, uint64](
		func() core.Sequential[ctrOp, uint64] { return &counter{} },
		core.Options{Topology: topology.New(2, 4, 1), LogEntries: 256})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Shared[ctrOp, uint64]{
		"SL":  NewSpinLocked[ctrOp, uint64](&counter{}),
		"RWL": NewRWLocked[ctrOp, uint64](&counter{}, 8),
		"FC":  NewFlatCombining[ctrOp, uint64](&counter{}, 8),
		"FC+": NewFlatCombiningPlus[ctrOp, uint64](&counter{}, 8),
		"NR":  nrShared{inst},
	}
}

// nrShared presents a core.Instance through Shared, so the tests below hold
// NR to the same signal as the baselines.
type nrShared struct{ inst *core.Instance[ctrOp, uint64] }

func (a nrShared) Register() (Executor[ctrOp, uint64], error) { return a.inst.Register() }

// denseIncrements is the same linearizability signal used in core's tests:
// concurrent increments must return 1..total exactly once, monotonically
// per thread.
func denseIncrements(t *testing.T, s Shared[ctrOp, uint64], threads, per int) {
	t.Helper()
	results := make([][]uint64, threads)
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		ex, err := s.Register()
		if err != nil {
			t.Fatal(err)
		}
		results[g] = make([]uint64, 0, per)
		wg.Add(1)
		go func(g int, ex Executor[ctrOp, uint64]) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				results[g] = append(results[g], ex.Execute(ctrInc))
			}
		}(g, ex)
	}
	wg.Wait()
	total := threads * per
	seen := make([]bool, total+1)
	for g, rs := range results {
		prev := uint64(0)
		for _, v := range rs {
			if v == 0 || v > uint64(total) || seen[v] || v <= prev {
				t.Fatalf("thread %d: bad increment sequence (v=%d prev=%d dup=%v)",
					g, v, prev, v > 0 && v <= uint64(total) && seen[v])
			}
			seen[v] = true
			prev = v
		}
	}
	for v := 1; v <= total; v++ {
		if !seen[v] {
			t.Fatalf("value %d never returned", v)
		}
	}
}

func TestAllMethodsLinearizableIncrements(t *testing.T) {
	for name, s := range methods(t) {
		t.Run(name, func(t *testing.T) {
			denseIncrements(t, s, 6, 1200)
		})
	}
}

func TestAllMethodsMixedReadsNeverStale(t *testing.T) {
	for name, s := range methods(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < 6; g++ {
				ex, err := s.Register()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(ex Executor[ctrOp, uint64]) {
					defer wg.Done()
					var prev uint64
					for i := 0; i < 800; i++ {
						var v uint64
						if i%4 == 0 {
							v = ex.Execute(ctrInc)
						} else {
							v = ex.Execute(ctrRead)
						}
						if v < prev {
							t.Errorf("value went backwards: %d then %d", prev, v)
							return
						}
						prev = v
					}
				}(ex)
			}
			wg.Wait()
		})
	}
}

func TestRegistrationLimits(t *testing.T) {
	rwl := NewRWLocked[ctrOp, uint64](&counter{}, 2)
	for i := 0; i < 2; i++ {
		if _, err := rwl.Register(); err != nil {
			t.Fatalf("RWL Register #%d: %v", i, err)
		}
	}
	if _, err := rwl.Register(); err == nil {
		t.Error("RWL over-registration succeeded")
	}
	fc := NewFlatCombining[ctrOp, uint64](&counter{}, 1)
	if _, err := fc.Register(); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Register(); err == nil {
		t.Error("FC over-registration succeeded")
	}
	fcp := NewFlatCombiningPlus[ctrOp, uint64](&counter{}, 1)
	if _, err := fcp.Register(); err != nil {
		t.Fatal(err)
	}
	if _, err := fcp.Register(); err == nil {
		t.Error("FC+ over-registration succeeded")
	}
}

func TestFCStatsCountCombinedOps(t *testing.T) {
	fc := NewFlatCombining[ctrOp, uint64](&counter{}, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		ex, _ := fc.Register()
		wg.Add(1)
		go func(ex Executor[ctrOp, uint64]) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ex.Execute(ctrInc)
			}
		}(ex)
	}
	wg.Wait()
	combines, ops := fc.Stats()
	if ops != 2000 {
		t.Errorf("combined ops = %d, want 2000", ops)
	}
	if combines == 0 || combines > ops {
		t.Errorf("combines = %d, implausible vs ops = %d", combines, ops)
	}
}

func TestBaselinesOverDictionary(t *testing.T) {
	// Each method over a skip-list dictionary with disjoint per-thread key
	// ranges: all per-op results must be deterministic and correct.
	build := func(name string) Shared[ds.DictOp, ds.DictResult] {
		seq := func() core.Sequential[ds.DictOp, ds.DictResult] { return ds.NewSkipListDict(3) }
		switch name {
		case "SL":
			return NewSpinLocked[ds.DictOp, ds.DictResult](seq())
		case "RWL":
			return NewRWLocked[ds.DictOp, ds.DictResult](seq(), 8)
		case "FC":
			return NewFlatCombining[ds.DictOp, ds.DictResult](seq(), 8)
		case "FC+":
			return NewFlatCombiningPlus[ds.DictOp, ds.DictResult](seq(), 8)
		}
		return nil
	}
	for _, name := range []string{"SL", "RWL", "FC", "FC+"} {
		t.Run(name, func(t *testing.T) {
			s := build(name)
			const threads, per = 4, 600
			var wg sync.WaitGroup
			for g := 0; g < threads; g++ {
				ex, err := s.Register()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(g int, ex Executor[ds.DictOp, ds.DictResult]) {
					defer wg.Done()
					base := int64(g * per)
					for i := 0; i < per; i++ {
						k := base + int64(i)
						if r := ex.Execute(ds.DictOp{Kind: ds.DictInsert, Key: k, Value: uint64(k)}); !r.OK {
							t.Errorf("%s: insert %d reported existing", name, k)
							return
						}
						if r := ex.Execute(ds.DictOp{Kind: ds.DictLookup, Key: k}); !r.OK || r.Value != uint64(k) {
							t.Errorf("%s: lookup %d = %+v", name, k, r)
							return
						}
					}
				}(g, ex)
			}
			wg.Wait()
		})
	}
}
