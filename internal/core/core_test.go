package core

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"github.com/asplos17/nr/internal/ds"
	"github.com/asplos17/nr/internal/topology"
	"github.com/asplos17/nr/internal/waittest"
)

// counter is a minimal sequential structure for tests: op +1 increments and
// returns the new value; op 0 reads.
type counter struct {
	v uint64
}

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

func newCounterInstance(t *testing.T, opts Options) *Instance[ctrOp, uint64] {
	t.Helper()
	waittest.Deadline(t)
	inst, err := New[ctrOp, uint64](func() Sequential[ctrOp, uint64] { return &counter{} }, opts)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func smallTopo() Options {
	return Options{Topology: topology.New(2, 2, 1), LogEntries: 256}
}

func TestNewValidation(t *testing.T) {
	if _, err := New[ctrOp, uint64](nil, Options{}); err == nil {
		t.Error("nil create accepted")
	}
	if _, err := New[ctrOp, uint64](func() Sequential[ctrOp, uint64] { return &counter{} },
		Options{LogEntries: 1}); err == nil {
		t.Error("log size 1 accepted")
	}
}

// TestNewRefusesTopologiesTheTokenCannotName: the op token has 10 bits for
// the node and 16 for the slot, and delivery trusts a log entry's token
// bits, so a topology whose node ids or slots overflow them is refused
// (1025 nodes would give node 1024 node 0's tokens). 1024 nodes still fit,
// with distinct tokens on the first and the last node.
func TestNewRefusesTopologiesTheTokenCannotName(t *testing.T) {
	create := func() Sequential[ctrOp, uint64] { return &counter{} }
	for _, c := range []struct {
		top   topology.Topology
		field string
	}{{topology.New(maxNodes+1, 1, 1), "node field"}, {topology.New(1, 1<<16+1, 1), "slot field"}} {
		if _, err := New(create, Options{Topology: c.top, LogEntries: 64}); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("New on %d nodes × %d threads: err = %v, want one naming the token's %s", c.top.Nodes(), c.top.ThreadsPerNode(), err, c.field)
		}
	}
	inst := newCounterInstance(t, Options{Topology: topology.New(maxNodes, 1, 1), LogEntries: 64})
	first, last := registerOn(t, inst, 0), registerOn(t, inst, maxNodes-1) // one increment each
	if first.LastToken() == last.LastToken() {
		t.Errorf("nodes 0 and %d share op token %#x", maxNodes-1, first.LastToken())
	}
	if got := last.Execute(ctrRead); got != 2 {
		t.Errorf("read on node %d = %d, want 2", maxNodes-1, got)
	}
}

func TestDefaultsAreThePaperTestbed(t *testing.T) {
	inst := newCounterInstance(t, Options{})
	if inst.Replicas() != 4 {
		t.Errorf("Replicas = %d, want 4 (Intel testbed)", inst.Replicas())
	}
}

func TestSingleThreadSemantics(t *testing.T) {
	inst := newCounterInstance(t, smallTopo())
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Execute(ctrRead); got != 0 {
		t.Errorf("initial read = %d, want 0", got)
	}
	for i := uint64(1); i <= 100; i++ {
		if got := h.Execute(ctrInc); got != i {
			t.Fatalf("inc #%d = %d", i, got)
		}
	}
	if got := h.Execute(ctrRead); got != 100 {
		t.Errorf("final read = %d, want 100", got)
	}
	st := inst.Stats()
	if st.UpdateOps != 100 || st.ReadOps != 2 {
		t.Errorf("stats = %+v, want 100 updates / 2 reads", st)
	}
}

func TestRegistrationLimits(t *testing.T) {
	inst := newCounterInstance(t, smallTopo()) // 4 hw threads
	nodes := map[int]int{}
	for i := 0; i < 4; i++ {
		h, err := inst.Register()
		if err != nil {
			t.Fatalf("Register #%d: %v", i, err)
		}
		nodes[h.Node()]++
		if h.Thread() != i {
			t.Errorf("thread id = %d, want %d", h.Thread(), i)
		}
	}
	if nodes[0] != 2 || nodes[1] != 2 {
		t.Errorf("fill placement put threads at %v, want 2 per node", nodes)
	}
	if _, err := inst.Register(); err == nil {
		t.Error("5th Register on 4-thread machine succeeded")
	}
}

func TestRegisterOnNode(t *testing.T) {
	inst := newCounterInstance(t, smallTopo())
	if _, err := inst.RegisterOnNode(-1); err == nil {
		t.Error("node -1 accepted")
	}
	if _, err := inst.RegisterOnNode(2); err == nil {
		t.Error("node 2 accepted on 2-node machine")
	}
	for i := 0; i < 2; i++ {
		if _, err := inst.RegisterOnNode(1); err != nil {
			t.Fatalf("RegisterOnNode(1) #%d: %v", i, err)
		}
	}
	if _, err := inst.RegisterOnNode(1); err == nil {
		t.Error("3rd registration on 2-thread node succeeded")
	}
	h, err := inst.RegisterOnNode(0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Thread() != -1 {
		t.Errorf("explicit registration thread id = %d, want -1", h.Thread())
	}
}

// incrementsAreDense checks the core linearizability signal for a counter:
// concurrent increments return every value 1..total exactly once.
func incrementsAreDense(t *testing.T, opts Options, threads, perThread int) {
	t.Helper()
	inst := newCounterInstance(t, opts)
	results := make([][]uint64, threads)
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		h, err := inst.Register()
		if err != nil {
			t.Fatal(err)
		}
		results[g] = make([]uint64, 0, perThread)
		wg.Add(1)
		go func(g int, h *Handle[ctrOp, uint64]) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				results[g] = append(results[g], h.Execute(ctrInc))
			}
		}(g, h)
	}
	wg.Wait()
	total := threads * perThread
	seen := make([]bool, total+1)
	for g, rs := range results {
		prev := uint64(0)
		for _, v := range rs {
			if v == 0 || v > uint64(total) {
				t.Fatalf("thread %d got out-of-range value %d", g, v)
			}
			if seen[v] {
				t.Fatalf("value %d returned twice", v)
			}
			if v <= prev {
				t.Fatalf("thread %d saw non-monotonic increments %d then %d", g, prev, v)
			}
			seen[v] = true
			prev = v
		}
	}
	for v := 1; v <= total; v++ {
		if !seen[v] {
			t.Fatalf("value %d never returned (lost update)", v)
		}
	}
	// All replicas converge to the same final state.
	final := uint64(total)
	for n := 0; n < inst.Replicas(); n++ {
		inst.InspectReplica(n, func(s Sequential[ctrOp, uint64]) {
			if got := s.(*counter).v; got != final {
				t.Errorf("replica %d = %d, want %d", n, got, final)
			}
		})
	}
}

func TestConcurrentIncrementsDense(t *testing.T) {
	incrementsAreDense(t, smallTopo(), 4, 2000)
}

func TestConcurrentIncrementsBigTopology(t *testing.T) {
	incrementsAreDense(t, Options{Topology: topology.New(4, 4, 2), LogEntries: 512}, 16, 500)
}

func TestConcurrentIncrementsTinyLogWraps(t *testing.T) {
	// A log much smaller than the op count forces many wrap-arounds and
	// exercises the §5.6 recycling protocol under contention.
	incrementsAreDense(t, Options{Topology: topology.New(2, 2, 1), LogEntries: 16}, 4, 3000)
}

// TestReadYourWrites: after a thread's update returns, its subsequent read
// must observe a state at least as new.
func TestReadYourWrites(t *testing.T) {
	inst := newCounterInstance(t, smallTopo())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		h, err := inst.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(h *Handle[ctrOp, uint64]) {
			defer wg.Done()
			for i := 0; i < 1500; i++ {
				wrote := h.Execute(ctrInc)
				read := h.Execute(ctrRead)
				if read < wrote {
					t.Errorf("stale read: wrote %d then read %d", wrote, read)
					return
				}
			}
		}(h)
	}
	wg.Wait()
}

// TestMonotonicReadsPerThread: reads by one thread never go backwards.
func TestMonotonicReadsPerThread(t *testing.T) {
	inst := newCounterInstance(t, smallTopo())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		h, err := inst.Register()
		if err != nil {
			t.Fatal(err)
		}
		writer := g%2 == 0
		wg.Add(1)
		go func(h *Handle[ctrOp, uint64], writer bool) {
			defer wg.Done()
			var prev uint64
			for i := 0; i < 3000; i++ {
				var v uint64
				if writer && i%4 == 0 {
					v = h.Execute(ctrInc)
				} else {
					v = h.Execute(ctrRead)
				}
				if v < prev {
					t.Errorf("reads went backwards: %d then %d", prev, v)
					return
				}
				prev = v
			}
		}(h, writer)
	}
	wg.Wait()
}

func TestDictThroughNRMatchesOracle(t *testing.T) {
	// Run a dictionary through NR concurrently, mirror every op through a
	// mutex-protected oracle keyed per thread range, and compare final state.
	opts := smallTopo()
	waittest.Deadline(t)
	inst, err := New[ds.DictOp, ds.DictResult](
		func() Sequential[ds.DictOp, ds.DictResult] { return ds.NewSkipListDict(42) }, opts)
	if err != nil {
		t.Fatal(err)
	}
	const threads, per = 4, 1500
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		h, err := inst.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, h *Handle[ds.DictOp, ds.DictResult]) {
			defer wg.Done()
			base := int64(g * per)
			// Each thread owns a disjoint key range so per-op results are
			// deterministic even under concurrency.
			for i := 0; i < per; i++ {
				k := base + int64(i)
				if r := h.Execute(ds.DictOp{Kind: ds.DictInsert, Key: k, Value: uint64(k)}); !r.OK {
					t.Errorf("insert %d reported existing", k)
					return
				}
				if r := h.Execute(ds.DictOp{Kind: ds.DictLookup, Key: k}); !r.OK || r.Value != uint64(k) {
					t.Errorf("lookup %d = %+v", k, r)
					return
				}
				if i%3 == 0 {
					if r := h.Execute(ds.DictOp{Kind: ds.DictDelete, Key: k}); !r.OK {
						t.Errorf("delete %d failed", k)
						return
					}
				}
			}
		}(g, h)
	}
	wg.Wait()
	// Final state: every key except the i%3==0 ones, on every replica.
	for n := 0; n < inst.Replicas(); n++ {
		inst.InspectReplica(n, func(s Sequential[ds.DictOp, ds.DictResult]) {
			d := s.(*ds.SkipListDict)
			want := threads * per * 2 / 3
			if d.Len() != want {
				t.Errorf("replica %d has %d keys, want %d", n, d.Len(), want)
			}
		})
	}
}

func TestStatsAndCombining(t *testing.T) {
	inst := newCounterInstance(t, smallTopo())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		h, _ := inst.Register()
		wg.Add(1)
		go func(h *Handle[ctrOp, uint64]) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Execute(ctrInc)
			}
		}(h)
	}
	wg.Wait()
	st := inst.Stats()
	if st.UpdateOps != 4000 {
		t.Errorf("UpdateOps = %d, want 4000", st.UpdateOps)
	}
	if st.CombinedOps != 4000 {
		t.Errorf("CombinedOps = %d, want 4000", st.CombinedOps)
	}
	if st.Combines == 0 || st.Combines > 4000 {
		t.Errorf("Combines = %d, implausible", st.Combines)
	}
	// If batching happened at all, combines < combined ops. With two threads
	// per node this usually holds, but a fully serialized schedule is legal,
	// so only sanity-check the ratio bound.
	if st.Combines > st.CombinedOps {
		t.Errorf("more combine rounds (%d) than ops (%d)", st.Combines, st.CombinedOps)
	}
}

func TestQuiesceAndMemory(t *testing.T) {
	inst := newCounterInstance(t, smallTopo())
	h, _ := inst.Register()
	for i := 0; i < 50; i++ {
		h.Execute(ctrInc)
	}
	inst.Quiesce()
	for n := 0; n < inst.Replicas(); n++ {
		inst.InspectReplica(n, func(s Sequential[ctrOp, uint64]) {
			if got := s.(*counter).v; got != 50 {
				t.Errorf("replica %d = %d after Quiesce, want 50", n, got)
			}
		})
	}
	if inst.MemoryBytes() == 0 {
		t.Error("MemoryBytes = 0")
	}
	if inst.LogTail() != 50 {
		t.Errorf("LogTail = %d, want 50", inst.LogTail())
	}
}

// TestHeavyMixedStress drives a high-contention mixed workload across the
// whole machine with a small log, under the race detector in CI.
func TestHeavyMixedStress(t *testing.T) {
	opts := Options{Topology: topology.New(4, 2, 1), LogEntries: 64}
	waittest.Deadline(t)
	inst, err := New[ds.PQOp, ds.PQResult](
		func() Sequential[ds.PQOp, ds.PQResult] { return ds.NewSkipListPQ(7) }, opts)
	if err != nil {
		t.Fatal(err)
	}
	const threads, per = 8, 1200
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		h, err := inst.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, h *Handle[ds.PQOp, ds.PQResult]) {
			defer wg.Done()
			rng := uint64(g)*2654435761 + 1
			for i := 0; i < per; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				switch rng % 3 {
				case 0:
					h.Execute(ds.PQOp{Kind: ds.PQInsert, Key: int64(rng % 10000)})
				case 1:
					h.Execute(ds.PQOp{Kind: ds.PQDeleteMin})
				case 2:
					h.Execute(ds.PQOp{Kind: ds.PQFindMin})
				}
			}
		}(g, h)
	}
	wg.Wait()
	// Replicas must agree exactly after quiescing.
	var sizes []int
	for n := 0; n < inst.Replicas(); n++ {
		inst.InspectReplica(n, func(s Sequential[ds.PQOp, ds.PQResult]) {
			sizes = append(sizes, s.(*ds.SkipListPQ).Len())
		})
	}
	for _, sz := range sizes[1:] {
		if sz != sizes[0] {
			t.Fatalf("replica sizes diverged: %v", sizes)
		}
	}
}

// TestHelpingStatIsWired: with a log far smaller than the op count and one
// node inactive, appenders must help (HelpedEntries > 0) rather than
// deadlock. The helper takes only the idle replica's writer lock, by
// TryLock, so it gets through also while that node's combiner or refresher
// lock is held — as by a combiner or an elected reader about to wait for
// the writer lock (§5.5's order puts both below it).
func TestHelpingStatIsWired(t *testing.T) {
	for _, held := range []string{"none", "combiner", "refresher"} {
		t.Run(held, func(t *testing.T) {
			opts := Options{Topology: topology.New(2, 2, 1), LogEntries: 16}
			inst := newCounterInstance(t, opts)
			h, err := inst.RegisterOnNode(0) // node 1 stays inactive
			if err != nil {
				t.Fatal(err)
			}
			switch lg := &inst.replicas[1].logs[0]; held {
			case "combiner":
				lg.combinerLock.Lock()
				defer lg.combinerLock.Unlock()
			case "refresher":
				lg.refresher.Lock()
				defer lg.refresher.Unlock()
			}
			for i := 0; i < 2000; i++ {
				h.Execute(ctrInc)
			}
			if st := inst.Stats(); st.HelpedEntries == 0 {
				t.Errorf("expected helping with an inactive node and a 16-entry log; stats = %+v", st)
			}
			// The inactive replica must have been helped to (near) the tail.
			inst.InspectReplica(1, func(s Sequential[ctrOp, uint64]) {
				if got := s.(*counter).v; got != 2000 {
					t.Errorf("inactive replica = %d, want 2000", got)
				}
			})
		})
	}
}

// TestMixedRegistrationStyles: Register and RegisterOnNode can be mixed;
// the fill placement must respect already-assigned explicit slots... or
// fail cleanly when the node is full.
func TestMixedRegistrationStyles(t *testing.T) {
	inst := newCounterInstance(t, smallTopo()) // 2 nodes × 2 threads
	if _, err := inst.RegisterOnNode(0); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.RegisterOnNode(0); err != nil {
		t.Fatal(err)
	}
	// Node 0 is now full; explicit registration there fails,
	// but node 1 still has room.
	if _, err := inst.RegisterOnNode(0); err == nil {
		t.Error("over-registration on node 0 succeeded")
	}
	if _, err := inst.RegisterOnNode(1); err != nil {
		t.Error("node 1 registration failed")
	}
}

// TestRegisterSkipsExplicitlyFilledNodes: implicit Register must not
// overflow a node that RegisterOnNode already filled.
func TestRegisterSkipsExplicitlyFilledNodes(t *testing.T) {
	inst := newCounterInstance(t, smallTopo()) // 2 nodes × 2 threads
	for i := 0; i < 2; i++ {
		if _, err := inst.RegisterOnNode(0); err != nil {
			t.Fatal(err)
		}
	}
	// Both implicit registrations must land on node 1.
	for i := 0; i < 2; i++ {
		h, err := inst.Register()
		if err != nil {
			t.Fatalf("Register #%d: %v", i, err)
		}
		if h.Node() != 1 {
			t.Errorf("Register #%d landed on node %d, want 1", i, h.Node())
		}
		h.Execute(ctrInc) // must not panic on slot access
	}
	if _, err := inst.Register(); err == nil {
		t.Error("registration beyond capacity succeeded")
	}
}

// TestSequentialEquivalenceProperty: through a single handle, NR must be
// observationally identical to the bare sequential structure, for any
// operation stream (quick.Check).
func TestSequentialEquivalenceProperty(t *testing.T) {
	waittest.Deadline(t)
	configs := []Options{
		smallTopo(),
		{Topology: topology.New(2, 2, 1), LogEntries: 16}, // wrapping log
	}
	f := func(stream []byte) bool {
		for _, opts := range configs {
			inst, err := New[ds.DictOp, ds.DictResult](
				func() Sequential[ds.DictOp, ds.DictResult] { return ds.NewSkipListDict(31) }, opts)
			if err != nil {
				return false
			}
			h, err := inst.Register()
			if err != nil {
				return false
			}
			oracle := ds.NewSkipListDict(31)
			for j := 0; j+2 < len(stream); j += 3 {
				op := ds.DictOp{
					Kind:  ds.DictOpKind(stream[j] % 3),
					Key:   int64(stream[j+1] % 32),
					Value: uint64(stream[j+2]),
				}
				if h.Execute(op) != oracle.Execute(op) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
