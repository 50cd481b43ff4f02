package sim

import (
	"testing"

	"github.com/asplos17/nr/internal/topology"
)

func testSim() *Sim { return New(topology.New(2, 2, 1), IntelCosts()) }

func TestSingleThreadReadWrite(t *testing.T) {
	s := testSim()
	a := s.Alloc(4)
	var v1, v2 uint64
	s.Run([]func(*Thread){func(th *Thread) {
		s.Write(th, a, 42)
		v1 = s.Read(th, a)
		s.Write(th, a+1, 7)
		v2 = s.Read(th, a+1)
	}})
	if v1 != 42 || v2 != 7 {
		t.Errorf("read back %d,%d want 42,7", v1, v2)
	}
}

func TestCostTiers(t *testing.T) {
	s := testSim()
	a := s.Alloc(1)
	cost := IntelCosts()
	var after1, after2, after3 uint64
	s.Run([]func(*Thread){func(th *Thread) {
		s.Write(th, a, 1) // clean line, first write: SameNode
		after1 = th.Clock()
		s.Write(th, a, 2) // owned by this core: SameCore
		after2 = th.Clock()
		s.Read(th, a) // own dirty line: SameCore
		after3 = th.Clock()
	}})
	if after1 != cost.SameNode {
		t.Errorf("first write cost %d, want SameNode %d", after1, cost.SameNode)
	}
	if after2-after1 != cost.SameCore {
		t.Errorf("owned write cost %d, want SameCore %d", after2-after1, cost.SameCore)
	}
	if after3-after2 != cost.SameCore {
		t.Errorf("owned read cost %d, want SameCore %d", after3-after2, cost.SameCore)
	}
}

func TestRemoteCostAndSharing(t *testing.T) {
	// Thread 0 on node 0 writes; thread on node 1 reads (remote), then
	// re-reads (node-shared).
	topo := topology.New(2, 1, 1)
	s := New(topo, IntelCosts())
	a := s.Alloc(1)
	cost := IntelCosts()
	var firstRead, secondRead uint64
	bodies := []func(*Thread){
		func(th *Thread) { // node 0
			s.Write(th, a, 5)
		},
		func(th *Thread) { // node 1
			s.Compute(th, 1000) // run after the write
			c0 := th.Clock()
			s.Read(th, a)
			firstRead = th.Clock() - c0
			c1 := th.Clock()
			s.Read(th, a)
			secondRead = th.Clock() - c1
		},
	}
	s.Run(bodies)
	if firstRead != cost.Remote {
		t.Errorf("first remote read cost %d, want %d", firstRead, cost.Remote)
	}
	if secondRead != cost.SameNode {
		t.Errorf("second read cost %d, want SameNode %d", secondRead, cost.SameNode)
	}
}

func TestCASSemantics(t *testing.T) {
	s := testSim()
	a := s.Alloc(1)
	var ok1, ok2 bool
	s.Run([]func(*Thread){func(th *Thread) {
		ok1 = s.CAS(th, a, 0, 10)
		ok2 = s.CAS(th, a, 0, 20) // must fail: value is 10
	}})
	if !ok1 || ok2 {
		t.Errorf("CAS results %v,%v want true,false", ok1, ok2)
	}
}

func TestAddAndWaitUntil(t *testing.T) {
	s := testSim()
	a := s.Alloc(1)
	var observed uint64
	s.Run([]func(*Thread){
		func(th *Thread) {
			s.Compute(th, 500)
			s.Add(th, a, 3)
		},
		func(th *Thread) {
			observed = s.WaitUntil(th, a, func(v uint64) bool { return v >= 3 })
		},
	})
	if observed != 3 {
		t.Errorf("WaitUntil observed %d, want 3", observed)
	}
}

func TestWaiterResumesNoEarlierThanWriter(t *testing.T) {
	s := testSim()
	a := s.Alloc(1)
	var writerClock, waiterClock uint64
	s.Run([]func(*Thread){
		func(th *Thread) {
			s.Compute(th, 10000)
			s.Write(th, a, 1)
			writerClock = th.Clock()
		},
		func(th *Thread) {
			s.WaitUntil(th, a, func(v uint64) bool { return v == 1 })
			waiterClock = th.Clock()
		},
	})
	if waiterClock < writerClock {
		t.Errorf("waiter resumed at %d before writer's store at %d", waiterClock, writerClock)
	}
}

func TestDeadlockDetection(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("deadlocked model did not panic")
		}
	}()
	s := testSim()
	a := s.Alloc(1)
	s.Run([]func(*Thread){func(th *Thread) {
		s.WaitUntil(th, a, func(v uint64) bool { return v == 99 }) // never satisfied
	}})
}

func TestModelPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Error("model panic not rethrown")
		}
	}()
	s := testSim()
	s.Run([]func(*Thread){func(th *Thread) { panic("boom") }})
}

func TestTooManyThreadsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("overflow not detected")
		}
	}()
	s := New(topology.New(1, 1, 1), IntelCosts())
	s.Run(make([]func(*Thread), 2))
}

func TestLineTransferSerialization(t *testing.T) {
	// Two threads on different nodes CAS the same line: total time must be
	// at least the sum of the transfers, not the max.
	topo := topology.New(2, 1, 1)
	s := New(topo, IntelCosts())
	a := s.Alloc(1)
	const per = 100
	bodies := []func(*Thread){
		func(th *Thread) {
			for i := 0; i < per; i++ {
				v := s.Read(th, a)
				s.CAS(th, a, v, v+1)
			}
		},
		func(th *Thread) {
			for i := 0; i < per; i++ {
				v := s.Read(th, a)
				s.CAS(th, a, v, v+1)
			}
		},
	}
	total := s.Run(bodies)
	cost := IntelCosts()
	// 200 CAS transfers at Remote+CASExtra minimum — they cannot overlap.
	if min := uint64(2*per) * (cost.Remote); total < min {
		t.Errorf("total %dns under serialization bound %dns", total, min)
	}
}

func TestSpinLockMutualExclusionInSim(t *testing.T) {
	s := New(topology.New(2, 2, 1), IntelCosts())
	lock := NewSpinLock(s)
	counterLine := s.Alloc(1)
	const per = 200
	bodies := make([]func(*Thread), 4)
	for i := range bodies {
		bodies[i] = func(th *Thread) {
			for n := 0; n < per; n++ {
				lock.Lock(s, th)
				v := s.Read(th, counterLine)
				s.Write(th, counterLine, v+1)
				lock.Unlock(s, th)
			}
		}
	}
	s.Run(bodies)
	if got := s.lines[counterLine].val; got != 4*per {
		t.Errorf("counter = %d, want %d (lost increments)", got, 4*per)
	}
}

func TestDistRWLockInSim(t *testing.T) {
	s := New(topology.New(2, 2, 1), IntelCosts())
	lock := NewDistRWLock(s, 4)
	data := s.Alloc(1)
	shadow := s.Alloc(1)
	bad := false
	bodies := make([]func(*Thread), 4)
	for i := range bodies {
		slot := i
		writer := i%2 == 0
		bodies[i] = func(th *Thread) {
			for n := 0; n < 150; n++ {
				if writer {
					lock.Lock(s, th)
					v := s.Read(th, data)
					s.Write(th, data, v+1)
					s.Write(th, shadow, v+1)
					lock.Unlock(s, th)
				} else {
					lock.RLock(s, th, slot)
					if s.Read(th, data) != s.Read(th, shadow) {
						bad = true
					}
					lock.RUnlock(s, th, slot)
				}
			}
		}
	}
	s.Run(bodies)
	if bad {
		t.Error("reader observed torn write under readers-writer lock")
	}
	if got := s.lines[data].val; got != 300 {
		t.Errorf("writer count = %d, want 300", got)
	}
}

func TestCentralRWLockInSim(t *testing.T) {
	s := New(topology.New(2, 2, 1), IntelCosts())
	lock := NewCentralRWLock(s)
	data := s.Alloc(1)
	bodies := make([]func(*Thread), 4)
	for i := range bodies {
		writer := i < 2
		bodies[i] = func(th *Thread) {
			for n := 0; n < 100; n++ {
				if writer {
					lock.Lock(s, th)
					v := s.Read(th, data)
					s.Write(th, data, v+1)
					lock.Unlock(s, th)
				} else {
					lock.RLock(s, th, 0)
					s.Read(th, data)
					lock.RUnlock(s, th, 0)
				}
			}
		}
	}
	s.Run(bodies)
	if got := s.lines[data].val; got != 200 {
		t.Errorf("writer count = %d, want 200", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() uint64 {
		s := New(topology.Intel4x14x2(), IntelCosts())
		p := Profile{NLines: 1000, UpdateCLines: 4, ReadCLines: 2, UpdateNs: 50, ReadNs: 20,
			UpdateHotPermille: 300, ReadHotPermille: 300, HotLines: 2}
		res := RunNR(s, p, Run{Threads: 24, OpsPerThread: 300, UpdatePermille: 300}, NROpts{})
		return res.Nanos
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("simulation not deterministic: %d vs %d", a, b)
	}
}

func TestCapacityMissSlowsLargeStructures(t *testing.T) {
	t.Parallel()
	small := New(topology.Intel4x14x2(), IntelCosts())
	big := New(topology.Intel4x14x2(), IntelCosts())
	r := Run{Threads: 8, OpsPerThread: 500, UpdatePermille: 1000}
	inL3 := RunSL(small, Synthetic(20000), r)
	outL3 := RunSL(big, Synthetic(4000000), r)
	if outL3.OpsPerUs() >= inL3.OpsPerUs() {
		t.Errorf("beyond-L3 run (%.2f) not slower than in-L3 run (%.2f)",
			outL3.OpsPerUs(), inL3.OpsPerUs())
	}
}

// Synthetic mirrors bench.Synthetic for tests without an import cycle.
func Synthetic(n int) Profile {
	return Profile{NLines: n, UpdateCLines: 8, ReadCLines: 8, UpdateNs: 20, ReadNs: 20,
		UpdateHotPermille: 1000, ReadHotPermille: 1000, HotLines: 1, HotPathLines: 1}
}
