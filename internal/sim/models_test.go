package sim

import (
	"sync"
	"testing"

	"github.com/asplos17/nr/internal/topology"
)

// The model tests assert the qualitative results of §8 — who wins, where
// the crossovers fall — using the calibrated profiles from internal/bench
// (duplicated here to avoid an import cycle).

var (
	pqProfile = Profile{NLines: 20000, UpdateCLines: 8, ReadCLines: 2, UpdateNs: 60, ReadNs: 20,
		UpdateHotPermille: 500, ReadHotPermille: 1000, HotLines: 1, HotPathLines: 4}
	dictZipfProfile = Profile{NLines: 20000, UpdateCLines: 14, ReadCLines: 14, UpdateNs: 120, ReadNs: 90,
		UpdateHotPermille: 550, ReadHotPermille: 550, HotLines: 2, HotPathLines: 16, LFWriteLines: 10}
	dictUniformProfile = Profile{NLines: 20000, UpdateCLines: 14, ReadCLines: 14, UpdateNs: 120, ReadNs: 90}
	stackProfile       = Profile{NLines: 4096, UpdateCLines: 2, ReadCLines: 1, UpdateNs: 15, ReadNs: 10,
		UpdateHotPermille: 1000, ReadHotPermille: 1000, HotLines: 1, HotPathLines: 2}
)

func intel() *Sim { return New(topology.Intel4x14x2(), IntelCosts()) }

// model is one simulated method with every argument but the workload bound;
// name tells two bindings of one Run* function apart.
type model struct {
	name string
	run  func(*Sim, Profile, Run) Result
}

var (
	simNR  = ablatedNR("NR", NROpts{})
	simSL  = model{"SL", RunSL}
	simRWL = model{"RWL", RunRWL}
	simFC  = model{"FC", func(s *Sim, p Profile, r Run) Result { return RunFC(s, p, r, false) }}
	simFCP = model{"FC+", func(s *Sim, p Profile, r Run) Result { return RunFC(s, p, r, true) }}
	simLF  = model{"LF", RunLF}
	simNA  = model{"NA", func(s *Sim, p Profile, r Run) Result { return RunNA(s, p, r, 950) }}
)

func ablatedNR(name string, o NROpts) model {
	return model{name, func(s *Sim, p Profile, r Run) Result { return RunNR(s, p, r, o) }}
}

// sims holds one result per (model, profile, run). A simulation is a pure
// function of those (TestDeterminism), and the shape tests below read the
// same few 112-thread points many times over, so each point is simulated
// once, by whichever test asks first, while the tests run in parallel.
var sims sync.Map // simPoint → func() Result

type simPoint struct {
	model string
	p     Profile
	r     Run
}

// at returns m's result on a fresh Intel machine.
func (m model) at(p Profile, r Run) Result {
	f, _ := sims.LoadOrStore(simPoint{m.name, p, r},
		sync.OnceValue(func() Result { return m.run(intel(), p, r) }))
	return f.(func() Result)()
}

// runAt is a shape test's workload. 500 operations per thread keep the
// package's share of tier-1 under 30 s on two CPUs; every assertion below
// holds at 1000 as well, and full-length figures come from `nrbench -all`.
func runAt(threads, updPermille int) Run {
	return Run{Threads: threads, OpsPerThread: 500, UpdatePermille: updPermille}
}

func TestFig5bShape_NRBestAfterOneNode(t *testing.T) {
	t.Parallel()
	// 10% updates: beyond one NUMA node NR dominates every lock-based
	// method (Fig. 5b: 1.7x-41x at max threads).
	r := runAt(112, 100)
	nr := simNR.at(pqProfile, r).OpsPerUs()
	for _, m := range []model{simSL, simRWL, simFC, simFCP} {
		if other := m.at(pqProfile, r).OpsPerUs(); nr <= other {
			t.Errorf("NR (%.2f) not above %s (%.2f) at 112 threads, 10%% updates", nr, m.name, other)
		}
	}
}

func TestFig5bShape_NRScalesAcrossNodes(t *testing.T) {
	t.Parallel()
	// NR's throughput must grow, not collapse, when crossing from 1 node
	// (28 threads) to 4 nodes (112).
	one := simNR.at(pqProfile, runAt(28, 100)).OpsPerUs()
	four := simNR.at(pqProfile, runAt(112, 100)).OpsPerUs()
	if four < one {
		t.Errorf("NR dropped across node boundary: %.2f at 28 thr, %.2f at 112", one, four)
	}
}

func TestFig5bShape_LockBasedCollapseAcrossNodes(t *testing.T) {
	t.Parallel()
	// SL and RWL lose significant performance beyond one node (§8.1.1).
	for _, m := range []model{simSL, simRWL} {
		one := m.at(pqProfile, runAt(28, 100)).OpsPerUs()
		four := m.at(pqProfile, runAt(112, 100)).OpsPerUs()
		if four > one*0.8 {
			t.Errorf("%s did not collapse across nodes: %.2f at 28 thr vs %.2f at 112", m.name, one, four)
		}
	}
}

func TestFig5cShape_NRBeatsLFUnderFullContention(t *testing.T) {
	t.Parallel()
	// 100% updates on the PQ: LF loses its advantage (Fig. 5c: NR 2.4x).
	r := runAt(112, 1000)
	nr := simNR.at(pqProfile, r).OpsPerUs()
	lf := simLF.at(pqProfile, r).OpsPerUs()
	if nr <= lf {
		t.Errorf("NR (%.2f) not above LF (%.2f) at 100%% updates", nr, lf)
	}
}

func TestFig5aShape_ReadOnlyScalesForLFRWLNR(t *testing.T) {
	t.Parallel()
	// 0% updates: LF, RWL/FC+, NR all scale well; LF leads (Fig. 5a ~2.9x).
	r := runAt(112, 0)
	nr := simNR.at(pqProfile, r).OpsPerUs()
	lf := simLF.at(pqProfile, r).OpsPerUs()
	sl := simSL.at(pqProfile, r).OpsPerUs()
	if lf <= nr {
		t.Errorf("read-only: LF (%.2f) should lead NR (%.2f)", lf, nr)
	}
	if lf > nr*8 {
		t.Errorf("read-only: LF lead (%.1fx) far beyond the paper's ~2.9x", lf/nr)
	}
	if nr < sl*10 {
		t.Errorf("read-only: NR (%.2f) should dwarf serializing SL (%.2f)", nr, sl)
	}
}

func TestFig7Shape_UniformLFDominatesButZipfCrosses(t *testing.T) {
	t.Parallel()
	// Uniform keys, 100% updates: LF far ahead of NR (Fig. 7b: ~14x).
	r := runAt(112, 1000)
	nrU := simNR.at(dictUniformProfile, r).OpsPerUs()
	lfU := simLF.at(dictUniformProfile, r).OpsPerUs()
	if lfU < nrU*3 {
		t.Errorf("uniform 100%%: LF (%.2f) should dominate NR (%.2f)", lfU, nrU)
	}
	// Zipf keys, 100% updates: the advantage flips (Fig. 7d).
	nrZ := simNR.at(dictZipfProfile, r).OpsPerUs()
	lfZ := simLF.at(dictZipfProfile, r).OpsPerUs()
	if nrZ <= lfZ {
		t.Errorf("zipf 100%%: NR (%.2f) should beat LF (%.2f)", nrZ, lfZ)
	}
}

func TestFig7Shape_ZipfFailedCASStorm(t *testing.T) {
	t.Parallel()
	// §8.1.3: uniform ≈ 300K failed CAS, zipf > 7M — assert the blow-up.
	r := Run{Threads: 112, OpsPerThread: 500, UpdatePermille: 1000}
	uniform := simLF.at(dictUniformProfile, r)
	zipf := simLF.at(dictZipfProfile, r)
	if zipf.FailCAS < uniform.FailCAS*5 {
		t.Errorf("zipf failed CAS (%d) not dramatically above uniform (%d)",
			zipf.FailCAS, uniform.FailCAS)
	}
}

func TestFig8Shape_NAandNRScaleOnStack(t *testing.T) {
	t.Parallel()
	r := runAt(112, 1000)
	nr := simNR.at(stackProfile, r).OpsPerUs()
	na := simNA.at(stackProfile, r).OpsPerUs()
	lf := simLF.at(stackProfile, r).OpsPerUs()
	sl := simSL.at(stackProfile, r).OpsPerUs()
	if nr <= lf {
		t.Errorf("stack: NR (%.2f) should beat Treiber-style LF (%.2f) (Fig. 8: 6.2x)", nr, lf)
	}
	if nr <= sl {
		t.Errorf("stack: NR (%.2f) should beat SL (%.2f) (Fig. 8: 21x)", nr, sl)
	}
	if na <= nr {
		t.Errorf("stack: elimination NA (%.2f) should beat NR (%.2f) (Fig. 8: up to 3.6x)", na, nr)
	}
}

func TestFig14Shape_AblationsHurt(t *testing.T) {
	t.Parallel()
	// Each disabled technique must cost throughput on the 10%-update PQ
	// workload at max threads (Fig. 14 row 1).
	r := runAt(112, 100)
	full := simNR.at(pqProfile, r).OpsPerUs()
	for _, m := range []model{
		ablatedNR("DisableCombining", NROpts{DisableCombining: true}),
		ablatedNR("ReadWaitLogTail", NROpts{ReadWaitLogTail: true}),
		ablatedNR("SerialReplicaUpdate", NROpts{SerialReplicaUpdate: true}),
		ablatedNR("CombinedReplicaLock", NROpts{CombinedReplicaLock: true}),
		ablatedNR("CentralizedReaderLock", NROpts{CentralizedReaderLock: true}),
	} {
		if got := m.at(pqProfile, r).OpsPerUs(); got >= full {
			t.Errorf("%s: ablated NR (%.2f) not below full NR (%.2f)", m.name, got, full)
		}
	}
}

func TestAMDTopologyRuns(t *testing.T) {
	t.Parallel()
	s := New(topology.AMD8x6(), AMDCosts())
	r := Run{Threads: 48, OpsPerThread: 500, UpdatePermille: 500}
	res := RunNR(s, pqProfile, r, NROpts{})
	if res.OpsPerUs() <= 0 {
		t.Error("AMD topology run produced no throughput")
	}
}

func TestExternalWorkReducesThroughput(t *testing.T) {
	r0 := Run{Threads: 28, OpsPerThread: 800, UpdatePermille: 1000}
	rE := r0
	rE.ExternalWorkNs = 1024
	fast := RunNR(intel(), pqProfile, r0, NROpts{}).OpsPerUs()
	slow := RunNR(intel(), pqProfile, rE, NROpts{}).OpsPerUs()
	if slow >= fast {
		t.Errorf("external work did not reduce throughput: %.2f vs %.2f", slow, fast)
	}
}

func TestResultOpsPerUsZeroSafe(t *testing.T) {
	if (Result{}).OpsPerUs() != 0 {
		t.Error("zero-duration result not handled")
	}
}

func TestNodeThreads(t *testing.T) {
	cases := []struct{ total, node, tpn, want int }{
		{112, 0, 28, 28}, {112, 3, 28, 28},
		{30, 0, 28, 28}, {30, 1, 28, 2}, {30, 2, 28, 0},
		{1, 0, 28, 1},
	}
	for _, c := range cases {
		if got := nodeThreads(c.total, c.node, c.tpn); got != c.want {
			t.Errorf("nodeThreads(%d,%d,%d) = %d, want %d", c.total, c.node, c.tpn, got, c.want)
		}
	}
}

func TestFig5bShape_NRBeatsLFAt10Percent(t *testing.T) {
	t.Parallel()
	// Fig. 5b at max threads: NR 1.7x over LF.
	r := runAt(112, 100)
	nr := simNR.at(pqProfile, r).OpsPerUs()
	lf := simLF.at(pqProfile, r).OpsPerUs()
	if nr <= lf {
		t.Errorf("PQ 10%%: NR (%.2f) not above LF (%.2f); paper has 1.7x", nr, lf)
	}
	if ratio := nr / lf; ratio > 4 {
		t.Errorf("PQ 10%%: NR/LF = %.1fx, far beyond the paper's 1.7x", ratio)
	}
}

func TestFig7cShape_NRBeatsLFZipf10Percent(t *testing.T) {
	t.Parallel()
	// Fig. 7c at max threads: NR 3.1x over LF under zipf keys, 10% updates.
	r := runAt(112, 100)
	nr := simNR.at(dictZipfProfile, r).OpsPerUs()
	lf := simLF.at(dictZipfProfile, r).OpsPerUs()
	if nr <= lf {
		t.Errorf("dict zipf 10%%: NR (%.2f) not above LF (%.2f); paper has 3.1x", nr, lf)
	}
}

func TestNRZipfBeatsNRUniform(t *testing.T) {
	t.Parallel()
	// §8.1.3: "data structure contention improves cache locality with NR" —
	// NR's zipf throughput exceeds its uniform throughput at 10% updates.
	r := runAt(112, 100)
	z := simNR.at(dictZipfProfile, r).OpsPerUs()
	u := simNR.at(dictUniformProfile, r).OpsPerUs()
	if z <= u {
		t.Errorf("NR zipf (%.2f) not above NR uniform (%.2f)", z, u)
	}
}
