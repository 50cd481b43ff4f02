package chaos

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/asplos17/nr/internal/core"
	"github.com/asplos17/nr/internal/topology"
	"github.com/asplos17/nr/internal/trace"
)

// Schedule describes one chaos run: the machine shape, the op volume, and
// the fault rates. Every fault decision derives from Seed, so a schedule
// replays exactly.
type Schedule struct {
	// Seed drives every per-thread op stream. Required (0 is a valid seed).
	Seed uint64
	// Nodes/CoresPerNode shape the software topology (defaults 2×2, SMT 1).
	Nodes        int
	CoresPerNode int
	// Threads is how many worker goroutines register (default: all).
	Threads int
	// OpsPerThread is the length of each worker's op stream (default 200).
	OpsPerThread int
	// LogEntries sizes the shared log; small values create log-full
	// pressure (default 64).
	LogEntries int
	// Logs > 1 runs the instance multi-log: per-key ops class by
	// Key % Logs, Sum spans every class (core.CrossLog). The run
	// replicates ParDS — multi-log may apply different classes' batches to
	// one replica concurrently, and DS's shared map would race.
	Logs int
	// PanicEveryN injects a deterministic panic op every N ops (0 = off).
	PanicEveryN int
	// StallEveryN injects a stalling op every N ops (0 = off).
	StallEveryN int
	// StallFor is the stall duration (default 2ms).
	StallFor time.Duration
	// AbandonEveryN makes a worker post-and-abandon every N ops, retiring
	// that worker's handle and re-registering a fresh one on the same node
	// (0 = off).
	AbandonEveryN int
	// ReadFraction is the percentage [0,100] of well-behaved ops that are
	// reads (default 30).
	ReadFraction int
	// StallThreshold enables the core watchdog (default 1ms when
	// StallEveryN > 0, else off).
	StallThreshold time.Duration
	// Trace attaches a flight recorder with automatic dumps enabled (no
	// rate limit, callback sink): every stall/panic/poison the run detects
	// lands in Report.TraceDumps, so tests can assert the black box fired.
	Trace bool
	// Timeout bounds the whole run; exceeding it is the deadlock invariant
	// firing (default 30s).
	Timeout time.Duration
}

func (s *Schedule) fillDefaults() {
	if s.Nodes == 0 {
		s.Nodes = 2
	}
	if s.CoresPerNode == 0 {
		s.CoresPerNode = 2
	}
	if s.OpsPerThread == 0 {
		s.OpsPerThread = 200
	}
	if s.LogEntries == 0 {
		s.LogEntries = 64
	}
	if s.StallFor == 0 {
		s.StallFor = 2 * time.Millisecond
	}
	if s.ReadFraction == 0 {
		s.ReadFraction = 30
	}
	if s.StallThreshold == 0 && s.StallEveryN > 0 {
		s.StallThreshold = time.Millisecond
	}
	if s.Timeout == 0 {
		s.Timeout = 30 * time.Second
	}
	if s.Threads == 0 {
		s.Threads = s.Nodes * s.CoresPerNode
	}
}

// Outcome records one operation's fate for the invariant checker.
type Outcome struct {
	Thread int
	Seq    int
	Op     Op
	Resp   Result
	Err    error
	// Abandoned marks ops posted via PostAndAbandon: no response expected.
	Abandoned bool
}

// Report is the result of a chaos run.
type Report struct {
	Schedule Schedule
	Outcomes []Outcome
	// States holds every replica's canonical state (Values) after Quiesce:
	// the replica oracle requires them all equal.
	States []map[uint16]int64
	// ClassFingerprints, on multi-log schedules, digests each replica
	// per conflict class: ClassFingerprints[n][c] covers replica n's keys
	// of class c. Check verifies each class column converges on its own —
	// a finer diagnosis than the whole-replica fingerprint when one log's
	// replay path misbehaves.
	ClassFingerprints [][]uint64
	Stats             core.Stats
	Health            core.Health
	Elapsed           time.Duration
	// TraceDumps lists the reason of every automatic flight-recorder dump
	// ("stall", "panic", "poisoned") the run produced, in order. Populated
	// only with Schedule.Trace.
	TraceDumps []string
	// TraceEvents counts the events a final recorder snapshot held, a
	// sanity signal that the recorder was live. Populated with Trace.
	TraceEvents int
	// OrphansDrained reports that every abandoned op was forced to execute
	// before fingerprints were taken (see run's drain pass); when false the
	// effect-completeness invariant is skipped, since an unexecuted orphan
	// legitimately leaves the expected state ambiguous.
	OrphansDrained bool
}

// ErrDeadlock is returned by Run when the run — workers, drain, quiesce —
// fails to finish within the schedule's timeout: the "no deadlock"
// invariant.
var ErrDeadlock = errors.New("chaos: run did not finish within timeout (deadlock?)")

// Run executes the schedule against a fresh NR instance and returns the
// report; call (*Report).Check for the invariants. The returned error is
// non-nil only when the run itself could not complete (setup failure or
// deadlock) — injected faults are data, not errors.
func Run(s Schedule) (*Report, error) {
	s.fillDefaults()
	rec, dumps := s.recorder()
	inst, err := core.New[Op, Result](
		s.newDS(),
		core.Options{
			Topology:       topology.New(s.Nodes, s.CoresPerNode, 1),
			LogEntries:     s.LogEntries,
			Logs:           s.Logs,
			LogMapper:      s.logMapper(),
			StallThreshold: s.StallThreshold,
			Trace:          rec,
		})
	if err != nil {
		return nil, fmt.Errorf("chaos: building instance: %w", err)
	}
	rep, err := run(inst, s)
	if rep != nil && rec != nil {
		rep.TraceDumps = dumps()
		rep.TraceEvents = len(rec.Snapshot().Events())
	}
	if !errors.Is(err, ErrDeadlock) {
		// A deadlocked instance is left open: Close would wait for its
		// watchdog, which may be stuck helping with the rest.
		inst.Close()
	}
	return rep, err
}

// recorder builds the schedule's flight recorder (nil without Trace) and
// the accessor for the reasons of the automatic dumps it has produced.
func (s *Schedule) recorder() (rec *trace.Recorder, dumps func() []string) {
	if !s.Trace {
		return nil, nil
	}
	var (
		mu      sync.Mutex
		reasons []string
	)
	rec = trace.New(trace.Config{
		RingSlots:       2048,
		DumpMinInterval: -1, // short runs: record every failure, no rate limit
		OnDump: func(reason string, _ trace.Snapshot) {
			mu.Lock()
			reasons = append(reasons, reason)
			mu.Unlock()
		},
	})
	return rec, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(reasons)
	}
}

// newDS picks the replicated structure for the schedule: the plain
// accumulator, or the commuting one when multi-log is under test (DS's add
// responses are order-dependent and its map is not safe for the concurrent
// application of different classes' batches).
func (s *Schedule) newDS() func() core.Sequential[Op, Result] {
	if s.Logs > 1 {
		return func() core.Sequential[Op, Result] { return NewParDS() }
	}
	return func() core.Sequential[Op, Result] { return NewDS() }
}

// logMapper builds the conflict-class mapper for multi-log schedules (nil
// when single-log): per-key kinds class by key, Sum spans every class.
func (s *Schedule) logMapper() any {
	if s.Logs <= 1 {
		return nil
	}
	m := s.Logs
	return func(op Op) int {
		if op.Kind == KindSum {
			return core.CrossLog
		}
		return int(op.Key) % m
	}
}

// valuer is how the harness reads a replica's state without knowing which
// accumulator variant it replicated.
type valuer interface{ Values() map[uint16]int64 }

// runWorkers drives s's seeded op streams through handles registered on
// inst, re-registering on the same node after an abandonment. Returns the
// flattened outcomes in thread order.
func runWorkers(inst *core.Instance[Op, Result], s Schedule) ([]Outcome, error) {
	outcomes := make([][]Outcome, s.Threads)
	workers := make([]*core.Handle[Op, Result], s.Threads)
	for t := range workers {
		w, err := inst.Register()
		if err != nil {
			return nil, fmt.Errorf("chaos: registering worker %d: %w", t, err)
		}
		workers[t] = w
	}
	var wg sync.WaitGroup
	for t := 0; t < s.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			h := workers[t]
			rng := NewRand(s.Seed ^ mix(uint64(t)+1))
			outs := make([]Outcome, 0, s.OpsPerThread)
			for seq := 0; seq < s.OpsPerThread; seq++ {
				op := s.opFor(rng, t, seq)
				if s.AbandonEveryN > 0 && seq%s.AbandonEveryN == s.AbandonEveryN-1 {
					h.PostAndAbandon(op)
					outs = append(outs, Outcome{Thread: t, Seq: seq, Op: op, Abandoned: true})
					// The abandoned handle is dead; take a fresh slot on the
					// same node, as a restarted worker would.
					nh, err := inst.RegisterOnNode(h.Node())
					if err != nil {
						// Node out of slots: stop this worker. Recorded ops
						// up to here still count.
						break
					}
					h = nh
					continue
				}
				resp, err := h.TryExecute(op)
				outs = append(outs, Outcome{Thread: t, Seq: seq, Op: op, Resp: resp, Err: err})
			}
			outcomes[t] = outs
		}(t)
	}
	wg.Wait()
	var all []Outcome
	for _, outs := range outcomes {
		all = append(all, outs...)
	}
	return all, nil
}

// run drives s's workers against inst (already configured), within
// s.Timeout: workers, the orphan drain, the quiesce and the replica reads
// all count, since a deadlock in any of them is the invariant firing.
func run(inst *core.Instance[Op, Result], s Schedule) (*Report, error) {
	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := runUnbounded(inst, s)
		done <- result{rep, err}
	}()
	select {
	case r := <-done:
		return r.rep, r.err
	case <-time.After(s.Timeout):
		return nil, fmt.Errorf("%w after %v; stats %+v health %+v", ErrDeadlock, s.Timeout, inst.Stats(), inst.Health())
	}
}

func runUnbounded(inst *core.Instance[Op, Result], s Schedule) (*Report, error) {
	start := time.Now()
	all, err := runWorkers(inst, s)
	if err != nil {
		return nil, err
	}
	drained := true
	if s.AbandonEveryN > 0 {
		// Drain orphaned combining slots: one no-op update per node forces a
		// combining round that scans the node's slots and executes any op a
		// dead worker left behind. With every orphan executed, the
		// effect-completeness invariant can fold abandoned ops into the
		// expected state.
		classes := s.Logs
		if classes < 1 {
			classes = 1
		}
		for n := 0; n < inst.Replicas(); n++ {
			h, err := inst.RegisterOnNode(n)
			if err != nil {
				drained = false // out of slots: this node's orphans may be pending
				continue
			}
			// One no-op per conflict class: a combining round only collects
			// its own class's slots, so each class's orphans need their own
			// round (key c maps to class c under the harness mapper).
			for c := 0; c < classes; c++ {
				if _, err := h.TryExecute(Op{Kind: KindAdd, Key: uint16(c), Delta: 0}); err != nil {
					drained = false
				}
			}
		}
	}
	inst.Quiesce()
	rep := &Report{Schedule: s, Elapsed: time.Since(start), OrphansDrained: drained, Outcomes: all}
	for n := 0; n < inst.Replicas(); n++ {
		inst.InspectReplica(n, func(ds core.Sequential[Op, Result]) {
			rep.States = append(rep.States, ds.(valuer).Values())
			if s.Logs > 1 {
				row := make([]uint64, s.Logs)
				for c := range row {
					row[c] = ds.(*ParDS).ClassFingerprint(c, s.Logs)
				}
				rep.ClassFingerprints = append(rep.ClassFingerprints, row)
			}
		})
	}
	rep.Stats = inst.Stats()
	rep.Health = inst.Health()
	return rep, nil
}

// opFor derives the (t, seq) op purely from the schedule — the injection
// points. Panic beats stall when both rates hit the same seq.
func (s *Schedule) opFor(rng *Rand, t, seq int) Op {
	key := uint16(rng.Intn(64))
	delta := int64(rng.Intn(1000)) + 1
	if s.PanicEveryN > 0 && seq%s.PanicEveryN == s.PanicEveryN-1 {
		return Op{Kind: KindPanic, Key: key, Delta: delta}
	}
	if s.StallEveryN > 0 && seq%s.StallEveryN == s.StallEveryN-1 {
		return Op{Kind: KindStall, Key: key, Delta: delta, Stall: s.StallFor}
	}
	if rng.Intn(100) < s.ReadFraction {
		return Op{Kind: KindSum}
	}
	return Op{Kind: KindAdd, Key: key, Delta: delta}
}

// Check asserts the chaos invariants and returns every violation:
//
//  1. Response delivery: every non-abandoned op has an outcome — faulty ops
//     a *core.PanicError carrying the injected panic value, healthy ops a
//     nil error. (Run already proved "no deadlock" by returning.)
//  2. Convergence: after Quiesce, every replica holds the same state (the
//     replica oracle compares whole contents, not digests).
//  3. No poisoning: deterministic faults must never trip the divergence
//     detector.
//  4. Stall visibility: when stalls were injected and the watchdog enabled,
//     Stats.Stalls must be nonzero.
//  5. Effect completeness: replica state equals exactly the fold of every
//     recorded op's effect — successful updates, panicking ops' partial
//     mutations, and drained abandoned ops alike. Nothing executed twice,
//     nothing silently skipped. Skipped when orphans could not be drained
//     (OrphansDrained false) because an unexecuted orphan's effect is
//     legitimately absent.
func (r *Report) Check() []error {
	var errs []error
	if len(r.States) > 0 && (r.Schedule.AbandonEveryN == 0 || r.OrphansDrained) {
		expected := make(map[uint16]int64)
		for _, o := range r.Outcomes {
			// Panicking ops mutated before the panic; only a non-panic error
			// (none expected; invariant 1 flags them) means no effect.
			if o.Err == nil || errors.As(o.Err, new(*core.PanicError)) {
				ApplyEffect(expected, o.Op)
			}
		}
		if got, want := FingerprintMap(r.States[0]), FingerprintMap(expected); got != want {
			errs = append(errs, fmt.Errorf("replica state fingerprint %x != expected op-fold fingerprint %x (lost or duplicated effects)", got, want))
		}
	}
	for _, o := range r.Outcomes {
		switch {
		case o.Abandoned:
			continue
		case o.Op.Kind == KindPanic:
			var pe *core.PanicError
			if !errors.As(o.Err, &pe) {
				errs = append(errs, fmt.Errorf("thread %d seq %d %s: want PanicError, got %v", o.Thread, o.Seq, o.Op, o.Err))
			} else if pe.Value != any(PanicMsg) {
				errs = append(errs, fmt.Errorf("thread %d seq %d %s: wrong panic value %v", o.Thread, o.Seq, o.Op, pe.Value))
			}
		default:
			if o.Err != nil {
				errs = append(errs, fmt.Errorf("thread %d seq %d %s: unexpected error %v", o.Thread, o.Seq, o.Op, o.Err))
			}
		}
	}
	if err := divergence(r.States); err != nil {
		errs = append(errs, err)
	}
	for n := 1; n < len(r.ClassFingerprints); n++ {
		for c := range r.ClassFingerprints[n] {
			if r.ClassFingerprints[n][c] != r.ClassFingerprints[0][c] {
				errs = append(errs, fmt.Errorf("replica %d class %d fingerprint %x != replica 0's %x (per-class divergence)", n, c, r.ClassFingerprints[n][c], r.ClassFingerprints[0][c]))
			}
		}
	}
	if r.Health.Poisoned {
		errs = append(errs, fmt.Errorf("instance poisoned under deterministic faults: %s", r.Health.PoisonReason))
	}
	if r.Schedule.StallEveryN > 0 && r.Schedule.StallThreshold > 0 && r.Stats.Stalls == 0 {
		errs = append(errs, errors.New("stalls injected but watchdog counted none"))
	}
	return errs
}
