package chaos

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	nr "github.com/asplos17/nr"
	"github.com/asplos17/nr/internal/persist"
)

// RecoverSchedule describes one kill-and-recover chaos run: a persistent
// instance takes acknowledged-durable ops (phase 1), then maybe-lost ops
// (phase 2), then "crashes" — either a graceful close replayed verbatim,
// or an in-process crash-point injection that rewinds the WAL to an exact
// fsync boundary, or a torn final record — and is recovered with
// nr.Recover. RunRecover records every op with its token so the report can
// hold recovery to the detectability contract.
type RecoverSchedule struct {
	// Seed drives every per-thread op stream (0 is a valid seed).
	Seed uint64
	// Nodes/CoresPerNode shape the topology (defaults 2×2, SMT 1).
	Nodes        int
	CoresPerNode int
	// Threads is how many workers register (default: all hardware threads).
	Threads int
	// OpsPerThread is phase 1: ops executed, then made durable with an
	// explicit SyncWAL barrier — acknowledged, must survive (default 100).
	OpsPerThread int
	// TailOpsPerThread is phase 2: ops executed after the barrier, never
	// explicitly synced — they may or may not survive the crash; recovery
	// must simply be *consistent* about each one (default 40).
	TailOpsPerThread int
	// PanicEveryN injects deterministic panic ops (0 = off); their partial
	// mutations must survive recovery too.
	PanicEveryN int
	// CheckpointMid takes a replica snapshot between the phases, so
	// recovery exercises snapshot + suffix replay rather than full replay.
	CheckpointMid bool
	// CrashAtBoundary rewinds the WAL to a group-fsync boundary at or after
	// the phase-1 barrier (persist.RollBackTo) — the exact on-disk state a
	// kill -9 at that fsync would leave. Without it the shutdown is
	// graceful and everything is durable.
	CrashAtBoundary bool
	// TornTail additionally truncates the final segment mid-record, the
	// torn write a crash mid-page leaves. Only meaningful with
	// TailOpsPerThread > 0 (the torn record must be a maybe-lost op).
	TornTail bool
	// LogEntries sizes the shared log (default 128).
	LogEntries int
	// Timeout bounds each phase (default 30s).
	Timeout time.Duration
}

func (s *RecoverSchedule) fillDefaults() {
	if s.Nodes == 0 {
		s.Nodes = 2
	}
	if s.CoresPerNode == 0 {
		s.CoresPerNode = 2
	}
	if s.OpsPerThread == 0 {
		s.OpsPerThread = 100
	}
	if s.TailOpsPerThread == 0 {
		s.TailOpsPerThread = 40
	}
	if s.LogEntries == 0 {
		s.LogEntries = 128
	}
	if s.Timeout == 0 {
		s.Timeout = 30 * time.Second
	}
	if s.Threads == 0 {
		s.Threads = s.Nodes * s.CoresPerNode
	}
}

// RecordedOp is one operation the pre-crash run submitted, with the token
// that makes it detectable after recovery.
type RecordedOp struct {
	Thread int
	Op     Op
	Token  uint64
	// Acked marks phase-1 ops: executed before the SyncWAL barrier, so
	// recovery MUST report them executed and preserve their effects.
	Acked bool
	// Panicked marks ops whose execution panicked (contained); their
	// partial mutation is still an effect.
	Panicked bool
}

// RecoverReport is the result of one kill-and-recover run.
type RecoverReport struct {
	Schedule RecoverSchedule
	// Ops is every submitted op with its token, in no particular order.
	Ops []RecordedOp
	// Recovered is the post-crash instance; callers own Close.
	Recovered *nr.Recovered[Op, Result]
	// States holds every recovered replica's canonical state (Values).
	States []map[uint16]int64
	// DurableAtBarrier is the WAL watermark right after the phase-1 sync.
	DurableAtBarrier uint64
	// CrashBoundary is the sync boundary the run rewound to (zero value
	// when the shutdown was graceful).
	CrashBoundary persist.SyncInfo
	// LiveFingerprint is replica 0's fingerprint before the crash, after a
	// final quiesce — with a graceful shutdown recovery must reproduce it.
	LiveFingerprint uint64
	Graceful        bool
}

// RunRecover executes the schedule against dir (which must be empty) and
// returns the report; call (*RecoverReport).Check for the invariants and
// Close the report's Recovered instance when done. The returned error is
// non-nil only when the run itself could not complete.
func RunRecover(dir string, s RecoverSchedule) (*RecoverReport, error) {
	s.fillDefaults()

	var (
		syncMu sync.Mutex
		syncs  []persist.SyncInfo
	)
	inst, err := nr.New(
		func() nr.Sequential[Op, Result] { return NewDS() },
		nr.WithNodes(s.Nodes, s.CoresPerNode, 1),
		nr.WithLogEntries(s.LogEntries),
		nr.WithPersistence(dir, OpCodec{}, walTuning(func(info persist.SyncInfo) {
			syncMu.Lock()
			syncs = append(syncs, info)
			syncMu.Unlock()
		})),
	)
	if err != nil {
		return nil, fmt.Errorf("chaos: building persistent instance: %w", err)
	}

	rep := &RecoverReport{Schedule: s}
	var opMu sync.Mutex
	record := func(ops []RecordedOp) {
		opMu.Lock()
		rep.Ops = append(rep.Ops, ops...)
		opMu.Unlock()
	}

	// Workers register once and keep their handles across both phases.
	handles := make([]*nr.Handle[Op, Result], s.Threads)
	for t := 0; t < s.Threads; t++ {
		h, err := inst.RegisterOnNode(t % s.Nodes)
		if err != nil {
			inst.Close()
			return nil, fmt.Errorf("chaos: registering worker %d: %w", t, err)
		}
		handles[t] = h
	}

	phase := func(opsPerThread int, acked bool, phaseIdx uint64) error {
		var wg sync.WaitGroup
		errc := make(chan error, s.Threads)
		for t := 0; t < s.Threads; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				h := handles[t]
				rng := NewRand(s.Seed ^ mix(uint64(t)+1) ^ mix(phaseIdx+7))
				outs := make([]RecordedOp, 0, opsPerThread)
				for seq := 0; seq < opsPerThread; seq++ {
					op := s.opFor(rng, seq)
					_, err := h.TryExecute(op)
					ro := RecordedOp{Thread: t, Op: op, Token: h.LastToken(), Acked: acked}
					var pe *nr.PanicError
					switch {
					case err == nil:
					case errors.As(err, &pe):
						ro.Panicked = true
					default:
						errc <- fmt.Errorf("chaos: worker %d seq %d %s: %w", t, seq, op, err)
						return
					}
					outs = append(outs, ro)
				}
				record(outs)
			}(t)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(s.Timeout):
			return fmt.Errorf("%w after %v", ErrDeadlock, s.Timeout)
		}
		select {
		case err := <-errc:
			return err
		default:
			return nil
		}
	}

	// Phase 1: acknowledged ops, then the durability barrier.
	if err := phase(s.OpsPerThread, true, 1); err != nil {
		inst.Close()
		return nil, err
	}
	if err := inst.SyncWAL(); err != nil {
		inst.Close()
		return nil, fmt.Errorf("chaos: phase-1 sync: %w", err)
	}
	rep.DurableAtBarrier, _ = inst.DurableIndex()

	if s.CheckpointMid {
		if err := inst.Checkpoint(); err != nil {
			inst.Close()
			return nil, fmt.Errorf("chaos: mid-run checkpoint: %w", err)
		}
	}

	// Phase 2: maybe-lost tail.
	if s.TailOpsPerThread > 0 {
		if err := phase(s.TailOpsPerThread, false, 2); err != nil {
			inst.Close()
			return nil, err
		}
	}

	inst.Quiesce()
	inst.Inspect(0, func(ds nr.Sequential[Op, Result]) {
		rep.LiveFingerprint = ds.(*DS).Fingerprint()
	})
	// Graceful close first in every mode: all buffered pages reach disk, so
	// the rollback below rewinds from a known-complete WAL — exactly what
	// RollBackTo needs to reproduce the crash-at-boundary state.
	inst.Close()

	rep.Graceful = true
	if s.CrashAtBoundary {
		syncMu.Lock()
		var boundary persist.SyncInfo
		for _, b := range syncs {
			// The first boundary at/after the barrier: acked ops durable,
			// most of the tail not yet.
			if b.DurableIndex >= rep.DurableAtBarrier {
				boundary = b
				break
			}
		}
		syncMu.Unlock()
		if boundary.Segment == "" {
			return nil, errors.New("chaos: no sync boundary at or after the barrier recorded")
		}
		if err := persist.RollBackTo(dir, boundary); err != nil {
			return nil, fmt.Errorf("chaos: crash injection: %w", err)
		}
		rep.CrashBoundary = boundary
		rep.Graceful = false
	}
	if s.TornTail {
		if err := tearLastSegment(dir); err != nil {
			return nil, fmt.Errorf("chaos: tearing tail: %w", err)
		}
		rep.Graceful = false
	}

	rec, err := nr.Recover(dir, func(data []byte) (nr.Sequential[Op, Result], error) {
		return RestoreDS(data)
	}, OpCodec{}, nr.WithNodes(s.Nodes, s.CoresPerNode, 1), nr.WithLogEntries(s.LogEntries))
	if err != nil {
		return nil, fmt.Errorf("chaos: recover: %w", err)
	}
	rep.Recovered = rec
	rec.Quiesce()
	for n := 0; n < rec.Replicas(); n++ {
		rec.Inspect(n, func(ds nr.Sequential[Op, Result]) {
			rep.States = append(rep.States, ds.(*DS).Values())
		})
	}
	return rep, nil
}

// tearLastSegment truncates the lexically last WAL segment by a few bytes,
// tearing its final record mid-write — what a crash between two page
// writes leaves on disk. Segment names are zero-padded, so lexical order
// is write order.
func tearLastSegment(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	last := ""
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".wal") && e.Name() > last {
			last = e.Name()
		}
	}
	if last == "" {
		return errors.New("no segment to tear")
	}
	path := filepath.Join(dir, last)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	const tear = 5
	if fi.Size() <= tear {
		return nil
	}
	return os.Truncate(path, fi.Size()-tear)
}

// walTuning sets the WAL knobs the kill-and-recover runs turn: a short
// group interval, small segments (rotation under test), and onSync after
// every sync, which records the crash points.
func walTuning(onSync func(persist.SyncInfo)) nr.PersistOption {
	return func(o *persist.Options) {
		o.GroupInterval = 500 * time.Microsecond
		o.SegmentBytes = 16 << 10
		o.OnSync = onSync
	}
}

// opFor derives the (seq) op for the recover harness: updates with
// occasional deterministic panics. No reads (reads are never persisted) and
// no stalls (duration noise, no extra coverage here).
func (s *RecoverSchedule) opFor(rng *Rand, seq int) Op {
	key := uint16(rng.Intn(64))
	delta := int64(rng.Intn(1000)) + 1
	if s.PanicEveryN > 0 && seq%s.PanicEveryN == s.PanicEveryN-1 {
		return Op{Kind: KindPanic, Key: key, Delta: delta}
	}
	return Op{Kind: KindAdd, Key: key, Delta: delta}
}

// Check asserts the kill-and-recover invariants and returns every
// violation:
//
//  1. No acknowledged op lost: every op recorded before the SyncWAL
//     barrier — including panicking ops — reports
//     WasExecuted(token) true after recovery.
//  2. Convergence: every recovered replica has the same fingerprint.
//  3. Detectability consistency: the recovered state is exactly the fold
//     of the effects of the ops recovery claims were executed — an op is
//     either in the state AND detected, or absent AND not detected;
//     nothing partial, nothing duplicated.
//  4. Graceful completeness: after a graceful shutdown (no crash
//     injection) recovery reproduces the pre-close state bit for bit and
//     reports every submitted op executed.
func (r *RecoverReport) Check() []error {
	var errs []error
	for _, o := range r.Ops {
		if o.Acked && !r.Recovered.WasExecuted(o.Token) {
			errs = append(errs, fmt.Errorf("acked op lost: thread %d %s token %#x not executed after recovery", o.Thread, o.Op, o.Token))
		}
	}
	if err := divergence(r.States); err != nil {
		errs = append(errs, fmt.Errorf("recovered: %w", err))
	}
	executed := make(map[uint16]int64)
	for _, o := range r.Ops {
		if r.Recovered.WasExecuted(o.Token) {
			ApplyEffect(executed, o.Op)
		}
	}
	if len(r.States) > 0 {
		if got, want := FingerprintMap(r.States[0]), FingerprintMap(executed); got != want {
			errs = append(errs, fmt.Errorf("recovered fingerprint %x != fold of detected-executed ops %x (detectability inconsistent with state)", got, want))
		}
	}
	if r.Graceful {
		if len(r.States) > 0 && FingerprintMap(r.States[0]) != r.LiveFingerprint {
			errs = append(errs, fmt.Errorf("graceful shutdown: recovered fingerprint %x != pre-close fingerprint %x", FingerprintMap(r.States[0]), r.LiveFingerprint))
		}
		for _, o := range r.Ops {
			if !r.Recovered.WasExecuted(o.Token) {
				errs = append(errs, fmt.Errorf("graceful shutdown: thread %d %s token %#x not executed", o.Thread, o.Op, o.Token))
			}
		}
	}
	return errs
}
