// Durability surface of the nr package: WithPersistence makes
// internal/persist's write-ahead log follow the instance's shared log — a
// follower goroutine reads the filled entries in index order, appends each
// (with its op token) to generation-numbered segment files and group-fsyncs
// them itself; submitting and combining threads do nothing for durability —
// Checkpoint snapshots a replica atomically, and Recover rebuilds an
// instance from the durable state after a crash, answering
// Recovered.WasExecuted(token) for detectable recovery. See DESIGN.md
// "Durability & recovery".
package nr

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asplos17/nr/internal/core"
	"github.com/asplos17/nr/internal/persist"
)

// Codec serializes operations for the write-ahead log. AppendEncode
// appends op's encoding to dst and returns the extended slice — it runs
// once per update on the log follower, which must keep up with every
// combiner, so implementations should avoid allocation (append into dst, no
// intermediate buffers). Decode must invert it.
// Encoding must be deterministic and self-delimiting is NOT required: each
// record's payload is length-framed by the WAL.
type Codec[O any] interface {
	AppendEncode(dst []byte, op O) ([]byte, error)
	Decode(data []byte) (O, error)
}

// Snapshotter is implemented by sequential structures that can serialize
// their entire state; WithPersistence requires it (Checkpoint and Recover
// are built on it). The bytes must capture everything needed for the
// restore function given to Recover to rebuild an identical structure —
// including any internal seeds, so replicas restored from the same bytes
// stay deterministic.
type Snapshotter interface {
	SnapshotBytes() ([]byte, error)
}

// PersistStats are point-in-time WAL counters (appends, pages, fsyncs,
// rotations).
type PersistStats = persist.Stats

// ErrNoPersistence is returned by persistence methods (Checkpoint,
// SyncWAL, ...) on instances built without WithPersistence.
var ErrNoPersistence = errors.New("nr: instance has no persistence (build with WithPersistence or Recover)")

// PersistOption tunes persistence; pass to WithPersistence (or, for
// Recover, via WithPersistenceOptions). WithFsyncNever is the one public
// option; the WAL's other settings keep their defaults outside this
// module's tests.
type PersistOption func(*persist.Options)

// WithFsyncNever disables fsync: the WAL still writes pages, but the OS
// decides when they reach disk. For benchmarking the write path, or for
// workloads where losing the last instants of history on power failure is
// acceptable.
func WithFsyncNever() PersistOption {
	return func(o *persist.Options) { o.Fsync = persist.FsyncNever }
}

// persistConfig is the non-generic option payload accumulated in settings;
// New re-types codec via the Codec[O] assertion.
type persistConfig struct {
	dir    string
	codec  any // Codec[O]
	popts  []PersistOption
	resume *resumeState // non-nil when built by Recover
}

type resumeState struct {
	gen    uint64
	tokens map[uint64]struct{}
}

// WithPersistence makes the instance durable: a follower goroutine reads
// every update operation off the shared log, appends it to a write-ahead log
// in dir and group-fsyncs it. Operations do no durability work and never
// block on I/O; an operation is durable about two group intervals after it
// is acknowledged, or when SyncWAL returns. The shared log is the
// backpressure: it does not recycle an entry the follower has not read, so
// updates wait (as they wait for a lagging replica) only when the disk falls
// a whole log behind. Checkpoint/Recover snapshot and rebuild the structure
// through codec and the Snapshotter interface, which the structure must
// implement.
//
// The O type parameter must match the instance's operation type. dir must
// be fresh (or empty): starting a new instance over existing durable state
// would shadow it, so New fails in that case — recover it with Recover, or
// delete it deliberately.
func WithPersistence[O any](dir string, codec Codec[O], popts ...PersistOption) Option {
	return func(s *settings) {
		s.persist = &persistConfig{dir: dir, codec: codec, popts: popts}
	}
}

// WithPersistenceOptions carries persistence tuning into Recover, which
// constructs the persistence itself (dir and codec are Recover arguments).
// Ignored unless used with Recover.
func WithPersistenceOptions(popts ...PersistOption) Option {
	return func(s *settings) { s.persistTuning = append(s.persistTuning, popts...) }
}

// persistence makes a WAL follow the instance's shared log. Detectability
// bookkeeping splits in two: the WAL journals the (index, token) pairs of
// the records not yet durable (see persist.TokenPair), and snapTokens is the
// cumulative token set already folded into the latest snapshot, which
// covered every index below snapIndex; both touched only under snapMu.
type persistence[O any] struct {
	dir   string
	codec Codec[O]
	wal   *persist.WAL
	fol   *core.Follower[O]

	// The follower goroutine's state: the op being appended, in its log
	// cell, and the encoder closure over it, built once so an append
	// allocates nothing.
	cur     *O
	encode  func([]byte) ([]byte, error)
	quit    chan struct{}
	done    chan struct{}
	closing sync.Once

	snapMu     sync.Mutex // serializes checkpoints; guards snapTokens, snapIndex
	snapTokens map[uint64]struct{}
	snapIndex  uint64
	lastSave   atomic.Int64
}

// follow is the log follower: the one goroutine that appends to the WAL. A
// pass reads the shared log up to the first unfilled entry — so it keeps
// going while it is behind — and ends the WAL's group cycle (fsync of the
// last one's writes, then the partial page); then it sleeps until the group
// interval's tick, a barrier's kick, or an appender's (the log is full). WAL
// errors are sticky and surface on the next SyncWAL / Checkpoint; the
// follower keeps reading past them so the log never fills behind a dead
// disk, and the instance runs on in memory.
func (p *persistence[O]) follow() {
	defer close(p.done)
	tick := time.NewTicker(p.wal.GroupInterval())
	defer tick.Stop()
	for {
		p.fol.Drain(p.append)
		p.wal.Flush()
		select {
		case <-tick.C:
		case <-p.fol.Wake():
		case <-p.quit:
			// Close: everything reserved before it was called (waiting out
			// holes), then let go of the log.
			for tail := p.fol.LogTail(); p.fol.Pos() < tail; {
				p.fol.Drain(p.append)
				runtime.Gosched()
			}
			p.fol.Detach()
			return
		}
	}
}

// append hands one log entry to the WAL, encoded in place into its page
// straight from its log cell.
func (p *persistence[O]) append(idx, token uint64, op *O) {
	p.cur = op
	_ = p.wal.Append(idx, token, p.encode)
}

// waitFollowed blocks until the follower has appended every entry below idx
// to the WAL (immediately once Close has detached it).
func (p *persistence[O]) waitFollowed(idx uint64) {
	for p.fol.Pos() < idx {
		p.fol.Kick()
		runtime.Gosched()
	}
}

// close drains the follower to the log tail and closes the WAL.
func (p *persistence[O]) close() {
	p.closing.Do(func() {
		close(p.quit)
		<-p.done
		_ = p.wal.Close()
	})
}

// attachPersistence builds the persistence for inst from pc and starts its
// log follower. Called from New with no operations executed.
func attachPersistence[O, R any](inst *Instance[O, R], pc *persistConfig) (*persistence[O], error) {
	codec, ok := pc.codec.(Codec[O])
	if !ok {
		return nil, fmt.Errorf("nr: WithPersistence codec is %T, not a Codec for this instance's operation type", pc.codec)
	}
	snapOK := false
	inst.inner.InspectReplica(0, func(ds core.Sequential[O, R]) {
		_, snapOK = ds.(Snapshotter)
	})
	if !snapOK {
		return nil, errors.New("nr: WithPersistence requires the sequential structure to implement nr.Snapshotter")
	}
	var wopts persist.Options
	for _, o := range pc.popts {
		o(&wopts)
	}
	gen := uint64(1)
	snapTokens := make(map[uint64]struct{})
	if pc.resume != nil {
		gen = pc.resume.gen
		for tok := range pc.resume.tokens {
			snapTokens[tok] = struct{}{}
		}
	} else {
		has, err := persist.HasState(pc.dir)
		if err != nil {
			return nil, err
		}
		if has {
			return nil, fmt.Errorf("nr: persistence dir %q already holds durable state; recover it with nr.Recover or remove it deliberately", pc.dir)
		}
	}
	wal, err := persist.Open(pc.dir, gen, wopts)
	if err != nil {
		return nil, err
	}
	fol, err := inst.inner.Follow()
	if err != nil {
		wal.Close()
		return nil, err
	}
	p := &persistence[O]{
		dir:        pc.dir,
		codec:      codec,
		wal:        wal,
		fol:        fol,
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
		snapTokens: snapTokens,
	}
	p.encode = func(dst []byte) ([]byte, error) { return p.codec.AppendEncode(dst, *p.cur) }
	go p.follow()
	return p, nil
}

// Checkpoint synchronously snapshots replica 0 (quiesced to the completed
// tail) to the persistence dir: an atomic temp-file+rename write of the
// serialized structure, the applied log index, and the cumulative op-token
// set. Recovery then replays only the WAL suffix past the snapshot.
// Concurrent operations proceed, except that the snapshotted replica's
// write lock is held while SnapshotBytes runs.
func (i *Instance[O, R]) Checkpoint() error {
	p := i.pst
	if p == nil {
		return ErrNoPersistence
	}
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	var (
		payload []byte
		serr    error
		applied uint64
	)
	i.inner.CheckpointReplica(0, func(ds core.Sequential[O, R], tail uint64) {
		applied = tail
		s, ok := ds.(Snapshotter)
		if !ok {
			serr = errors.New("nr: structure does not implement Snapshotter")
			return
		}
		payload, serr = s.SnapshotBytes()
	})
	if serr != nil {
		return serr
	}
	// The replica applied everything below applied, but the follower reads
	// the log on its own schedule: wait until it has journaled those tokens.
	p.waitFollowed(applied)
	covered, err := p.wal.TokensBetween(p.snapIndex, applied)
	if err != nil {
		return err
	}
	toks := make([]uint64, 0, len(p.snapTokens)+len(covered))
	for tok := range p.snapTokens {
		toks = append(toks, tok)
	}
	for _, pr := range covered {
		toks = append(toks, pr.Tok)
	}
	err = persist.SaveSnapshot(p.dir, persist.Snapshot{
		Gen:     p.wal.Gen(),
		Index:   applied,
		Tokens:  toks,
		Payload: payload,
	})
	if err != nil {
		return err
	}
	// Only after the snapshot is durably named: fold the covered tokens
	// into the cumulative set (guarded by snapMu, held here) and compact
	// the WAL's journal. The next checkpoint asks for [applied, ...), so
	// the set dropped is exactly the set folded.
	for _, pr := range covered {
		p.snapTokens[pr.Tok] = struct{}{}
	}
	p.snapIndex = applied
	p.wal.DropTokensBelow(applied)
	p.lastSave.Store(time.Now().UnixNano())
	return nil
}

// SyncWAL blocks until every operation acknowledged before the call is
// durable — the log follower has reached the log tail read at the call, and
// the WAL has flushed and group-fsynced — returning the WAL's sticky
// failure, if any. This is the explicit durability barrier: after SyncWAL
// returns nil, those operations survive kill -9.
func (i *Instance[O, R]) SyncWAL() error {
	if i.pst == nil {
		return ErrNoPersistence
	}
	i.pst.waitFollowed(i.pst.fol.LogTail())
	return i.pst.wal.Sync()
}

// DurableIndex returns the durable watermark: every update with log index
// below it is on disk. Zero (and false) without persistence.
func (i *Instance[O, R]) DurableIndex() (uint64, bool) {
	if i.pst == nil {
		return 0, false
	}
	return i.pst.wal.DurableIndex(), true
}

// LastSave returns the completion time of the last successful Checkpoint
// (the zero time if none this process), mirroring redis LASTSAVE.
func (i *Instance[O, R]) LastSave() time.Time {
	if i.pst == nil {
		return time.Time{}
	}
	ns := i.pst.lastSave.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// WALStats returns point-in-time WAL counters; ok is false without
// persistence. Appends counts records the log follower has handed to the
// WAL, which trails the operations acknowledged by up to one group interval
// (SyncWAL first for an exact count).
func (i *Instance[O, R]) WALStats() (stats PersistStats, ok bool) {
	if i.pst == nil {
		return PersistStats{}, false
	}
	return i.pst.wal.Stats(), true
}

// Recovered is the result of Recover: a fully usable Instance plus the
// detectability view of the crashed run.
type Recovered[O, R any] struct {
	*Instance[O, R]
	executed      map[uint64]struct{}
	replayed      int
	dropped       int
	replayPanics  int
	snapshotIndex uint64
}

// WasExecuted answers, definitively, whether the operation identified by
// token (see Handle.LastToken) had durably executed before the crash:
// true when its effect is part of the recovered state, false when it is
// not — either it never ran, or it ran but had not reached disk. The
// answer covers every durable operation back to the first generation,
// including ops whose submitters never saw a response because the process
// died first. Tokens are unique within one instance lifetime; queries are
// about the crashed run's tokens, not ops executed after this recovery.
func (r *Recovered[O, R]) WasExecuted(token uint64) bool {
	_, ok := r.executed[token]
	return ok
}

// ReplayedOps reports how many WAL records recovery replayed on top of the
// snapshot.
func (r *Recovered[O, R]) ReplayedOps() int { return r.replayed }

// DroppedRecords reports how many WAL records were present but unusable:
// already covered by the snapshot, or beyond the first index gap in the
// durable suffix (an un-persisted earlier op makes their pre-state
// unknowable, so they do not count as executed).
func (r *Recovered[O, R]) DroppedRecords() int { return r.dropped }

// ReplayPanics reports how many replayed operations panicked during
// recovery (they panicked identically before the crash; panic containment
// mirrors the live protocol's).
func (r *Recovered[O, R]) ReplayPanics() int { return r.replayPanics }

// SnapshotIndex reports the log index the recovery snapshot covered;
// replay resumed there.
func (r *Recovered[O, R]) SnapshotIndex() uint64 { return r.snapshotIndex }

// replayInto applies one decoded op with the live path's panic
// containment: a panicking op keeps whatever partial mutation it made and
// replay continues — exactly what safeExecute produced before the crash.
func replayInto[O, R any](ds Sequential[O, R], op O) (panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	ds.Execute(op)
	return false
}

// Recover rebuilds an instance from dir's durable state: load the latest
// intact snapshot, replay the contiguous WAL suffix (in log order, with
// per-op panic containment), then start a fresh instance whose every
// replica is restored from the recovered bytes. restore must rebuild a
// structure from Snapshotter bytes — it receives nil for a fresh dir, and
// must then return an empty structure, so Recover doubles as
// "open-or-create".
//
// Recovery is itself crash-safe: the recovered state is written as a
// new-generation snapshot before the old generation is pruned, so a crash
// mid-recovery leaves either the old generation intact or the new one
// complete.
//
// options are the usual New options (topology, metrics, ...); persistence
// tuning goes via WithPersistenceOptions. Passing WithPersistence is an
// error — Recover wires persistence itself, continuing at the next
// generation in dir.
func Recover[O, R any](dir string, restore func(data []byte) (Sequential[O, R], error), codec Codec[O], options ...Option) (*Recovered[O, R], error) {
	if restore == nil {
		return nil, errors.New("nr: restore function is nil")
	}
	if codec == nil {
		return nil, errors.New("nr: codec is nil")
	}
	var probe settings
	for _, o := range options {
		o(&probe)
	}
	if probe.persist != nil {
		return nil, errors.New("nr: do not pass WithPersistence to Recover; use WithPersistenceOptions for tuning")
	}

	st, err := persist.Load(dir)
	if err != nil {
		return nil, err
	}
	ds, err := restore(st.SnapshotPayload)
	if err != nil {
		return nil, fmt.Errorf("nr: restore snapshot: %w", err)
	}
	if ds == nil {
		return nil, errors.New("nr: restore returned a nil structure")
	}
	executed := make(map[uint64]struct{}, len(st.Tokens)+len(st.Records))
	for _, tok := range st.Tokens {
		executed[tok] = struct{}{}
	}
	replayed, panics, dropped := 0, 0, st.Dropped
	for _, rec := range st.Records {
		op, derr := codec.Decode(rec.Payload)
		if derr != nil {
			// Undecodable record: treat like a torn tail — the contiguous
			// durable prefix ends here.
			dropped += len(st.Records) - replayed
			break
		}
		if replayInto(ds, op) {
			panics++
		}
		executed[rec.Token] = struct{}{}
		replayed++
	}
	snapper, ok := ds.(Snapshotter)
	if !ok {
		return nil, errors.New("nr: restored structure does not implement Snapshotter")
	}
	payload, err := snapper.SnapshotBytes()
	if err != nil {
		return nil, fmt.Errorf("nr: snapshot recovered state: %w", err)
	}
	newGen := st.Gen + 1
	toks := make([]uint64, 0, len(executed))
	for tok := range executed {
		toks = append(toks, tok)
	}
	if err := persist.SaveSnapshot(dir, persist.Snapshot{Gen: newGen, Index: 0, Tokens: toks, Payload: payload}); err != nil {
		return nil, fmt.Errorf("nr: persist recovered state: %w", err)
	}
	persist.PruneBelowGen(dir, newGen)

	// Validate that restore round-trips before handing it to create, which
	// cannot return an error.
	if probeDS, perr := restore(payload); perr != nil {
		return nil, fmt.Errorf("nr: recovered state does not restore: %w", perr)
	} else if probeDS == nil {
		return nil, errors.New("nr: restore returned a nil structure for the recovered state")
	}
	create := func() Sequential[O, R] {
		rds, rerr := restore(payload)
		if rerr != nil {
			// Pre-validated just above with identical bytes; a failure here
			// is a non-deterministic restore, which violates the contract.
			panic(fmt.Sprintf("nr: restore failed on validated snapshot: %v", rerr))
		}
		return rds
	}
	inst, err := New[O, R](create, append(options[:len(options):len(options)],
		withResumedPersistence[O](dir, codec, newGen, executed))...)
	if err != nil {
		return nil, err
	}
	return &Recovered[O, R]{
		Instance:      inst,
		executed:      executed,
		replayed:      replayed,
		dropped:       dropped,
		replayPanics:  panics,
		snapshotIndex: st.SnapshotIndex,
	}, nil
}

// withResumedPersistence is Recover's internal option: continue persisting
// into dir at generation gen, with the cumulative executed-token set
// carried forward so future snapshots keep answering for pre-crash ops.
func withResumedPersistence[O any](dir string, codec Codec[O], gen uint64, tokens map[uint64]struct{}) Option {
	return func(s *settings) {
		var popts []PersistOption
		popts = append(popts, s.persistTuning...)
		s.persist = &persistConfig{
			dir: dir, codec: codec, popts: popts,
			resume: &resumeState{gen: gen, tokens: tokens},
		}
	}
}
