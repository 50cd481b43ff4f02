// Package core implements Node Replication (NR), the paper's black-box
// transformation from a sequential data structure to a linearizable,
// NUMA-aware concurrent one (§4-§5).
//
// One replica of the sequential structure lives on each NUMA node. Update
// operations flow through a shared log (internal/log): within a node, flat
// combining batches the node's outstanding updates behind a combiner lock;
// across nodes, combiners contend only on the log-tail CAS. Read-only
// operations never touch the log tail — they wait until the local replica
// has absorbed every operation completed before the read began
// (completedTail), then run against the local replica under a distributed
// readers-writer lock (internal/rwlock).
//
// Multi-log NR (CNR-style commutativity partitioning): an instance may own
// M logs instead of one (Options.Logs). A LogMapper assigns every operation
// a conflict class in [0, M); operations in different classes must commute
// and the structure must tolerate their concurrent application (typically
// because each class touches a disjoint partition). Each (replica, log)
// pair has its own local tail, combiner lock and readers-writer lock, so
// combiners for different classes append to and replay their logs fully
// independently, and a reader waits only on the log its class maps to. A
// replica is current when every log's completed tail is consumed.
// Operations spanning several classes return the CrossLog sentinel and
// serialize through log 0 with a cross-log ticket barrier (cross.go).
//
// Two deliberate additions over the paper's pseudo-code, both needed for
// correctness under Go's cooperative scheduling:
//
//   - Inactive-replica helping. The paper notes (§6) that a node whose
//     threads stop executing operations also stops consuming the log, which
//     eventually blocks every appender, and suggests a dedicated combiner
//     per node. Here an appender that finds the log full first drains it
//     into its own replica, then helps lagging replicas catch up — bounded
//     by completedTail, which guarantees it can never race an in-flight
//     combiner's application of its own batch (a combiner advances its
//     replica's localTail past its batch before advancing completedTail).
//
//   - Response tags. Log entries carry (node, slot) so that whichever
//     thread replays an entry into its *home* replica delivers the response
//     to the waiting thread. A combiner normally answers its batch from the
//     node-local combining slots, exactly as in §5.2, but it is not the only
//     thread that replays into its replica: a same-node cross applier
//     (cross.go) or a helper may overtake a class combiner between its log
//     append and its replay, and then the overtaker's replay is the one
//     that answers the batch. Cross-class operations are answered only
//     this way.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asplos17/nr/internal/log"
	"github.com/asplos17/nr/internal/obs"
	"github.com/asplos17/nr/internal/rwlock"
	"github.com/asplos17/nr/internal/topology"
	"github.com/asplos17/nr/internal/trace"
)

// Sequential is the black-box contract a data structure must satisfy (§4).
// Execute must be deterministic, must not block, and must produce side
// effects only on the structure. IsReadOnly must be a pure function of op.
type Sequential[O, R any] interface {
	// Execute applies op. nrlint treats this as the black-box dispatch
	// boundary: the structure behind it is user code, so the call graph
	// does not follow it (//nr:opaque) — its "must not block" obligation
	// is the contract above, not a checked invariant.
	Execute(op O) R       //nr:opaque
	IsReadOnly(op O) bool //nr:opaque
}

// CrossLog is the LogMapper sentinel for operations that touch more than
// one conflict class: they serialize through log 0 behind a ticket barrier
// appended to every other log (cross.go), so every replica applies them at
// the same point relative to each class's history.
const CrossLog = -1

// maxLogs bounds Options.Logs: the flight-recorder token reserves 6 bits
// for the log index (trace.TokenWithLog).
const maxLogs = 64

// Options configures an NR instance.
type Options struct {
	// Topology describes the simulated NUMA machine. Zero value means the
	// Intel testbed of the paper (4×14×2).
	Topology topology.Topology

	// LogEntries sets the shared log size — per log, when Logs > 1. The
	// paper fixes 1M entries (§7); the default here is 64K, which the
	// paper's sizing argument (§5.6) equally satisfies for our batch sizes
	// while staying test-friendly.
	LogEntries int

	// Logs is the number of shared logs (conflict classes); 0 or 1 means
	// classic single-log NR. Values above 1 require LogMapper.
	Logs int

	// LogMapper, when Logs > 1, must hold a func(O) int mapping every
	// operation to its conflict class in [0, Logs), or CrossLog for
	// operations spanning classes. It must be a pure function of the
	// operation; ops in different classes must commute and their Execute
	// must tolerate concurrent application against one replica. The field
	// is typed any because Options is not generic; core.New type-asserts
	// it against the instance's operation type.
	LogMapper any

	// Batch is the combiner's batching policy: how long a round lingers for
	// concurrent ops to join, whether the window adapts, and whether formed
	// batches may be executed by parallel combining (see batch.go). The
	// zero value closes every round after one collection pass.
	Batch BatchPolicy

	// DedicatedCombiners starts one background goroutine per node that
	// keeps the node's replica fresh even when its threads are idle — the
	// optional optimization of §4 and the paper's own suggested fix for
	// the inactive-replica problem (§6). Instances with dedicated
	// combiners must be Closed.
	DedicatedCombiners bool

	// StallThreshold, when positive, starts a watchdog goroutine that flags
	// any combiner lock held longer than this (a stalled or preempted
	// combiner, the §6 hazard), counts it in Stats.Stalls, reports it via
	// Health, and runs the helping path so other nodes keep consuming the
	// log. Instances with a watchdog must be Closed.
	StallThreshold time.Duration

	// Observer, when non-nil, receives protocol events (combine rounds,
	// reader refreshes, helping, log-tail contention, writer waits, stalls,
	// contained panics, per-op latency). Hooks fire from hot paths: the
	// observer must be concurrency-safe and non-blocking. A nil Observer
	// costs one branch per event site.
	Observer obs.Observer

	// Trace, when non-nil, attaches the flight recorder: every handle and
	// background goroutine gets a per-thread ring and records causal
	// protocol milestones (slot publish, combiner pickup, log fill, replay,
	// respond, ...) tagged with an operation token, so individual op
	// lifecycles can be reconstructed after the fact. This is a separate
	// seam from Observer on purpose: observer hooks carry aggregates with
	// no op identity, while trace events carry the (log, node, slot, seq)
	// token the reconstruction joins on. A nil Trace costs one nil check
	// per event site (Ring.Record no-ops on a nil ring).
	Trace *trace.Recorder
}

func (o *Options) fillDefaults() {
	if o.Topology == (topology.Topology{}) {
		o.Topology = topology.Intel4x14x2()
	}
	if o.LogEntries == 0 {
		o.LogEntries = 1 << 16
	}
	if o.Logs <= 0 {
		o.Logs = 1
	}
	if o.Batch.MinBatch < 0 {
		o.Batch.MinBatch = 0
	}
	if o.Batch.MaxLinger < 0 {
		o.Batch.MaxLinger = 0
	}
	if o.Batch.Adaptive && o.Batch.MaxLinger == 0 {
		o.Batch.MaxLinger = defaultAdaptiveLinger
	}
	if per := o.Topology.ThreadsPerNode(); o.Batch.MaxBatch <= 0 || o.Batch.MaxBatch > per {
		o.Batch.MaxBatch = per
	}
}

// Persister receives every update operation at log-append time, before
// the entry's marker store makes it visible to replayers: idx is the
// entry's absolute log index, token the op's flight-recorder identity
// (node|slot|seq). Implementations must be concurrency-safe — combiners on
// different nodes append concurrently — and must not call back into the
// instance. Ordering matters: because Append happens before the entry is
// visible, any thread that observes the entry applied (localTail past idx)
// also observes the persister's bookkeeping for it, which is what makes a
// concurrent checkpoint's token set complete. Persisters are a single-log
// facility: AttachPersister refuses multi-log instances (per-log WALs would
// need per-log recovery generations, ROADMAP item 5).
type Persister[O any] interface {
	Append(idx uint64, token uint64, op O)
}

// Stats counts internal events.
// It is one slice of the richer Metrics snapshot (metrics.go).
type Stats struct {
	Combines        uint64 `json:"combines"`         // combining rounds executed
	CombinedOps     uint64 `json:"combined_ops"`     // update ops appended via combining
	ReaderRefreshes uint64 `json:"reader_refreshes"` // reads that refreshed the replica themselves
	HelpedEntries   uint64 `json:"helped_entries"`   // log entries applied to other nodes' replicas
	ReadOps         uint64 `json:"read_ops"`         // read-only ops executed
	UpdateOps       uint64 `json:"update_ops"`       // update ops executed
	ParallelOps     uint64 `json:"parallel_ops"`     // update ops handed to owners by parallel combining
	CrossOps        uint64 `json:"cross_ops"`        // multi-class ops serialized through the cross-log barrier
	ReaderAcquires  uint64 `json:"reader_acquires"`  // read-lock acquisitions across all replicas (rwlock per-slot counters)
	WriterAcquires  uint64 `json:"writer_acquires"`  // write-lock acquisitions across all replica locks
	Panics          uint64 `json:"panics"`           // user Execute panics contained (see failure.go)
	Stalls          uint64 `json:"stalls"`           // combiner stalls flagged by the watchdog
}

// slot state machine values. slotParallel/slotParClaimed exist only on the
// parallel-combining path: the combiner hands a taken slot back to its owner
// (slotParallel), who claims it by CAS (slotParClaimed) and executes the op
// itself; an unclaimed handoff is reclaimed by the combiner via the same
// CAS, so exactly one side runs the op.
const (
	slotEmpty uint32 = iota
	slotPosted
	slotTaken
	slotDone
	slotParallel
	slotParClaimed
)

// slot is one thread's mailbox to its node's combiner (§5.2). The op is
// published with a release store on state; the response — a value or a
// contained panic (failure.go) — returns the same way on a separate word,
// mirroring the paper's cache-line discipline.
type slot[O, R any] struct {
	op O
	// seq is the submitting handle's per-op sequence number, written with
	// the op and published by the same release store on state; the combiner
	// reads it to stamp its trace events with the op's token.
	seq uint32
	// class is the op's conflict class (log index), written with the op and
	// published by the state release store; the class-c combiner collects
	// only class-c slots. Always 0 on single-log instances. Atomic because a
	// combiner of another class reads it on a posted slot it will not take,
	// and by then the slot's own combiner may have answered it and the owner
	// be posting its next op.
	class atomic.Int32
	// state is the protocol word; resp returns the outcome. Each must own
	// its cache line (checked by nrlint's cachepad against real offsets).
	//
	//nr:cacheline
	state atomic.Uint32
	_     [52]byte
	//nr:cacheline
	resp R
	err  error
	// idx is the op's absolute log index under parallel combining, written
	// by the combiner before its slotParallel release store and read by the
	// owner after the acquire load that observes it. It shares the response
	// line deliberately: same writer, same reader, same phase.
	idx uint64
}

// entry kinds stored in the shared logs. entryOp is a normal operation;
// entryCross (log 0 only) carries a multi-class operation plus its ticket;
// entryBarrier (logs 1..M-1) carries only the ticket and marks the point in
// that log's history where the cross operation with the same ticket must be
// applied (cross.go).
const (
	entryOp uint8 = iota
	entryCross
	entryBarrier
)

// entry is what NR stores in the shared log: the operation plus the
// response tag (node, slot) under which whichever thread replays it into
// its home replica answers the waiting thread (slot < 0 means no delivery;
// see "Response tags" in the package doc). seq completes the op token (log,
// node, slot, seq) so a remote replayer's trace events join the originating
// op's span; it is published by the log's marker store like the rest of the
// entry. kind and ticket implement the cross-log barrier: replayers stop at
// non-entryOp entries and hand control to the cross applier (cross.go).
type entry[O any] struct {
	op     O
	node   int32
	slot   int32
	seq    uint32
	kind   uint8
	ticket uint64
}

// takenSlot records one collected combining slot during a round.
type takenSlot[O, R any] struct {
	s    *slot[O, R]
	slot int32
}

// replicaLog is one (replica, log) pair's synchronization and combining
// state. With a single log it is exactly the per-replica state classic NR
// keeps; with M logs each replica carries M of these, and the class-c
// combiner, class-c readers and class-c helpers touch only index c — the
// independence that lets commuting classes proceed in parallel on one node.
//
// The lock classes declared on the fields below, plus the cross-apply lock
// (replica.crossApply) and the WAL appender lock (persist.WAL.mu), form the
// system-wide acquisition order that makes NR's deadlock-freedom argument
// (§5.3/§5.5) machine-checkable. Every replicaLog instance's combiner lock
// is one class ("combiner[i] instances are one class"): no path nests two
// combiner locks, of the same or different logs.
//
// A combiner holds combiner while taking replicaWriter to replay, and holds
// both while appending to the WAL through the Persister hook; an elected
// refreshing reader holds refresher while taking replicaWriter; the cross
// applier holds crossApply while taking every log's replicaWriter in index
// order, and is only ever invoked with no replicaWriter held. Nothing
// acquires in the other direction — readers that find the combiner lock
// busy help via TryLock instead of waiting, which is why TryLock sites are
// exempt from inversion checking.
//
//nr:lockorder combiner < crossApply < replicaWriter < walAppend
//nr:lockorder refresher < replicaWriter
type replicaLog[O, R any] struct {
	localTail    *atomic.Uint64
	combinerLock rwlock.StampedMutex //nr:lockorder combiner
	// refresher elects a single reader to bring the replica up to date when
	// no combiner is active, so stale readers don't convoy on the writer
	// lock (an engineering refinement over Algorithm 1, which lets every
	// stale reader acquire the writer lock in turn).
	refresher rwlock.SpinMutex    //nr:lockorder refresher
	rw        *rwlock.Distributed //nr:lockorder replicaWriter
	// scratch is the combiner's batch buffer, reused across rounds so a
	// combining round never allocates. Only the combiner-lock holder
	// touches it.
	scratch []takenSlot[O, R]

	// Batching-policy state (batch.go). lingerWindow is the adaptive spin
	// window in nanoseconds — only the combiner-lock holder writes it, but
	// Metrics() reads it concurrently as a gauge, hence atomic; batchDist
	// is this log's observed batch-size distribution (lock-free), the
	// adaptive policy's slow signal; parPending counts outstanding
	// parallel-combining handoffs within the current round.
	lingerWindow atomic.Int64
	batchDist    obs.CountDist
	parPending   atomic.Int64
	// lastReaderAcq is the rw lock's reader-acquisition count as of the end
	// of the previous combining round; the delta is the round's
	// ReaderPressure report. Only the combiner-lock holder touches it.
	lastReaderAcq uint64
}

// replica is one node's copy of the structure plus its synchronization:
// the shared sequential structure, the node's combining slots, and one
// replicaLog of per-log state per shared log.
type replica[O, R any] struct {
	id   int32
	ds   Sequential[O, R]
	logs []replicaLog[O, R]
	// crossApply serializes cross-log operation application on this replica
	// (cross.go): the holder applies the next ticket under every log's
	// write lock. crossDone is the last ticket applied here. Stamped so the
	// stall watchdog can see an op stalling INSIDE the cross applier — the
	// one multi-log replay path no per-class combiner lock covers (readers
	// drive it too).
	crossApply rwlock.StampedMutex //nr:lockorder crossApply
	crossDone  atomic.Uint64
	slots      []slot[O, R]
	registered int // slots handed out on this node
}

// Instance is a concurrent, NUMA-aware version of a sequential structure.
type Instance[O, R any] struct {
	opts Options
	logs []*log.Log[entry[O]]
	// mapper maps an op to its conflict class; nil on single-log instances
	// (class 0 for everything).
	mapper   func(O) int
	replicas []*replica[O, R]
	// batch mirrors opts.Batch (normalized); batchOn gates the policy
	// engine's per-round work, batchTarget is the batch size a lingering
	// round closes at, and conc is the structure's ConcurrentApply (nil
	// unless parallel combining is enabled AND the structure opts in).
	batch       BatchPolicy
	batchOn     bool
	batchTarget int
	conc        func(O) bool
	// observer mirrors opts.Observer for the hot paths' nil check.
	observer obs.Observer
	// rec mirrors opts.Trace (nil = flight recorder off).
	rec *trace.Recorder
	// persist, when non-nil, receives every update entry at append time
	// (durability hook; see AttachPersister). Nil costs one branch per
	// combining round. Single-log only.
	persist Persister[O]
	// profLabels holds per-node precomputed pprof label sets ([0] read,
	// [1] update) for sampled op labeling; nil unless ProfileSampleRate > 0.
	profLabels [][2]pprof.LabelSet
	profRate   uint32

	// Cross-log ticket state (cross.go). crossMu serializes cross-op
	// reservation and fill across the whole instance; crossSeq and crossIdx
	// are guarded by it.
	crossMu  sync.Mutex
	crossSeq uint64
	crossIdx []uint64

	mu    sync.Mutex // guards registration
	place *topology.Placement
	// fillSkips counts fill positions Register walked past because their
	// node was already filled by explicit RegisterOnNode calls; it keeps
	// the exhaustion error's assigned-vs-skipped report accurate.
	fillSkips int

	combines        atomic.Uint64
	combinedOps     atomic.Uint64
	readerRefreshes atomic.Uint64
	helpedEntries   atomic.Uint64
	readOps         atomic.Uint64
	updateOps       atomic.Uint64
	parallelOps     atomic.Uint64
	crossOps        atomic.Uint64
	panics          atomic.Uint64
	stalls          atomic.Uint64

	// Failure containment state (failure.go).
	tracker      panicTracker
	poisoned     atomic.Bool
	poisonMu     sync.Mutex
	poisonReason string

	stop   chan struct{}
	stopWG sync.WaitGroup
	closed atomic.Bool
}

// New builds an NR instance. create is called once per node to build that
// node's replica; all replicas must start identical (same seed, same
// contents).
func New[O, R any](create func() Sequential[O, R], opts Options) (*Instance[O, R], error) {
	if create == nil {
		return nil, errors.New("core: create function is nil")
	}
	opts.fillDefaults()
	if err := opts.Topology.Validate(); err != nil {
		return nil, err
	}
	m := opts.Logs
	if m > maxLogs {
		return nil, fmt.Errorf("core: Logs %d exceeds the maximum of %d (token log-index width)", m, maxLogs)
	}
	var mapper func(O) int
	if m > 1 {
		if opts.LogMapper == nil {
			return nil, errors.New("core: Logs > 1 requires a LogMapper assigning each op a conflict class")
		}
		fn, ok := opts.LogMapper.(func(O) int)
		if !ok {
			return nil, fmt.Errorf("core: LogMapper has type %T, want func(O) int for this instance's operation type", opts.LogMapper)
		}
		mapper = fn
	}
	maxBatch := opts.Topology.ThreadsPerNode()
	logs := make([]*log.Log[entry[O]], m)
	for j := range logs {
		l, err := log.New[entry[O]](opts.LogEntries, maxBatch)
		if err != nil {
			return nil, err
		}
		logs[j] = l
	}
	inst := &Instance[O, R]{
		opts:     opts,
		logs:     logs,
		mapper:   mapper,
		observer: opts.Observer,
		rec:      opts.Trace,
		place:    topology.NewFillPlacement(opts.Topology),
		batch:    opts.Batch,
		batchOn:  opts.Batch.MaxLinger > 0 || opts.Batch.Parallel,
		crossIdx: make([]uint64, m),
	}
	inst.batchTarget = inst.batch.MaxBatch
	if mb := inst.batch.MinBatch; mb > 0 && mb < inst.batchTarget {
		inst.batchTarget = mb
	}
	if rate := opts.Trace.ProfileSampleRate(); rate > 0 {
		inst.profRate = uint32(rate)
		inst.profLabels = make([][2]pprof.LabelSet, opts.Topology.Nodes())
		for n := range inst.profLabels {
			ns := strconv.Itoa(n)
			inst.profLabels[n][0] = pprof.Labels("nr_node", ns, "nr_op", "read")
			inst.profLabels[n][1] = pprof.Labels("nr_node", ns, "nr_op", "update")
		}
	}
	for n := 0; n < opts.Topology.Nodes(); n++ {
		r := &replica[O, R]{
			id:    int32(n),
			ds:    create(),
			logs:  make([]replicaLog[O, R], m),
			slots: make([]slot[O, R], maxBatch),
		}
		for j := range r.logs {
			lg := &r.logs[j]
			lg.localTail = logs[j].RegisterReplica()
			lg.scratch = make([]takenSlot[O, R], 0, maxBatch)
			lg.rw = rwlock.NewDistributed(maxBatch)
			if o := opts.Observer; o != nil {
				node := n
				lg.rw.SetWriterWaitHook(func(spins int) { o.WriterWait(node, spins) })
			}
		}
		inst.replicas = append(inst.replicas, r)
	}
	if opts.Batch.Parallel {
		// ConcurrentApply must be a pure function of op, so any replica's
		// structure answers for all of them.
		if ca, ok := inst.replicas[0].ds.(ConcurrentApplier[O]); ok {
			inst.conc = ca.ConcurrentApply
		}
	}
	if opts.DedicatedCombiners || opts.StallThreshold > 0 {
		inst.stop = make(chan struct{})
	}
	if opts.DedicatedCombiners {
		for _, r := range inst.replicas {
			inst.stopWG.Add(1)
			go inst.dedicatedCombiner(r)
		}
	}
	if opts.StallThreshold > 0 {
		inst.stopWG.Add(1)
		go inst.watchdog()
	}
	return inst, nil
}

// opClass maps op to its conflict class: 0 on single-log instances, the
// mapper's class otherwise. Out-of-range classes (a mapper contract slip)
// fold into range rather than corrupt the slot protocol; CrossLog passes
// through as the sentinel.
//
//nr:noalloc
func (i *Instance[O, R]) opClass(op O) int {
	if i.mapper == nil {
		return 0
	}
	c := i.mapper(op)
	if c == CrossLog {
		if len(i.logs) == 1 {
			return 0 // one log: cross-class is just the only class
		}
		return CrossLog
	}
	if m := len(i.logs); c < 0 || c >= m {
		c = ((c % m) + m) % m
	}
	return c
}

// dedicatedCombiner keeps one replica fresh in the background (§4, §6),
// cycling over every log. It takes the node's per-log combiner lock so it
// can never race an active combiner's batch, then replays completed entries
// like any combining round would.
func (i *Instance[O, R]) dedicatedCombiner(r *replica[O, R]) {
	defer i.stopWG.Done()
	ring := i.rec.AcquireRing()
	for {
		select {
		case <-i.stop:
			return
		default:
		}
		worked := false
		for c := range i.logs {
			lg := &r.logs[c]
			if to := i.logs[c].Completed(); to > lg.localTail.Load() {
				if lg.combinerLock.TryLock() {
					if to := i.logs[c].Completed(); to > lg.localTail.Load() {
						i.refreshOwn(r, c, to, ring)
						worked = true
					}
					lg.combinerLock.Unlock()
				}
			}
		}
		if !worked {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// Close stops the dedicated combiners and the stall watchdog, if any. The
// instance remains usable for operations; Close only ends the background
// goroutines. It is idempotent.
func (i *Instance[O, R]) Close() {
	if i.stop == nil || !i.closed.CompareAndSwap(false, true) {
		return
	}
	close(i.stop)
	i.stopWG.Wait()
}

// Handle binds a goroutine ("thread") to a node, a combiner slot, and a
// reader-lock slot. A Handle must not be used concurrently.
type Handle[O, R any] struct {
	inst   *Instance[O, R]
	node   int
	slot   int
	thread int
	// ring is this handle's flight-recorder ring (nil when tracing is off);
	// seq counts this handle's operations and completes the op token
	// TokenWithLog(cls, node, slot, seq). Both are single-goroutine state,
	// like the handle itself.
	ring *trace.Ring
	seq  uint32
	// cls is the current op's conflict class (always 0 on single-log
	// instances; cross ops tokenize on log 0). Single-goroutine, like seq.
	cls int
	// crossTails is the per-class completed-tail snapshot a cross-class
	// read waits out, preallocated so the cross read path does not allocate
	// (nil on single-log instances).
	crossTails []uint64
	// tsHint is the recorder-clock timestamp of the current op's start when
	// TryExecute already read the clock for the metrics observer, else 0.
	// Trace sites at the top of the op (tail-read, slot-publish) reuse it
	// instead of paying a second clock read. Single-goroutine, like seq.
	tsHint int64
	// broken is set when this handle's combining slot can no longer be
	// trusted (PostAndAbandon left an op in it that nobody will collect);
	// sticky so a late delivery cannot be mistaken for a later op's response.
	broken error
}

// token returns the handle's current op token.
func (h *Handle[O, R]) token() uint64 {
	return trace.TokenWithLog(h.cls, h.node, h.slot, h.seq)
}

// LastToken returns the op token (log|node|slot|seq) of the most recent
// operation submitted through this handle — the identity under which the
// flight recorder traces it and the persistence layer records it. Valid
// after TryExecute/Execute returns or PostAndAbandon is called; zero
// before the handle's first operation.
func (h *Handle[O, R]) LastToken() uint64 { return h.token() }

// AttachPersister installs p as the instance's durability hook. It must be
// called before any operation executes — the hook cannot retroactively
// cover entries already appended — and fails otherwise. Multi-log instances
// are refused: per-log WALs would need per-log recovery generations and a
// cross-log recovery barrier (ROADMAP item 5).
func (i *Instance[O, R]) AttachPersister(p Persister[O]) error {
	i.mu.Lock()
	defer i.mu.Unlock()
	if len(i.logs) > 1 {
		return errors.New("core: AttachPersister on a multi-log instance (persistence requires Logs == 1; per-log WALs lack cross-log recovery generations)")
	}
	if i.logs[0].Tail() != 0 {
		return errors.New("core: AttachPersister after operations have executed")
	}
	i.persist = p
	return nil
}

// ErrClosed is reported (wrapped, via errors.Is) by Register and
// RegisterOnNode after Close on an instance configured with dedicated
// combiners: a fresh handle could land on a node none of whose threads are
// active, and with the dedicated combiners gone that node's replica may
// never drain the log again, eventually wedging every appender (§6). The
// refusal is sticky — the dedicated combiners do not come back.
var ErrClosed = errors.New("core: instance closed")

// registerableLocked reports whether handing out new handles is still
// sound; callers hold i.mu.
func (i *Instance[O, R]) registerableLocked() error {
	if i.opts.DedicatedCombiners && i.closed.Load() {
		return fmt.Errorf("%w: dedicated combiners stopped, a new handle's node might never drain", ErrClosed)
	}
	return nil
}

// newHandle builds a handle bound to (node, slot); callers hold i.mu.
func (i *Instance[O, R]) newHandle(node, slot, thread int) *Handle[O, R] {
	h := &Handle[O, R]{inst: i, node: node, slot: slot, thread: thread, ring: i.rec.AcquireRing()}
	if len(i.logs) > 1 {
		h.crossTails = make([]uint64, len(i.logs))
	}
	return h
}

// Register binds the caller to the next thread position under the paper's
// fill placement (§8), skipping positions on nodes already filled by
// explicit RegisterOnNode calls. It fails once every hardware thread is
// taken.
func (i *Instance[O, R]) Register() (*Handle[O, R], error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if err := i.registerableLocked(); err != nil {
		return nil, err
	}
	total := i.opts.Topology.TotalThreads()
	for i.place.Assigned() < total {
		thread, node := i.place.Next()
		r := i.replicas[node]
		if r.registered >= len(r.slots) {
			i.fillSkips++
			continue // node filled explicitly; try the next position
		}
		s := r.registered
		r.registered++
		return i.newHandle(node, s, thread), nil
	}
	// Report what actually happened, not just the walked position count:
	// positions skipped over explicitly filled nodes are not handles.
	assigned := 0
	for _, r := range i.replicas {
		assigned += r.registered
	}
	return nil, fmt.Errorf(
		"core: no free hardware-thread positions: %d of %d handles assigned (%d fill positions skipped over explicitly filled nodes)",
		assigned, total, i.fillSkips)
}

// RegisterOnNode binds the caller to an explicit node, for callers that
// manage placement themselves.
func (i *Instance[O, R]) RegisterOnNode(node int) (*Handle[O, R], error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if err := i.registerableLocked(); err != nil {
		return nil, err
	}
	if node < 0 || node >= len(i.replicas) {
		return nil, fmt.Errorf("core: node %d out of range [0,%d)", node, len(i.replicas))
	}
	r := i.replicas[node]
	if r.registered >= len(r.slots) {
		return nil, fmt.Errorf("core: node %d has no free hardware threads", node)
	}
	s := r.registered
	r.registered++
	return i.newHandle(node, s, -1), nil
}

// Node returns the NUMA node this handle is bound to.
func (h *Handle[O, R]) Node() int { return h.node }

// Thread returns the logical thread id (-1 for explicit-node registration).
func (h *Handle[O, R]) Thread() int { return h.thread }

// FakeUpdater is optionally implemented by sequential structures some of
// whose update operations frequently turn out to be no-ops (§6 "fake update
// operations": a remove of a non-existent key, an insert of a present one).
// TryReadOnly must behave like a read: no side effects. When it reports
// done=true, its result is the operation's result and NR served it on the
// cheap read path; otherwise NR falls back to the normal update path, which
// re-evaluates the operation from scratch.
type FakeUpdater[O, R any] interface {
	TryReadOnly(op O) (resp R, done bool) //nr:opaque black-box boundary
}

// Execute runs op with linearizable semantics (ExecuteConcurrent in §4).
// If the operation's Sequential.Execute panicked — on whichever thread
// actually ran it — the panic is re-raised here, on the submitting
// goroutine, wrapped in a *PanicError. Use TryExecute to receive it as an
// error instead.
func (h *Handle[O, R]) Execute(op O) R {
	resp, err := h.TryExecute(op)
	if err != nil {
		panic(err)
	}
	return resp
}

// TryExecute runs op with linearizable semantics, reporting a contained
// failure as an error instead of a panic: a *PanicError when the
// operation's Execute panicked, ErrPoisoned (wrapped) once replicas have
// been observed to diverge. A nil error means resp is the operation's
// result.
func (h *Handle[O, R]) TryExecute(op O) (R, error) {
	i := h.inst
	if h.broken != nil {
		var zero R
		return zero, h.broken
	}
	if err := i.poisonedErr(); err != nil {
		var zero R
		return zero, err
	}
	h.seq++
	if rate := i.profRate; rate > 0 && h.seq%rate == 0 {
		return i.executeLabeled(h, op)
	}
	o := i.observer
	if o == nil && h.ring == nil {
		resp, _, err := i.dispatch(h, op)
		return resp, err
	}
	var start time.Time
	if o != nil {
		start = time.Now()
		h.tsHint = h.ring.At(start)
	} else {
		h.tsHint = 0
	}
	resp, class, err := i.dispatch(h, op)
	if o != nil {
		elapsed := time.Since(start)
		o.OpDone(h.node, class, elapsed)
		// The op-end timestamp is derived from the observer's clock reads —
		// the recorder adds no clock read of its own on this path.
		h.ring.RecordAt(h.tsHint+int64(elapsed), trace.KOpEnd, h.node, h.token(), uint64(class))
	} else {
		h.ring.Record(trace.KOpEnd, h.node, h.token(), uint64(class))
	}
	return resp, err
}

// executeLabeled is TryExecute's sampled-profiling body: the dispatch runs
// under runtime/pprof labels (nr_node, nr_op) so CPU profiles attribute
// time to op class and node. Label attachment allocates, which is why it is
// taken only every ProfileSampleRate-th op per handle.
func (i *Instance[O, R]) executeLabeled(h *Handle[O, R], op O) (R, error) {
	cls := 1
	if i.replicas[h.node].ds.IsReadOnly(op) {
		cls = 0
	}
	var (
		resp  R
		class obs.OpClass
		err   error
	)
	o := i.observer
	var start time.Time
	if o != nil {
		start = time.Now()
		h.tsHint = h.ring.At(start)
	} else {
		h.tsHint = 0
	}
	pprof.Do(context.Background(), i.profLabels[h.node][cls], func(context.Context) {
		resp, class, err = i.dispatch(h, op)
	})
	if o != nil {
		elapsed := time.Since(start)
		o.OpDone(h.node, class, elapsed)
		// Same derivation as the unsampled path in TryExecute: the op-end
		// timestamp comes from the observer's clock reads (tsHint+elapsed),
		// so a sampled op's span ends exactly like every other op's.
		h.ring.RecordAt(h.tsHint+int64(elapsed), trace.KOpEnd, h.node, h.token(), uint64(class))
	} else {
		h.ring.Record(trace.KOpEnd, h.node, h.token(), uint64(class))
	}
	return resp, err
}

// dispatch routes op to the read or update path of its conflict class and
// reports which class served it: ops a FakeUpdater resolved without logging
// count as reads, matching the Stats.ReadOps accounting. Each op is counted
// exactly once, in the class that actually served it — a fake update that
// fails its read-path attempt counts only as an update, so
// ReadOps+UpdateOps always equals the number of ops executed and agrees
// with the per-class latency histograms the metrics observer keeps.
func (i *Instance[O, R]) dispatch(h *Handle[O, R], op O) (R, obs.OpClass, error) {
	r := i.replicas[h.node]
	c := i.opClass(op)
	if c == CrossLog {
		h.cls = 0 // cross ops tokenize on log 0, where their entry lives
	} else {
		h.cls = c
	}
	if r.ds.IsReadOnly(op) {
		i.readOps.Add(1)
		if c == CrossLog {
			resp, err := i.readOnlyCross(h, op)
			return resp, obs.OpRead, err
		}
		resp, _, err := i.readOnlyVia(h, c, op, false)
		return resp, obs.OpRead, err
	}
	if _, ok := r.ds.(FakeUpdater[O, R]); ok && c != CrossLog {
		// First attempt the operation as a read (§6). Linearizable: the
		// no-op outcome is justified by the replica state at the read
		// point; a false return falls through to the full update, which
		// re-executes the operation atomically. A panic inside TryReadOnly
		// is final (done=true): retrying on the update path would replay
		// the panic into every replica. Cross-class updates skip the fast
		// path — a consistent multi-class read needs every log's lock,
		// costing more than the log append it would save.
		if resp, done, err := i.readOnlyVia(h, c, op, true); done {
			i.readOps.Add(1)
			return resp, obs.OpRead, err
		}
	}
	i.updateOps.Add(1)
	if c == CrossLog {
		resp, err := i.updateCross(h, op)
		return resp, obs.OpUpdate, err
	}
	resp, err := i.combine(h, c, op)
	return resp, obs.OpUpdate, err
}

// PostAndAbandon publishes op to this handle's combining slot and returns
// without waiting for the response, then marks the handle unusable. It
// simulates a thread that dies between publishing and combining — the §6
// stalled-thread hazard — for the chaos tests: the node's next combiner
// executes the op and delivers a response nobody collects; the slot is
// permanently retired. A cross-class op is appended (with its barriers)
// but not applied — whichever thread next crosses the barrier applies it.
func (h *Handle[O, R]) PostAndAbandon(op O) {
	if h.broken == nil {
		h.broken = errors.New("core: handle abandoned by PostAndAbandon")
	}
	i := h.inst
	r := i.replicas[h.node]
	s := &r.slots[h.slot]
	h.seq++
	c := i.opClass(op)
	if c == CrossLog {
		h.cls = 0
		s.seq = h.seq
		s.state.Store(slotTaken) // response delivered to a slot nobody reads
		i.crossOps.Add(1)
		i.appendCross(h, op)
		return
	}
	h.cls = c
	s.op = op
	s.seq = h.seq
	s.class.Store(int32(c))
	h.ring.Record(trace.KSlotPublish, h.node, h.token(), 0)
	s.state.Store(slotPosted)
}

// applyEntry executes log c's entry at absolute index idx against r — with
// panic containment, so a poisonous op advances localTail like any other —
// and, if the entry originated on r's node with a response slot, delivers
// the outcome (value or error). Callers have already ruled out barrier and
// cross entries (refreshTo stops at them; cross.go applies them).
//
//nr:hotpath-noio
//nr:noalloc
func (i *Instance[O, R]) applyEntry(r *replica[O, R], c int, idx uint64, e entry[O], ring *trace.Ring) {
	res, err := i.safeExecute(r, c, e.op, idx)
	// Per-entry trace events are recorded only for the replay that DELIVERS
	// a response (plus any contained panic): replays happen (replicas-1)
	// extra times per op, always under a replica's write-side lock, so
	// recording each would multiply the serialized cost of every update by
	// the node count. Bulk replay remains visible through the aggregate
	// events (KReaderRefresh, KHelp, KCombineEnd).
	if e.slot >= 0 && e.node == r.id {
		tok := trace.TokenWithLog(c, int(e.node), int(e.slot), e.seq)
		ring.Record(trace.KReplay, int(r.id), idx, tok)
		if err != nil {
			ring.Record(trace.KPanic, int(r.id), idx, tok)
		}
		s := &r.slots[e.slot]
		s.resp, s.err = res, err
		s.state.Store(slotDone)
		ring.Record(trace.KRespond, int(r.id), tok, idx)
	} else if err != nil {
		ring.Record(trace.KPanic, int(r.id), idx, 0)
	}
}

// refreshTo replays filled entries of log c into the replica up to 'to',
// stopping early at a hole — a reader may proceed when it finds an empty
// entry (§5.3) — or at a cross-log barrier/cross entry, whose ticket it
// returns (0 otherwise): the caller must release the replica lock and run
// the cross applier (advanceCrossTo) before replaying further. Caller
// holds (r, c)'s write-side lock.
//
//nr:noalloc
func (i *Instance[O, R]) refreshTo(r *replica[O, R], c int, to uint64, ring *trace.Ring) uint64 {
	lg := &r.logs[c]
	for idx := lg.localTail.Load(); idx < to; idx++ {
		e, ok := i.logs[c].Get(idx)
		if !ok {
			return 0
		}
		if e.kind != entryOp {
			return e.ticket
		}
		i.applyEntry(r, c, idx, e, ring)
		lg.localTail.Store(idx + 1)
	}
	return 0
}

// waitGet fetches log c's entry at idx, recording a hole-wait event (with
// the spin count) when the entry was reserved but not yet filled.
//
//nr:noalloc
func (i *Instance[O, R]) waitGet(node, c int, idx uint64, ring *trace.Ring) entry[O] {
	if ring == nil {
		return i.logs[c].WaitGet(idx)
	}
	e, spins := i.logs[c].WaitGetObserved(idx)
	if spins > 0 {
		ring.Record(trace.KHoleWait, node, idx, uint64(spins))
	}
	return e
}

// combine is Algorithm 1's Combine on conflict class c: post the op, then
// either become the class-c combiner or wait for a response (a value or a
// contained panic).
//
//nr:hotpath-noio
//nr:noalloc
//nr:spin
func (i *Instance[O, R]) combine(h *Handle[O, R], c int, op O) (R, error) {
	r := i.replicas[h.node]
	lg := &r.logs[c]
	s := &r.slots[h.slot]
	s.op = op
	s.seq = h.seq
	s.class.Store(int32(c))
	tp := h.tsHint
	if tp == 0 {
		tp = h.ring.Now()
	}
	h.ring.RecordAt(tp, trace.KSlotPublish, h.node, h.token(), 0)
	s.state.Store(slotPosted)
	for {
		st := s.state.Load()
		if st == slotDone {
			resp, err := s.resp, s.err
			s.state.Store(slotEmpty)
			return resp, err
		}
		if st == slotParallel && s.state.CompareAndSwap(slotParallel, slotParClaimed) {
			// Parallel combining: the combiner reserved our op's log index
			// and handed execution back to us. The combiner still holds the
			// replica write lock, so running against the replica here is as
			// protected as the combiner's own fast path; concurrency with
			// the batch's other ops is the structure's ConcurrentApply
			// contract. A failed CAS means the combiner reclaimed the op
			// (we were scheduled out past parallelClaimWait) — then we wait
			// for slotDone like any combined op.
			idx := s.idx
			tok := h.token()
			h.ring.Record(trace.KExecute, h.node, tok, idx)
			resp, err := i.safeExecute(r, c, op, idx)
			if err != nil {
				h.ring.Record(trace.KPanic, h.node, idx, tok)
			}
			h.ring.Record(trace.KRespond, h.node, tok, idx)
			s.state.Store(slotEmpty)
			// The decrement releases the combiner's round; the slot store
			// above must precede it so the slot is reusable before the
			// combiner unlocks.
			lg.parPending.Add(-1)
			return resp, err
		}
		if lg.combinerLock.TryLock() {
			if s.state.Load() != slotDone {
				i.runCombiner(r, c, int32(h.slot), h.ring)
			}
			lg.combinerLock.Unlock()
			// runCombiner served every posted class-c slot, including ours.
			resp, err := s.resp, s.err
			s.state.Store(slotEmpty)
			return resp, err
		}
		runtime.Gosched()
	}
}

// runCombiner executes one combining round on conflict class c, recording
// its trace events into ring (the combining thread's own ring — combiner
// events land on the combiner's timeline, joined to each op by token).
// self is the calling thread's own slot index on r (parallel combining
// must not hand the combiner's op back to the combiner). The caller holds
// class c's combiner lock.
//
//nr:hotpath-noio
//nr:noalloc
//nr:spin
func (i *Instance[O, R]) runCombiner(r *replica[O, R], c int, self int32, ring *trace.Ring) {
	lg := &r.logs[c]
	o := i.observer
	var began time.Time
	if o != nil {
		o.CombineStart(int(r.id))
		began = time.Now()
	}
	// One clock read covers the round start and the pickups: collection is a
	// single pass over the node's slots, far shorter than the clock
	// resolution that matters here, and the round runs under the combiner
	// lock — every clock read it saves shortens the serialized section.
	t0 := ring.Now()
	ring.RecordAt(t0, trace.KCombineStart, int(r.id), 0, uint64(c))
	// Collect the batch: every posted class-c slot on this node (§5.2),
	// into this log's preallocated scratch buffer (cap = slot count, so
	// append below never allocates). The class is read before the CAS and
	// stable after it: a posted slot's contents are frozen until a combiner
	// transitions it, and only the owner resets it after slotDone.
	batch := lg.scratch[:0]
	collect := func() {
		for idx := range r.slots {
			s := &r.slots[idx]
			if s.state.Load() == slotPosted && s.class.Load() == int32(c) && s.state.CompareAndSwap(slotPosted, slotTaken) {
				batch = append(batch, takenSlot[O, R]{s, int32(idx)}) //nr:allocok scratch cap = slot count

				ring.RecordAt(t0, trace.KPickup, int(r.id), trace.TokenWithLog(c, int(r.id), idx, s.seq), 0)
			}
		}
	}
	collect()
	// Linger phase (the batching policy engine, batch.go): hold the round
	// open for a bounded spin window so concurrently arriving ops join it —
	// k ops in one round share one lock acquisition and one log-tail CAS.
	// The wait is not dead time: the combiner absorbs completed entries
	// into its replica meanwhile (the same freshening the old fixed-retry
	// loop did) and yields on every pass so same-node posters can actually
	// publish — essential on a box with fewer cores than threads.
	firstPass := len(batch)
	var window time.Duration
	if i.batchOn && len(batch) < i.batchTarget {
		if window = i.lingerWindow(lg); window > 0 {
			deadline := time.Now().Add(window)
			for len(batch) < i.batchTarget {
				// Batch-aware freshening: absorbing the backlog costs one
				// replica write-lock acquisition per pass, so take it only
				// once the backlog amortizes it (mirroring the append
				// side's one-CAS batch reservation); the pre-batch replay
				// below catches whatever is left in one acquisition.
				if to := i.logs[c].Completed(); to >= lg.localTail.Load()+lingerRefreshBatch {
					i.refreshOwn(r, c, to, ring)
				}
				runtime.Gosched()
				collect()
				if !time.Now().Before(deadline) {
					break
				}
			}
			t0 = ring.Now() // re-stamp: lingering took real time
			ring.RecordAt(t0, trace.KLinger, int(r.id), uint64(len(batch)-firstPass), uint64(window))
		}
	}
	if len(batch) == 0 {
		if i.batchOn {
			i.adaptAfterRound(lg, 0, i.countPosted(r, c))
		}
		if o != nil {
			i.reportReaderPressure(r, c, o)
			o.CombineEnd(int(r.id), 0, 0, time.Since(began))
		}
		ring.Record(trace.KCombineEnd, int(r.id), 0, 0)
		return
	}
	i.combines.Add(1)
	i.combinedOps.Add(uint64(len(batch)))

	// Append the batch: reserve with one CAS, then fill (§5.1). Entries
	// carry (node, slot) tags so that if a helper replays them into this
	// replica first, the helper delivers the responses.
	start := i.reserveConsuming(r, c, len(batch), ring)
	// One clock read stamps the reservation and the fills: it is taken
	// AFTER reserveConsuming returns, so a slow reservation (log full,
	// helping) still shows as a long pickup→reserve phase.
	t1 := ring.Now()
	ring.RecordAt(t1, trace.KLogReserve, int(r.id), start, uint64(len(batch)))
	// Persist before Fill: the entry's marker store must publish the
	// persister's bookkeeping along with the entry (see Persister).
	// Persisters exist only on single-log instances, where c is 0 and the
	// token is the classic node|slot|seq.
	if p := i.persist; p != nil {
		for k, t := range batch {
			p.Append(start+uint64(k), trace.TokenWithLog(c, int(r.id), int(t.slot), t.s.seq), t.s.op)
		}
	}
	for k, t := range batch {
		// The slot is read before Fill publishes the entry: from then on a
		// replayer that overtakes this round may answer the slot by tag, and
		// its owner may already be writing its next op into it.
		tok := trace.TokenWithLog(c, int(r.id), int(t.slot), t.s.seq)
		i.logs[c].Fill(start+uint64(k), entry[O]{op: t.s.op, node: r.id, slot: t.slot, seq: t.s.seq})
		ring.RecordAt(t1, trace.KLogFill, int(r.id), tok, start+uint64(k))
	}
	end := start + uint64(len(batch))

	lg.rw.Lock()
	// Bring the replica up to date with everything before our batch,
	// waiting out any holes (§5.1). A cross-log barrier before our batch
	// must be applied by the cross applier, which takes every log's write
	// lock — release ours around the call (cross.go's lock order).
	idx := lg.localTail.Load()
	for idx < start {
		e := i.waitGet(int(r.id), c, idx, ring)
		if e.kind != entryOp {
			lg.rw.Unlock()
			i.advanceCrossTo(r, e.ticket, ring)
			lg.rw.Lock() //nr:lockok re-acquire: released two lines up, around the cross applier
			idx = lg.localTail.Load()
			continue
		}
		i.applyEntry(r, c, idx, e, ring)
		idx++
		lg.localTail.Store(idx)
	}
	parallel := 0
	if idx == start {
		// Fast path (the paper's §5.2): apply our ops from the node-local
		// combining slots rather than re-reading the log. safeExecute keeps
		// a panicking op from killing the combiner: the outcome is recorded
		// at the op's log index and delivered like any response.
		lg.localTail.Store(end)
		i.logs[c].AdvanceCompleted(end)
		if i.conc != nil && len(batch) > 1 && i.batchCommutes(batch) {
			// Parallel combining (batch.go): hand the batch back to the
			// parked owners to execute concurrently against the replica.
			parallel = i.parallelApply(r, c, batch, start, self, ring)
		}
		if parallel == 0 {
			for k, t := range batch {
				tok := trace.TokenWithLog(c, int(r.id), int(t.slot), t.s.seq)
				// KExecute is stamped before the op runs and KRespond after
				// delivery, so the execute→respond gap is the op's real duration.
				ring.Record(trace.KExecute, int(r.id), tok, start+uint64(k))
				t.s.resp, t.s.err = i.safeExecute(r, c, t.s.op, start+uint64(k))
				if t.s.err != nil {
					ring.Record(trace.KPanic, int(r.id), start+uint64(k), tok)
				}
				t.s.state.Store(slotDone)
				ring.Record(trace.KRespond, int(r.id), tok, start+uint64(k))
			}
		}
	} else {
		// A helper replayed past our batch start while we were appending;
		// finish through the log — tag delivery answers our batch slots.
		// (Helpers consume barriers before advancing past them, so the
		// entries in [idx, end) are ours alone: plain ops.)
		for ; idx < end; idx++ {
			i.applyEntry(r, c, idx, i.waitGet(int(r.id), c, idx, ring), ring)
			lg.localTail.Store(idx + 1)
		}
		i.logs[c].AdvanceCompleted(end)
	}
	lg.rw.Unlock()
	if i.batchOn {
		i.adaptAfterRound(lg, len(batch), i.countPosted(r, c))
	}
	if o != nil {
		if i.batchOn {
			o.BatchRound(int(r.id), window, len(batch)-firstPass, parallel)
		}
		i.reportReaderPressure(r, c, o)
		o.CombineEnd(int(r.id), len(batch), len(batch), time.Since(began))
	}
	ring.Record(trace.KCombineEnd, int(r.id), uint64(len(batch)), uint64(len(batch)))
}

// reportReaderPressure fires the ReaderPressure hook with log c's read-lock
// acquisitions since the node's previous class-c combining round — the
// combiner-side view of reader traffic the adaptive batching controller
// folds into its linger signals. Caller holds (r, c)'s combiner lock (which
// protects lastReaderAcq) and has already nil-checked o.
//
//nr:noalloc
func (i *Instance[O, R]) reportReaderPressure(r *replica[O, R], c int, o obs.Observer) {
	lg := &r.logs[c]
	acq := lg.rw.ReaderAcquires()
	delta := acq - lg.lastReaderAcq
	lg.lastReaderAcq = acq
	if o != nil && delta > 0 {
		o.ReaderPressure(int(r.id), int(delta))
	}
}

// refreshOwn refreshes (r, c) to 'to', applying any cross-log barriers it
// meets on the way (each barrier costs a release/advance/re-acquire cycle;
// see cross.go).
func (i *Instance[O, R]) refreshOwn(r *replica[O, R], c int, to uint64, ring *trace.Ring) {
	lg := &r.logs[c]
	for {
		lg.rw.Lock()
		blocked := i.refreshTo(r, c, to, ring)
		lg.rw.Unlock()
		if blocked == 0 {
			return
		}
		i.advanceCrossTo(r, blocked, ring)
	}
}

// reserveConsuming reserves n entries of log c on behalf of r. When the
// log is full, simply spinning would deadlock: the recycler needs *every*
// replica's localTail to advance, including replicas on nodes whose threads
// are currently inactive (§6). So a blocked appender (1) drains the log
// into its own replica and (2) helps lagging replicas catch up to
// completedTail — driving the cross applier through any barrier that is
// what actually blocks a lagging replica.
//
//nr:noalloc
//nr:spin
func (i *Instance[O, R]) reserveConsuming(r *replica[O, R], c, n int, ring *trace.Ring) uint64 {
	l := i.logs[c]
	o := i.observer
	reported := false
	for {
		start, casRetries, ok := l.TryReserveObserved(n)
		if o != nil && casRetries > 0 {
			o.LogTailRetry(int(r.id), casRetries)
		}
		if ok {
			return start
		}
		if !reported {
			reported = true // one log-full event per blocked reservation
			ring.Record(trace.KLogFull, int(r.id), l.Tail(), 0)
		}
		// Drain into our own replica so our localTail is not the laggard.
		if to := l.Tail(); to > r.logs[c].localTail.Load() {
			i.refreshOwn(r, c, to, ring)
		}
		// Help other replicas, bounded by completedTail (see package doc).
		to := l.Completed()
		for _, r2 := range i.replicas {
			if r2 == r || r2.logs[c].localTail.Load() >= to {
				continue
			}
			var blocked uint64
			if r2.logs[c].rw.TryLock() {
				before := r2.logs[c].localTail.Load()
				blocked = i.refreshTo(r2, c, to, ring)
				helped := r2.logs[c].localTail.Load() - before
				i.helpedEntries.Add(helped)
				r2.logs[c].rw.Unlock()
				if helped > 0 {
					if o != nil {
						o.Help(int(r2.id), int(helped))
					}
					ring.Record(trace.KHelp, int(r2.id), helped, 0)
				}
			}
			if blocked != 0 {
				// The laggard is parked at a cross-log barrier; apply the
				// cross op for it (with no replica lock held — the cross
				// applier takes every log's lock itself).
				i.advanceCrossTo(r2, blocked, ring)
			}
		}
		runtime.Gosched()
	}
}

// waitReplicaTail waits until (r, c)'s localTail reaches readTail,
// combining with an active class-c combiner when one exists and otherwise
// electing one reader to refresh the replica (§5.3). It reports whether it
// had to wait at all.
//
//nr:noalloc
//nr:spin
func (i *Instance[O, R]) waitReplicaTail(h *Handle[O, R], r *replica[O, R], c int, readTail uint64) (waited bool) {
	lg := &r.logs[c]
	for lg.localTail.Load() < readTail {
		waited = true
		if lg.combinerLock.Locked() {
			// A combiner exists; it will advance the replica (§5.3).
			runtime.Gosched()
			continue
		}
		// No combiner: elect one reader to refresh the replica under the
		// writer lock; the rest wait for localTail to advance.
		if !lg.refresher.TryLock() {
			runtime.Gosched()
			continue
		}
		lg.rw.Lock()
		var blocked uint64
		if before := lg.localTail.Load(); before < readTail {
			i.readerRefreshes.Add(1)
			blocked = i.refreshTo(r, c, readTail, h.ring)
			if o := i.observer; o != nil {
				o.ReaderRefresh(h.node, int(lg.localTail.Load()-before))
			}
			h.ring.Record(trace.KReaderRefresh, h.node, uint64(lg.localTail.Load()-before), 0)
		}
		lg.rw.Unlock()
		lg.refresher.Unlock()
		if blocked != 0 {
			// Parked at a cross-log barrier: apply the cross op (the
			// applier takes every log's lock, so ours had to go first).
			i.advanceCrossTo(r, blocked, h.ring)
		}
	}
	return waited
}

// readOnlyVia is Algorithm 1's ReadOnly (§5.3) on conflict class c: wait
// until the local replica reflects class c's completedTail as of the start
// of the read, then run the operation locally under that class's read-side
// lock — reads never wait on logs their class does not touch. With fake
// set, the operation is attempted through the structure's
// FakeUpdater.TryReadOnly instead of Execute (§6), and done reports whether
// that resolved it. The body avoids closures so the read hot path does not
// allocate.
//
//nr:hotpath-noio
//nr:noalloc
//nr:spin
func (i *Instance[O, R]) readOnlyVia(h *Handle[O, R], c int, op O, fake bool) (R, bool, error) {
	r := i.replicas[h.node]
	lg := &r.logs[c]
	tok := h.token()
	readTail := i.logs[c].Completed()
	t0 := h.tsHint
	if t0 == 0 {
		t0 = h.ring.Now()
	}
	h.ring.RecordAt(t0, trace.KTailRead, h.node, tok, readTail)
	waited := i.waitReplicaTail(h, r, c, readTail)
	if h.ring != nil {
		spins := lg.rw.RLockObserved(h.slot)
		// Uncontended reads acquired the lock nanoseconds after t0: reuse
		// the clock read. Only a read that actually waited (for the tail or
		// for the lock) pays a second one for a faithful rlock timestamp.
		t1 := t0
		if waited || spins > 0 {
			t1 = h.ring.Now()
		}
		h.ring.RecordAt(t1, trace.KRLock, h.node, tok, uint64(spins))
	} else {
		lg.rw.RLock(h.slot)
	}
	resp, done, err := i.safeRead(r, op, fake)
	lg.rw.RUnlock(h.slot)
	return resp, done, err
}

// stats builds the counter slice of the Metrics snapshot.
func (i *Instance[O, R]) stats() Stats {
	var racquires, wacquires uint64
	for _, r := range i.replicas {
		for c := range r.logs {
			racquires += r.logs[c].rw.ReaderAcquires()
			wacquires += r.logs[c].rw.WriterAcquires()
		}
	}
	return Stats{
		Combines:        i.combines.Load(),
		CombinedOps:     i.combinedOps.Load(),
		ReaderRefreshes: i.readerRefreshes.Load(),
		HelpedEntries:   i.helpedEntries.Load(),
		ReadOps:         i.readOps.Load(),
		UpdateOps:       i.updateOps.Load(),
		ParallelOps:     i.parallelOps.Load(),
		CrossOps:        i.crossOps.Load(),
		ReaderAcquires:  racquires,
		WriterAcquires:  wacquires,
		Panics:          i.panics.Load(),
		Stalls:          i.stalls.Load(),
	}
}

// Replicas returns the number of per-node replicas.
func (i *Instance[O, R]) Replicas() int { return len(i.replicas) }

// Logs returns the number of shared logs (conflict classes).
func (i *Instance[O, R]) Logs() int { return len(i.logs) }

// TraceRecorder returns the attached flight recorder, nil when tracing is
// disabled.
func (i *Instance[O, R]) TraceRecorder() *trace.Recorder { return i.rec }

// TraceSnapshot returns a point-in-time copy of the flight recorder's
// contents (the zero Snapshot when tracing is disabled). It is safe
// concurrently with operations and with Close.
func (i *Instance[O, R]) TraceSnapshot() trace.Snapshot { return i.rec.Snapshot() }

// LogTail exposes log 0's tail for tests and monitoring (single-log
// instances have only log 0; see Metrics for the per-log gauges).
func (i *Instance[O, R]) LogTail() uint64 { return i.logs[0].Tail() }

// LogMemoryBytes returns the shared logs' combined memory footprint.
func (i *Instance[O, R]) LogMemoryBytes() uint64 {
	var total uint64
	for _, l := range i.logs {
		total += l.MemoryBytes()
	}
	return total
}

// Sizer is optionally implemented by sequential structures that can report
// their memory footprint; MemoryBytes sums it across replicas.
type Sizer interface {
	MemoryBytes() uint64
}

// MemoryBytes returns log bytes plus the sum of replica footprints for
// structures implementing Sizer (used for the paper's memory tables).
func (i *Instance[O, R]) MemoryBytes() uint64 {
	total := i.LogMemoryBytes()
	for _, r := range i.replicas {
		if s, ok := r.ds.(Sizer); ok {
			total += s.MemoryBytes()
		}
	}
	return total
}

// quiesceReplica brings one replica up to date with every log's completed
// tail, applying cross-log barriers as it meets them.
func (i *Instance[O, R]) quiesceReplica(r *replica[O, R]) {
	for c := range i.logs {
		to := i.logs[c].Completed()
		for {
			lg := &r.logs[c]
			var blocked uint64
			lg.rw.Lock()
			for idx := lg.localTail.Load(); idx < to; idx++ {
				e := i.logs[c].WaitGet(idx)
				if e.kind != entryOp {
					blocked = e.ticket
					break
				}
				i.applyEntry(r, c, idx, e, nil)
				lg.localTail.Store(idx + 1)
			}
			lg.rw.Unlock()
			if blocked == 0 {
				break
			}
			i.advanceCrossTo(r, blocked, nil)
		}
	}
}

// Quiesce brings every replica up to date with all completed operations on
// every log. It is a testing/maintenance aid (e.g. before inspecting
// replicas); the algorithm itself never needs it.
func (i *Instance[O, R]) Quiesce() {
	for _, r := range i.replicas {
		i.quiesceReplica(r)
	}
}

// CheckpointReplica quiesces node's replica to the completed tail, then
// runs fn with every log's write lock held, passing the replica's applied
// index on log 0: every log-0 entry with index < applied is reflected in
// ds, none at or beyond it. The persistence layer snapshots through this —
// the applied index is the snapshot's replay resumption point. (Persistence
// is single-log, so log 0's index is the whole story there.)
func (i *Instance[O, R]) CheckpointReplica(node int, fn func(ds Sequential[O, R], applied uint64)) {
	r := i.replicas[node]
	i.quiesceReplica(r)
	for c := range i.logs {
		r.logs[c].rw.Lock() //nr:lockok index order across one replica's logs
	}
	fn(r.ds, r.logs[0].localTail.Load())
	for c := len(i.logs) - 1; c >= 0; c-- {
		r.logs[c].rw.Unlock()
	}
}

// InspectReplica runs fn against node's replica with every log's write
// lock held, after quiescing that replica. Tests use it to compare replica
// states.
func (i *Instance[O, R]) InspectReplica(node int, fn func(ds Sequential[O, R])) {
	r := i.replicas[node]
	i.quiesceReplica(r)
	for c := range i.logs {
		r.logs[c].rw.Lock() //nr:lockok index order across one replica's logs
	}
	fn(r.ds)
	for c := len(i.logs) - 1; c >= 0; c-- {
		r.logs[c].rw.Unlock()
	}
}
