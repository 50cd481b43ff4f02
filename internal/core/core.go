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
	"errors"
	"fmt"
	"math"
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
}

// Follower is one more consumer of the shared log, beside the replicas: a
// tail registered with the log (so entry recycling waits for it exactly as
// it waits for a replica) that one goroutine advances by reading filled
// entries in index order. The persistence layer follows the log this way:
// the log already totally orders every update, so durability reads it
// instead of being pushed into from the combiner, and nothing runs for it
// between a combiner's reserve and Fill. A follower that falls a whole log
// behind blocks appenders (they kick it and yield; see reserveConsuming) —
// that is the durable path's backpressure. Followers are a single-log
// facility (per-log WALs would need per-log recovery generations, ROADMAP
// item 5).
type Follower[O any] struct {
	log  *log.Log[entry[O]]
	tail *atomic.Uint64
	wake chan struct{}
}

// Follow registers the instance's follower. It must be called before any
// operation executes (the log cannot grow a tail once entries are being
// recycled) and at most once; multi-log instances are refused.
func (i *Instance[O, R]) Follow() (*Follower[O], error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if len(i.logs) > 1 {
		return nil, errors.New("core: Follow on a multi-log instance (persistence requires Logs == 1; per-log WALs lack cross-log recovery generations)")
	}
	if i.logs[0].Tail() != 0 || i.follower != nil {
		return nil, errors.New("core: Follow after operations have executed or a second time")
	}
	i.follower = &Follower[O]{log: i.logs[0], tail: i.logs[0].RegisterReplica(), wake: make(chan struct{}, 1)}
	return i.follower, nil
}

// Drain calls fn for every filled entry from the follower's position on, in
// index order, with the op's token (node|slot|seq, what Handle.LastToken
// returned to its submitter), and stops at the first entry not yet filled:
// a combiner preempted between reserve and Fill delays the follower, never
// the other way round. The entry may be recycled once fn returns. Only the
// follower's one goroutine may call Drain.
func (f *Follower[O]) Drain(fn func(idx, token uint64, op O)) {
	for idx := f.tail.Load(); ; idx++ {
		e, ok := f.log.Get(idx)
		if !ok {
			return
		}
		fn(idx, trace.TokenWithLog(0, int(e.node), int(e.slot), e.seq), e.op)
		f.tail.Store(idx + 1)
	}
}

// Pos returns the follower's position: every entry below it has been
// through Drain's fn.
func (f *Follower[O]) Pos() uint64 { return f.tail.Load() }

// LogTail returns the log's tail, the position a barrier taken now must
// wait for the follower to reach.
func (f *Follower[O]) LogTail() uint64 { return f.log.Tail() }

// Wake is signalled by Kick; the follower's goroutine selects on it beside
// its own timer.
func (f *Follower[O]) Wake() <-chan struct{} { return f.wake }

// Kick wakes the follower without blocking: barriers call it, and an
// appender that finds the log full — it cannot help this tail by replaying,
// only yield to it.
func (f *Follower[O]) Kick() {
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

// Detach takes the follower's tail out of the recycling minimum, for good:
// the instance stays usable in memory after its persistence is closed.
func (f *Follower[O]) Detach() { f.tail.Store(math.MaxUint64) }

// Stats counts internal events.
// It is one slice of the richer Metrics snapshot (metrics.go).
type Stats struct {
	Combines        uint64 `json:"combines"`         // combining rounds executed
	CombinedOps     uint64 `json:"combined_ops"`     // update ops appended via combining
	ReaderRefreshes uint64 `json:"reader_refreshes"` // reads that refreshed the replica themselves
	HelpedEntries   uint64 `json:"helped_entries"`   // log entries applied to other nodes' replicas
	ReadOps         uint64 `json:"read_ops"`         // read-only ops executed
	UpdateOps       uint64 `json:"update_ops"`       // update ops executed
	CrossOps        uint64 `json:"cross_ops"`        // multi-class ops serialized through the cross-log barrier
	ReaderAcquires  uint64 `json:"reader_acquires"`  // read-lock acquisitions across all replicas (rwlock per-slot counters)
	WriterAcquires  uint64 `json:"writer_acquires"`  // write-lock acquisitions across all replica locks
	Panics          uint64 `json:"panics"`           // user Execute panics contained (see failure.go)
	Stalls          uint64 `json:"stalls"`           // combiner stalls flagged by the watchdog
}

// slot state machine values: the owner posts (slotEmpty → slotPosted), a
// combiner collects (→ slotTaken) and answers (→ slotDone), the owner reads
// the response and resets the slot.
const (
	slotEmpty uint32 = iota
	slotPosted
	slotTaken
	slotDone
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
	// its cache line (pinned by TestSlotLayout).
	state atomic.Uint32
	_     [52]byte
	resp  R
	err   error
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
// (replica.crossApply), form the system-wide acquisition order that makes
// NR's deadlock-freedom argument (§5.3/§5.5) machine-checkable. Every
// replicaLog instance's combiner lock is one class ("combiner[i] instances
// are one class"): no path nests two combiner locks, of the same or
// different logs.
//
// A combiner holds combiner while taking replicaWriter to replay (and takes
// nothing for durability: the WAL follows the log on its own goroutine, see
// Follower); an elected refreshing reader holds refresher while taking
// replicaWriter; the cross applier holds crossApply while taking every
// log's replicaWriter in index order, and is only ever invoked with no
// replicaWriter held. Nothing acquires in the other direction — readers
// that find the combiner lock busy help via TryLock instead of waiting,
// which is why TryLock sites are exempt from inversion checking.
//
//nr:lockorder combiner < crossApply < replicaWriter
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
}

// opCounters is one node's share of the Stats counters, bumped only by
// threads running on that node (and by the watchdog's rare helping pass), so
// counting an op costs no cross-node cache-line transfer: the log-tail CAS
// stays the update path's only one (§5.1) and a read touches node-local
// memory only (§5.3). Stats sums the nodes. It fills one cache line
// (TestReplicaCountersLayout).
type opCounters struct {
	readOps         atomic.Uint64
	updateOps       atomic.Uint64
	combines        atomic.Uint64
	combinedOps     atomic.Uint64
	readerRefreshes atomic.Uint64
	helpedEntries   atomic.Uint64
	_               [16]byte
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

	// A whole line of padding on either side keeps the counters off the
	// lines of the fields above, which every node reads, wherever the
	// allocator puts the struct.
	_        [64]byte
	counters opCounters
	_        [64]byte
}

// Instance is a concurrent, NUMA-aware version of a sequential structure.
type Instance[O, R any] struct {
	opts Options
	logs []*log.Log[entry[O]]
	// mapper maps an op to its conflict class; nil on single-log instances
	// (class 0 for everything).
	mapper   func(O) int
	replicas []*replica[O, R]
	// observer mirrors opts.Observer for the hot paths' nil check.
	observer obs.Observer
	// rec mirrors opts.Trace (nil = flight recorder off).
	rec *trace.Recorder
	// follower, when non-nil, is the log tail persistence reads through
	// (see Follow). The update path touches it only to kick it when the log
	// is full.
	follower *Follower[O]
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

	// Per-op counters live in each replica (opCounters); these count rare
	// events.
	crossOps atomic.Uint64
	panics   atomic.Uint64
	stalls   atomic.Uint64

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
		crossIdx: make([]uint64, m),
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

// stats builds the counter slice of the Metrics snapshot.
func (i *Instance[O, R]) stats() Stats {
	st := Stats{
		CrossOps: i.crossOps.Load(),
		Panics:   i.panics.Load(),
		Stalls:   i.stalls.Load(),
	}
	for _, r := range i.replicas {
		st.Combines += r.counters.combines.Load()
		st.CombinedOps += r.counters.combinedOps.Load()
		st.ReaderRefreshes += r.counters.readerRefreshes.Load()
		st.HelpedEntries += r.counters.helpedEntries.Load()
		st.ReadOps += r.counters.readOps.Load()
		st.UpdateOps += r.counters.updateOps.Load()
		for c := range r.logs {
			st.ReaderAcquires += r.logs[c].rw.ReaderAcquires()
			st.WriterAcquires += r.logs[c].rw.WriterAcquires()
		}
	}
	return st
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
