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
//   - Response tags. Log entries' tags carry (node, slot) so that whichever
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
	// Execute applies op. It is the black-box boundary: the structure
	// behind it is user code, so its "must not block" obligation is the
	// contract above, which no test of NR's own can check.
	Execute(op O) R
	IsReadOnly(op O) bool
}

// CrossLog is the LogMapper sentinel for operations that touch more than
// one conflict class: they serialize through log 0 behind a ticket barrier
// appended to every other log (cross.go), so every replica applies them at
// the same point relative to each class's history.
const CrossLog = -1

// maxLogs bounds Options.Logs and maxNodes the topology's nodes: the op
// token reserves 6 bits for the log index and 10 for the node
// (trace.TokenWithLog), and delivery trusts the node bits of a log entry's
// tag.
const (
	maxLogs  = 64
	maxNodes = 1 << 10
)

// Options configures an NR instance.
type Options struct {
	// Topology describes the simulated NUMA machine. Zero value means the
	// Intel testbed of the paper (4×14×2).
	Topology topology.Topology

	// LogEntries sets the shared log size — per log, when Logs > 1. The
	// paper fixes 1M entries (§7); the default here is 64K, which the
	// paper's sizing argument (§5.6) equally satisfies for our batch sizes.
	// A smaller log is a measured trade, not a free saving: at 16K entries
	// the benchmark's lib-mixed heap fell from 10.2 to 5.45 MB, but
	// lib-durable lost 11 % of its ops/s, an all-update variant about 10 %,
	// and set-up ran 14 % longer on more GC cycles (ROADMAP item 8).
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

	// Observer receives the protocol events that carry a time or a size
	// (combine rounds, log-tail contention, writer waits, per-op latency).
	// Round and contention events fire for every occurrence; OpDone fires
	// for sampled ops only (trace.Sampled, plus pprof-labelled and
	// cross-class ops). Every event is also counted exactly once in Stats,
	// whatever is attached. Hooks fire from hot paths: the observer
	// must be concurrency-safe and non-blocking. nil means obs.Nop; with
	// nothing but Nop attached, no clock is read for the observer.
	Observer obs.Observer

	// Trace, when non-nil, attaches the flight recorder: every handle and
	// background goroutine gets a per-thread ring and records causal
	// protocol milestones (slot publish, combiner pickup, log fill, replay,
	// respond, ...) tagged with an operation token, so individual op
	// lifecycles can be reconstructed after the fact — for the sampled ops
	// (the same ones OpDone reports); round and rare events for all. This is a separate
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
		fn(idx, e.token(0), e.op)
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
	TailRetries     uint64 `json:"tail_retries"`     // log-tail reservation CAS attempts lost to another reserver
	WriterWaits     uint64 `json:"writer_waits"`     // replica write-lock acquisitions that spun on reader flags
	Panics          uint64 `json:"panics"`           // user Execute panics contained (see failure.go)
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

// entry kinds, stored in the six log-index bits of an entry's tag (an
// entry's log index is the log it sits in, so the bits are free). entryOp is
// a normal operation; entryCross (log 0 only) carries a multi-class
// operation; entryBarrier (logs 1..M-1) carries nothing and marks the point
// in that log's history where the next cross operation must be applied
// (cross.go). Neither cross kind stores its ticket: a replica meets its
// cross entries and barriers in ticket order, so the one it meets next is
// always its crossDone+1.
const (
	entryOp uint64 = iota
	entryCross
	entryBarrier
)

// tagKindShift places an entry's kind in the log-index bits of its tag
// (trace.TokenWithLog's layout).
const tagKindShift = 58

// entry is what NR stores in the shared log: the operation plus one tag
// word. The tag is the op token (node, slot, seq in trace.TokenWithLog's
// layout) with the entry's kind in the log-index bits. node and slot are the
// response tag under which whichever thread replays the entry into its home
// replica answers the waiting thread (see "Response tags" in the package
// doc); seq completes the token so a remote replayer's trace events join the
// originating op's span. The tag is published by the log's marker store like
// the op.
type entry[O any] struct {
	op  O
	tag uint64
}

// opTag is the tag of an entry of kind k submitted through (node, slot) as
// the handle's seq-th op.
func opTag(k uint64, node, slot int, seq uint32) uint64 {
	return k<<tagKindShift | trace.Token(node, slot, seq)
}

// kind returns the entry's kind (entryOp, entryCross or entryBarrier).
func (e entry[O]) kind() uint64 { return e.tag >> tagKindShift }

// token returns the op token of the entry as it sits in log c: its tag with
// c in place of the kind.
func (e entry[O]) token(c int) uint64 {
	return e.tag&(1<<tagKindShift-1) | uint64(c)<<tagKindShift
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
// The locks below — combiner (combinerLock), refresher and replicaWriter
// (rw) — plus the cross-apply lock (replica.crossApply) follow one
// system-wide acquisition order, combiner < crossApply < replicaWriter and
// refresher < replicaWriter, on which NR's deadlock-freedom argument
// (§5.3/§5.5) rests. Every replicaLog instance's combiner lock is one class
// ("combiner[i] instances are one class"): no path nests two combiner
// locks, of the same or different logs.
//
// A combiner holds combiner while taking replicaWriter to replay (and takes
// nothing for durability: the WAL follows the log on its own goroutine, see
// Follower); an elected refreshing reader holds refresher while taking
// replicaWriter; the cross applier holds crossApply while taking every
// log's replicaWriter in index order, and is only ever invoked with no
// replicaWriter held. Nothing acquires in the other direction — readers
// that find the combiner lock busy help via TryLock instead of waiting,
// which is why a TryLock cannot invert the order. A path that breaks it
// deadlocks, and the tests that reach each such path run under
// waittest.Deadline (DESIGN.md §10).
//
// A whole line of padding on either side keeps one replica's replicaLogs
// off the lines of its heap neighbours, which may be another node's.
type replicaLog[O, R any] struct {
	_            [64]byte
	localTail    *atomic.Uint64
	combinerLock rwlock.SpinMutex
	// refresher elects a single reader to bring the replica up to date when
	// no combiner is active, so stale readers don't convoy on the writer
	// lock (an engineering refinement over Algorithm 1, which lets every
	// stale reader acquire the writer lock in turn).
	refresher rwlock.SpinMutex
	rw        *rwlock.Distributed
	// scratch is the combiner's batch buffer, reused across rounds so a
	// combining round never allocates. Only the combiner-lock holder
	// touches it.
	scratch []takenSlot[O, R]
	_       [64]byte
}

// opCounters is one node's share of the Stats counters, bumped only by
// threads running on that node (and, on the slow paths, by a helper writing
// the node's replica), so counting an op costs no cross-node cache-line
// transfer: the log-tail CAS stays the update path's only one (§5.1) and a
// read touches node-local memory only (§5.3). Stats sums the nodes. It
// fills one cache line (TestReplicaCountersLayout).
type opCounters struct {
	readOps         atomic.Uint64
	updateOps       atomic.Uint64
	combines        atomic.Uint64
	combinedOps     atomic.Uint64
	readerRefreshes atomic.Uint64
	helpedEntries   atomic.Uint64
	tailRetries     atomic.Uint64
	writerWaits     atomic.Uint64
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
	// write lock. crossDone is the last ticket applied here.
	crossApply rwlock.SpinMutex
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
	// observer is opts.Observer, obs.Nop when none was given: never nil.
	// observed is set when it is anything but Nop, and is what the
	// clock-reading sites (TryExecute, runCombiner, endRound) test.
	observer obs.Observer
	observed bool
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
	// afterHelpUnlock, when set (tests only), runs each time helpLaggards
	// releases a helped replica's write lock, before it runs that replica's
	// cross applier.
	afterHelpUnlock func()

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

	// Failure containment state (failure.go).
	tracker      panicTracker
	poisoned     atomic.Bool
	poisonMu     sync.Mutex
	poisonReason string
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
	if n := opts.Topology.Nodes(); n > maxNodes {
		return nil, fmt.Errorf("core: %d nodes overflow the token's 10-bit node field (at most %d)", n, maxNodes)
	}
	maxBatch := opts.Topology.ThreadsPerNode()
	if maxBatch > 1<<16 {
		return nil, fmt.Errorf("core: %d slots per node overflow the token's 16-bit slot field", maxBatch)
	}
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
		rec:      opts.Trace,
		place:    topology.NewFillPlacement(opts.Topology),
		crossIdx: make([]uint64, m),
	}
	switch opts.Observer.(type) {
	case nil, obs.Nop:
		inst.observer = obs.Nop{}
	default:
		inst.observer, inst.observed = opts.Observer, true
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
			lg.rw.SetWriterWaitHook(func(spins int) {
				r.counters.writerWaits.Add(1)
				inst.observer.WriterWait(int(r.id), spins)
			})
		}
		inst.replicas = append(inst.replicas, r)
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

// Handle binds a goroutine ("thread") to a node, a combiner slot, and a
// reader-lock slot. A Handle must not be used concurrently.
type Handle[O, R any] struct {
	inst   *Instance[O, R]
	node   int
	slot   int
	thread int
	// ring is this handle's flight-recorder ring (nil when tracing is off);
	// seq counts this handle's operations and completes the op token
	// trace.TokenWithLog(cls, node, slot, seq). Both are single-goroutine state,
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
	// tsHint is the trace.Now reading of the current op's start when the op
	// is sampled and instrumented, else 0. The submitter's trace sites at
	// the top of the op (tail-read, rlock, slot-publish) stamp with it and
	// record nothing when it is 0. Single-goroutine, like seq.
	tsHint int64
}

// token returns the handle's current op token.
func (h *Handle[O, R]) token() uint64 {
	return trace.TokenWithLog(h.cls, h.node, h.slot, h.seq)
}

// LastToken returns the op token (log|node|slot|seq) of the most recent
// operation submitted through this handle — the identity under which the
// flight recorder traces it and the persistence layer records it. Valid
// after TryExecute/Execute returns; zero before the handle's first
// operation.
func (h *Handle[O, R]) LastToken() uint64 { return h.token() }

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

// stats builds the counter slice of the Metrics snapshot.
func (i *Instance[O, R]) stats() Stats {
	st := Stats{
		CrossOps: i.crossOps.Load(),
		Panics:   i.panics.Load(),
	}
	for _, r := range i.replicas {
		st.Combines += r.counters.combines.Load()
		st.CombinedOps += r.counters.combinedOps.Load()
		st.ReaderRefreshes += r.counters.readerRefreshes.Load()
		st.HelpedEntries += r.counters.helpedEntries.Load()
		st.TailRetries += r.counters.tailRetries.Load()
		st.WriterWaits += r.counters.writerWaits.Load()
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
// concurrently with operations.
func (i *Instance[O, R]) TraceSnapshot() trace.Snapshot { return i.rec.Snapshot() }

// LogTail exposes log 0's tail for tests and monitoring (single-log
// instances have only log 0; see Metrics for the per-log gauges).
func (i *Instance[O, R]) LogTail() uint64 { return i.logs[0].Tail() }

// MemoryBytes returns the shared logs' combined footprint: one cell per
// entry. Replicas are not counted; the paper's memory tables
// (internal/bench) measure the heap instead, replicas included.
func (i *Instance[O, R]) MemoryBytes() uint64 {
	var total uint64
	for _, l := range i.logs {
		total += l.MemoryBytes()
	}
	return total
}
