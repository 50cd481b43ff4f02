// Package nr is Node Replication: a black-box transformation that turns any
// sequential data structure into a linearizable, NUMA-aware concurrent one,
// after "Black-box Concurrent Data Structures for NUMA Architectures"
// (Calciu, Sen, Balakrishnan, Aguilera — ASPLOS 2017).
//
// Provide a sequential implementation satisfying Sequential — Execute must
// be deterministic, non-blocking, and side-effect-free outside the
// structure; IsReadOnly must be a pure function of the operation — and nr
// replicates it across the NUMA nodes of a (software) topology, routing
// updates through a NUMA-aware shared log with per-node flat combining and
// serving reads from the local replica:
//
//	inst, err := nr.New(func() nr.Sequential[Op, Resp] { return newThing() })
//	h, err := inst.Register()      // bind this goroutine to a node
//	resp := h.Execute(op)          // linearizable, concurrent
//
// New takes functional options. With none it simulates the paper's testbed:
// 4 NUMA nodes × 14 cores × 2 hyperthreads. Go cannot pin OS threads to
// NUMA nodes, so the topology is a software construct: it decides which
// replica, combining slot, and reader lock each registered goroutine uses,
// exactly as hardware placement does in the paper's C++ implementation.
//
//	inst, err := nr.New(create,
//	    nr.WithNodes(2, 4, 1),        // 2 nodes × 4 cores, no SMT
//	    nr.WithLogEntries(1<<20),     // the paper's 1M-entry log
//	    nr.WithMetrics(),             // built-in latency/batch metrics
//	)
//	m := inst.Metrics()               // unified observability snapshot
package nr

import (
	"errors"
	"fmt"
	"time"

	"github.com/asplos17/nr/internal/core"
	"github.com/asplos17/nr/internal/obs"
	"github.com/asplos17/nr/internal/topology"
	"github.com/asplos17/nr/internal/trace"
)

// Sequential is the black-box contract (§4 of the paper): Create is the
// constructor you pass to New, Execute applies an operation, IsReadOnly
// classifies it.
type Sequential[O, R any] interface {
	Execute(op O) R       //nr:opaque black-box boundary (user structure)
	IsReadOnly(op O) bool //nr:opaque
}

// Option configures New. Options are applied in order; later options win.
type Option func(*settings)

// settings accumulates option state before it is lowered to core.Options.
type settings struct {
	// nodes, coresPerNode, smt describe the software NUMA topology; with
	// nodes zero they default as a group to the paper's Intel testbed,
	// 4×14×2.
	nodes, coresPerNode, smt int
	logEntries               int
	dedicatedCombiners       bool
	stallThreshold           time.Duration

	logs          int
	mapper        any // func(O) int, type-checked by core.New
	observers     []obs.Observer
	metrics       bool
	trace         *trace.Recorder
	persist       *persistConfig
	persistTuning []PersistOption
	telemetry     *telemetryConfig
}

// CrossLog is the LogMapper sentinel for operations that touch more than one
// conflict class. Inside one instance such operations serialize through log
// 0 behind a ticket barrier appended to every other log, so all replicas
// apply them at the same point relative to every class's history (DESIGN.md
// §16). Across the shards of NewSharded there is no such barrier: Execute
// refuses them and Handle.ExecuteAll is the cross-class call.
const CrossLog = core.CrossLog

// LogMapper is the one commutativity contract: it assigns every operation a
// conflict class in [0, m), or CrossLog for operations spanning classes.
// WithLogs gives each class its own log inside one instance; NewSharded
// gives each class its own private replicas. The contract, on which
// linearizability rests:
//
//   - LogIndex must be a pure function of the operation and stable for the
//     instance's lifetime (every replica must agree on each op's class; the
//     class is where the operation's state lives).
//   - Operations mapped to different classes must commute: executing them in
//     either order yields the same structure state and the same responses.
//   - Under WithLogs the sequential structure must tolerate operations of
//     different classes being applied to one replica concurrently and in
//     different interleavings than another replica saw (which commutativity
//     makes semantically invisible).
//   - LogIndex must be safe for concurrent use.
//
// A class outside [0, m) is not trusted: both engines fold it into range as
// ((c % m) + m) % m, which keeps a pure mapper pure.
//
// CheckMapperCommutes probes a mapper against its structure; the multi-log
// fuzz tests in this repo show the pattern. Partitioned structures (one
// sub-structure per class, class = hash(key) mod m, see KeyMapper) satisfy
// the contract by construction.
type LogMapper[O any] interface {
	LogIndex(op O) int
}

// LogMapperFunc adapts a plain function to the LogMapper interface.
type LogMapperFunc[O any] func(O) int

// LogIndex implements LogMapper.
func (f LogMapperFunc[O]) LogIndex(op O) int { return f(op) }

// WithLogs partitions the instance across m shared logs (multi-log NR,
// DESIGN.md §16): mapper assigns every operation a conflict class, each
// class gets its own log with independent per-node combining and replay,
// and a reader waits only on the log its class maps to — update throughput
// inside one linearizable instance scales with the number of classes that
// are actually contended. m = 1 (mapper ignored, may be nil) is exactly the
// classic single-log instance.
//
// WithLogs is a generic function, so it cannot be inferred from New's
// create argument; instantiate it with the operation type:
//
//	inst, err := nr.New(create, nr.WithLogs[Op](4, nr.LogMapperFunc[Op](classOf)))
//
// Multi-log instances reject persistence (per-log WALs need a cross-log
// recovery barrier, ROADMAP item 5) and require a non-nil mapper.
func WithLogs[O any](m int, mapper LogMapper[O]) Option {
	return func(s *settings) {
		s.logs = m
		if mapper == nil {
			s.mapper = nil
			return
		}
		s.mapper = func(op O) int { return mapper.LogIndex(op) }
	}
}

// WithNodes sets the software NUMA topology: nodes × coresPerNode × smt
// hardware threads. Zero coresPerNode or smt default to 1.
func WithNodes(nodes, coresPerNode, smt int) Option {
	return func(s *settings) {
		s.nodes, s.coresPerNode, s.smt = nodes, coresPerNode, smt
	}
}

// WithLogEntries sizes the shared circular log (default 64K entries).
func WithLogEntries(n int) Option {
	return func(s *settings) { s.logEntries = n }
}

// WithDedicatedCombiners starts one background goroutine per node that
// keeps that node's replica fresh even when its threads are idle (§4, §6).
// Instances built with it must be Closed; after Close, Register returns a
// sticky ErrClosed (a fresh handle's node might never drain again).
func WithDedicatedCombiners() Option {
	return func(s *settings) { s.dedicatedCombiners = true }
}

// WithStallThreshold starts a watchdog that flags combiners holding their
// lock longer than d (§6's stalled-thread hazard), surfacing them via
// Metrics/Health while the helping path keeps the log draining. Instances
// built with it must be Closed.
func WithStallThreshold(d time.Duration) Option {
	return func(s *settings) { s.stallThreshold = d }
}

// WithObserver attaches an event observer to the instance: it receives
// combine-round, reader-refresh, helping, log-contention, stall, panic, and
// per-operation-latency events from inside the protocol. The observer must
// be concurrency-safe and non-blocking; events carry only scalars, so a
// hook never allocates. Repeated WithObserver (and WithMetrics) compose:
// every observer receives every event.
func WithObserver(o Observer) Option {
	return func(s *settings) {
		if o != nil {
			s.observers = append(s.observers, o)
		}
	}
}

// WithMetrics attaches the built-in metrics observer: per-node latency
// histograms split by operation class, combiner batch-size distributions,
// and counters for every protocol event, all folded into the snapshot
// Instance.Metrics returns (its Observed field is non-nil exactly when the
// instance was built with WithMetrics).
func WithMetrics() Option {
	return func(s *settings) { s.metrics = true }
}

// Stats mirrors core.Stats: counters describing internal behaviour. It is
// the Stats slice of the Metrics snapshot.
type Stats = core.Stats

// Health mirrors core.Health: a point-in-time failure-state report. It is
// the Health slice of the Metrics snapshot.
type Health = core.Health

// Metrics is the unified observability snapshot: Stats counters, Health
// failure state, live log/replica gauges, and — with WithMetrics — the
// event-derived latency histograms and batch-size distributions.
type Metrics = core.Metrics

// Observer receives protocol events; see WithObserver. Embed NopObserver
// to implement only the events you care about.
type Observer = obs.Observer

// NopObserver ignores every event; embed it in partial observers.
type NopObserver = obs.Nop

// OpClass classifies a completed operation (read vs update) in OpDone
// events and latency metrics.
type OpClass = obs.OpClass

// Operation classes reported to Observer.OpDone.
const (
	OpRead   = obs.OpRead
	OpUpdate = obs.OpUpdate
)

// ObservedMetrics is the event-derived part of a Metrics snapshot
// (Metrics.Observed), present when the instance was built WithMetrics.
type ObservedMetrics = obs.Snapshot

// PanicError is the error TryExecute returns when the operation's
// Sequential.Execute panicked; Execute re-raises it as a panic on the
// submitting goroutine. Value holds the original panic value.
type PanicError = core.PanicError

// ErrPoisoned is reported (via errors.Is) once replicas have been observed
// to diverge — Execute panicked on some replicas but not others, violating
// the §4 determinism contract. The state is sticky; see DESIGN.md's
// "Failure model".
var ErrPoisoned = core.ErrPoisoned

// ErrClosed is reported (via errors.Is) by Register and RegisterOnNode
// after Close on an instance built with dedicated combiners; see
// WithDedicatedCombiners.
var ErrClosed = core.ErrClosed

// Instance is a replicated, linearizable version of a sequential structure:
// one shard (one set of per-node replicas over one set of logs) from New,
// several from NewSharded.
type Instance[O, R any] struct {
	inner  *core.Instance[O, R]   // shards[0]: the whole instance unless built by NewSharded
	shards []*core.Instance[O, R] // every shard's private replica set, in class order
	mapper LogMapper[O]           // op → shard; nil with one shard
	pst    *persistence[O]        // nil unless built with WithPersistence/Recover
	tel    *Telemetry             // nil unless built with WithTelemetry/WithSLO
}

// Handle executes operations on behalf of one registered goroutine. It is
// not safe for concurrent use; register one handle per goroutine.
type Handle[O, R any] struct {
	// inner is the core handle operations run on: the only one there is on a
	// one-shard instance, otherwise the handle of the shard the most recent
	// operation went to (so Node and LastToken need no sharded variant).
	inner  *core.Handle[O, R]
	hs     []*core.Handle[O, R] // one per shard, all on the same node
	mapper LogMapper[O]
}

// lower converts the accumulated settings into one core.Options value. It
// is called once per core instance built — S times for a sharded instance —
// so every call hands out a fresh obs.Metrics observer (per-shard latency
// histograms must not share buckets) while the user-supplied observers and
// the flight recorder are shared across calls by design.
func (s *settings) lower() core.Options {
	opts := core.Options{
		LogEntries:         s.logEntries,
		Logs:               s.logs,
		LogMapper:          s.mapper,
		DedicatedCombiners: s.dedicatedCombiners,
		StallThreshold:     s.stallThreshold,
	}
	nodes := 4 // the default Intel testbed
	if s.nodes != 0 {
		smt := s.smt
		if smt == 0 {
			smt = 1
		}
		cores := s.coresPerNode
		if cores == 0 {
			cores = 1
		}
		opts.Topology = topology.New(s.nodes, cores, smt)
		nodes = s.nodes
	}
	// Full slice expression: a second lower() call must not overwrite the
	// obs.Metrics a previous call appended into shared backing storage.
	observers := s.observers[:len(s.observers):len(s.observers)]
	if s.metrics {
		observers = append(observers, obs.NewMetrics(nodes))
	}
	opts.Observer = obs.Combine(observers...)
	opts.Trace = s.trace
	return opts
}

// New builds an instance. create is invoked once per NUMA node and must
// produce identical replicas (same seeds, same initial contents). With no
// options it simulates the paper's testbed (4×14×2, 64K-entry log).
func New[O, R any](create func() Sequential[O, R], options ...Option) (*Instance[O, R], error) {
	return build(create, 1, nil, options)
}

// build is New and NewSharded: shards core instances from one settings
// value. Every shard gets the same options, so a construction error is
// always the first shard's, before anything has been started.
func build[O, R any](create func() Sequential[O, R], shards int, mapper LogMapper[O], options []Option) (*Instance[O, R], error) {
	if create == nil {
		return nil, errors.New("nr: create function is nil")
	}
	var s settings
	for _, o := range options {
		o(&s)
	}
	// Fail before building anything: one WAL covers one log of one shard,
	// and recovery has no generation record tying several together, so a
	// crash between two WALs' fsyncs could resurrect a state no
	// linearization ever produced (ROADMAP item 5).
	if s.persist != nil && s.logs > 1 {
		return nil, errors.New("nr: WithLogs(m > 1) cannot be combined with persistence; per-log WALs lack a cross-log recovery barrier (ROADMAP item 5)")
	}
	if s.persist != nil && shards > 1 {
		return nil, fmt.Errorf("nr: NewSharded(shards = %d) cannot be combined with persistence; per-shard WALs lack a cross-shard recovery barrier (ROADMAP item 5)", shards)
	}
	inst := &Instance[O, R]{shards: make([]*core.Instance[O, R], shards), mapper: mapper}
	for i := range inst.shards {
		sh, err := core.New[O, R](func() core.Sequential[O, R] { return create() }, s.lower())
		if err != nil {
			return nil, err
		}
		inst.shards[i] = sh
	}
	inst.inner = inst.shards[0]
	if s.persist != nil {
		pst, perr := attachPersistence(inst, s.persist)
		if perr != nil {
			inst.inner.Close()
			return nil, perr
		}
		inst.pst = pst
	}
	if s.telemetry != nil {
		inst.tel = startTelemetry(inst, s.telemetry)
	}
	return inst, nil
}

// Register binds the calling goroutine to the next hardware-thread position
// (filling one node before spilling to the next, the paper's placement).
// It fails once every simulated hardware thread is taken, and with
// ErrClosed after Close on a dedicated-combiners instance.
func (i *Instance[O, R]) Register() (*Handle[O, R], error) {
	h, err := i.inner.Register()
	if err != nil {
		return nil, err
	}
	return i.mirror(h)
}

// RegisterOnNode binds the calling goroutine to an explicit NUMA node.
func (i *Instance[O, R]) RegisterOnNode(node int) (*Handle[O, R], error) {
	h, err := i.inner.RegisterOnNode(node)
	if err != nil {
		return nil, err
	}
	return i.mirror(h)
}

// mirror completes a registration begun on the first shard by taking a slot
// on the same node of every other shard. Shards are registered only here,
// so per-node occupancy is identical across them and the mirrored
// registrations cannot run out of slots before the first shard does.
func (i *Instance[O, R]) mirror(h0 *core.Handle[O, R]) (*Handle[O, R], error) {
	hs := make([]*core.Handle[O, R], len(i.shards))
	hs[0] = h0
	for s := 1; s < len(hs); s++ {
		h, err := i.shards[s].RegisterOnNode(h0.Node())
		if err != nil {
			return nil, fmt.Errorf("nr: mirroring registration onto shard %d: %w", s, err)
		}
		hs[s] = h
	}
	return &Handle[O, R]{inner: h0, hs: hs, mapper: i.mapper}, nil
}

// Replicas returns the number of per-node replicas (of each shard).
func (i *Instance[O, R]) Replicas() int { return i.inner.Replicas() }

// Logs returns the number of shared logs (conflict classes) per shard: 1
// for a classic instance, WithLogs' m otherwise.
func (i *Instance[O, R]) Logs() int { return i.inner.Logs() }

// Metrics returns the unified observability snapshot: Stats counters,
// Health failure state, live gauges for log occupancy and per-replica
// completedTail lag, and — when built WithMetrics — latency histograms per
// operation class and combiner batch-size distributions (Observed field).
// Instances built with persistence additionally carry the WAL's durability
// gauges (Persist field), including the durable-index lag: how many
// completed operations a crash right now would lose. A sharded instance
// reports the fold of its shards (see ShardMetrics).
func (i *Instance[O, R]) Metrics() Metrics {
	var m Metrics
	i.MetricsInto(&m, true)
	return m
}

// MetricsInto fills m in place, reusing its Replicas capacity; observed
// skips or includes the Observed summary. The telemetry collector's cadence
// tick uses it to avoid allocating a snapshot per tick.
func (i *Instance[O, R]) MetricsInto(m *Metrics, observed bool) {
	if len(i.shards) > 1 {
		i.foldInto(m)
		return
	}
	i.inner.MetricsInto(m, observed)
	i.fillPersist(m)
}

// fillPersist folds the WAL's counters into the snapshot when the instance
// is durable. DurableLag is computed against the same snapshot's Completed
// gauge (both racy monotone reads, so the clamp absorbs any skew).
func (i *Instance[O, R]) fillPersist(m *Metrics) {
	if i.pst == nil {
		return
	}
	ws := i.pst.wal.Stats()
	durable := i.pst.wal.DurableIndex()
	var lag uint64
	if m.Log.Completed > durable {
		lag = m.Log.Completed - durable
	}
	m.Persist = &core.PersistGauges{
		Appends:      ws.Appends,
		Pages:        ws.Pages,
		Fsyncs:       ws.Fsyncs,
		FsyncNanos:   ws.FsyncNanos,
		Rotations:    ws.Rotations,
		DurableIndex: durable,
		DurableLag:   lag,
	}
}

// Stats returns internal counters (combining rounds, reads, helps, ...).
// It is the Stats slice of Metrics.
func (i *Instance[O, R]) Stats() Stats { return i.Metrics().Stats }

// Health reports the instance's failure state: contained panics, currently
// stalled combiners (when a stall threshold is set), and whether the
// instance has been poisoned by a non-deterministic Execute panic. It is
// the Health slice of Metrics.
func (i *Instance[O, R]) Health() Health { return i.Metrics().Health }

// MemoryBytes reports the shared logs' footprint plus, for replicas whose
// sequential structure implements interface{ MemoryBytes() uint64 }, the
// replicas' footprints — the space cost the paper tabulates.
func (i *Instance[O, R]) MemoryBytes() uint64 {
	var total uint64
	for _, sh := range i.shards {
		total += sh.MemoryBytes()
	}
	return total
}

// Quiesce brings every replica up to date with all completed operations —
// useful before inspecting replicas, never required for correctness.
func (i *Instance[O, R]) Quiesce() {
	for _, sh := range i.shards {
		sh.Quiesce()
	}
}

// Close stops the dedicated combiners, if configured, and — on a
// persistent instance — flushes and closes the write-ahead log (call
// SyncWAL first when the sticky WAL error matters; Close discards it).
// Existing handles remain usable afterwards for in-memory operation; on a
// dedicated-combiners instance new registration is refused with ErrClosed.
// Close is idempotent and a no-op otherwise.
func (i *Instance[O, R]) Close() {
	if i.tel != nil {
		i.tel.Close()
	}
	for _, sh := range i.shards {
		sh.Close()
	}
	if i.pst != nil {
		i.pst.close()
	}
}

// FakeUpdater is the optional fast path of §6: structures whose update
// operations frequently turn out to be no-ops (removing an absent key) can
// implement TryReadOnly; NR first attempts such updates on the cheap local
// read path and only falls back to the shared log when a real update is
// needed. TryReadOnly must not modify the structure.
type FakeUpdater[O, R any] interface {
	TryReadOnly(op O) (resp R, done bool) //nr:opaque black-box boundary
}

// Inspect quiesces node's replica and runs fn on its sequential structure
// with the write lock held; on a sharded instance once per shard, in shard
// order. fn must not retain the structure.
func (i *Instance[O, R]) Inspect(node int, fn func(s Sequential[O, R])) {
	for _, sh := range i.shards {
		sh.InspectReplica(node, func(ds core.Sequential[O, R]) { fn(ds) })
	}
}

// Execute runs op with linearizable semantics (on a sharded instance: on
// the shard that owns op's class, so per-class histories are exactly as
// linearizable as under one shard). If the operation's Sequential.Execute
// panics — on whichever goroutine ran it — the panic is re-raised here
// wrapped in a *PanicError; the NR machinery itself survives. Use
// TryExecute to receive contained failures as errors instead.
func (h *Handle[O, R]) Execute(op O) R {
	if len(h.hs) > 1 {
		if err := h.route(op); err != nil {
			panic(err)
		}
	}
	return h.inner.Execute(op)
}

// TryExecute runs op with linearizable semantics, reporting contained
// failures as errors: a *PanicError when user Execute panicked, ErrPoisoned
// once replicas have diverged (failures are shard-scoped: a poisoned shard
// fails only the operations routed to it), and on a sharded instance an
// error naming ExecuteAll when the mapper classifies op CrossLog. A nil
// error means resp is the operation's result.
func (h *Handle[O, R]) TryExecute(op O) (R, error) {
	if len(h.hs) > 1 {
		if err := h.route(op); err != nil {
			var zero R
			return zero, err
		}
	}
	return h.inner.TryExecute(op)
}

// Node returns the node this handle is bound to (the same on every shard).
func (h *Handle[O, R]) Node() int { return h.inner.Node() }

// PostAndAbandon submits an update without waiting for its response: the
// op is published to this handle's combining slot and applied by whichever
// combiner picks it up, while the caller moves on immediately. The
// response is discarded. Capture LastToken right after the call to make
// the abandoned op detectable after a crash.
func (h *Handle[O, R]) PostAndAbandon(op O) {
	if len(h.hs) > 1 {
		if err := h.route(op); err != nil {
			panic(err)
		}
	}
	h.inner.PostAndAbandon(op)
}

// LastToken identifies the most recent operation submitted through this
// handle: the flight-recorder token (log index | node | combining slot |
// per-slot sequence number) that also travels with the op into the
// write-ahead log on persistent instances. Capture it after Execute/TryExecute/
// PostAndAbandon returns and, after a crash, ask
// Recovered.WasExecuted(token) whether that operation survived.
func (h *Handle[O, R]) LastToken() uint64 { return h.inner.LastToken() }
