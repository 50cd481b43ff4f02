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

	"github.com/asplos17/nr/internal/core"
	"github.com/asplos17/nr/internal/obs"
	"github.com/asplos17/nr/internal/topology"
	"github.com/asplos17/nr/internal/trace"
)

// Sequential is the black-box contract (§4 of the paper): Create is the
// constructor you pass to New, Execute applies an operation, IsReadOnly
// classifies it.
type Sequential[O, R any] interface {
	Execute(op O) R
	IsReadOnly(op O) bool
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
// §16).
const CrossLog = core.CrossLog

// LogMapper is the one commutativity contract: it assigns every operation a
// conflict class in [0, m), or CrossLog for operations spanning classes.
// WithLogs gives each class its own log inside one instance. The contract,
// on which linearizability rests:
//
//   - LogIndex must be a pure function of the operation and stable for the
//     instance's lifetime (every replica must agree on each op's class; the
//     class is where the operation's state lives).
//   - Operations mapped to different classes must commute: executing them in
//     either order yields the same structure state and the same responses.
//   - The sequential structure must tolerate operations of different
//     classes being applied to one replica concurrently and in
//     different interleavings than another replica saw (which commutativity
//     makes semantically invisible).
//   - LogIndex must be safe for concurrent use.
//
// A class outside [0, m) is not trusted: the engine folds it into range as
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

// WithObserver attaches an event observer to the instance: it receives
// combine-round, log-contention (tail CAS retries, writer waits) and
// per-operation-latency events from inside the protocol; reader refreshes,
// helping and contained panics are counted in Stats. Every event fires
// for every occurrence except OpDone, which fires for the sampled ops only:
// one op in 16 per handle (plus pprof-labelled and cross-class ops), custom
// observers included — Stats.ReadOps and Stats.UpdateOps are the exact op
// counts. The observer must be concurrency-safe and non-blocking; events
// carry only scalars, so a hook never allocates. Repeated WithObserver (and
// WithMetrics) compose: every observer receives every event.
func WithObserver(o Observer) Option {
	return func(s *settings) {
		if o != nil {
			s.observers = append(s.observers, o)
		}
	}
}

// WithMetrics attaches the built-in metrics observer: per-node histograms
// of operation latency split by class (a one-in-16 sample of the ops; see
// WithObserver) and of combiner batch size (every round), and per-node
// combine time, all folded into the snapshot Instance.Metrics returns (its
// Observed field is non-nil exactly when the instance was built with
// WithMetrics). Event counts are in Stats, with or without it.
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

// PanicError is the error TryExecute returns when the operation's
// Sequential.Execute panicked; Execute re-raises it as a panic on the
// submitting goroutine. Value holds the original panic value.
type PanicError = core.PanicError

// ErrPoisoned is reported (via errors.Is) once replicas have been observed
// to diverge — Execute panicked on some replicas but not others, violating
// the §4 determinism contract. The state is sticky; see DESIGN.md's
// "Failure model".
var ErrPoisoned = core.ErrPoisoned

// Instance is a replicated, linearizable version of a sequential structure:
// one set of per-node replicas over one set of logs.
type Instance[O, R any] struct {
	inner   *core.Instance[O, R]
	metrics *obs.Metrics    // nil unless WithMetrics/WithTelemetry
	pst     *persistence[O] // nil unless built with WithPersistence/Recover
	tel     *Telemetry      // nil unless built with WithTelemetry/WithSLO
}

// Handle executes operations on behalf of one registered goroutine: Execute,
// TryExecute, LastToken, Node and Thread. It is not safe for
// concurrent use; register one handle per goroutine.
type Handle[O, R any] = core.Handle[O, R]

// lower converts the accumulated settings into core.Options. The
// WithMetrics observer it creates is returned too, so the instance can read
// it (nil without WithMetrics).
func (s *settings) lower() (core.Options, *obs.Metrics) {
	opts := core.Options{
		LogEntries: s.logEntries,
		Logs:       s.logs,
		LogMapper:  s.mapper,
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
	observers := s.observers
	var mo *obs.Metrics
	if s.metrics {
		mo = obs.NewMetrics(nodes)
		observers = append(observers, mo)
	}
	opts.Observer = obs.Combine(observers...)
	opts.Trace = s.trace
	return opts, mo
}

// New builds an instance. create is invoked once per NUMA node and must
// produce identical replicas (same seeds, same initial contents). With no
// options it simulates the paper's testbed (4×14×2, 64K-entry log).
func New[O, R any](create func() Sequential[O, R], options ...Option) (*Instance[O, R], error) {
	if create == nil {
		return nil, errors.New("nr: create function is nil")
	}
	var s settings
	for _, o := range options {
		o(&s)
	}
	// Fail before building anything: one WAL covers one log, and recovery
	// has no generation record tying several together, so a crash between
	// two WALs' fsyncs could resurrect a state no linearization ever
	// produced (ROADMAP item 5).
	if s.persist != nil && s.logs > 1 {
		return nil, errors.New("nr: WithLogs(m > 1) cannot be combined with persistence; per-log WALs lack a cross-log recovery barrier (ROADMAP item 5)")
	}
	opts, mo := s.lower()
	inner, err := core.New[O, R](func() core.Sequential[O, R] { return create() }, opts)
	if err != nil {
		return nil, err
	}
	inst := &Instance[O, R]{inner: inner, metrics: mo}
	if s.persist != nil {
		pst, perr := attachPersistence(inst, s.persist)
		if perr != nil {
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
// It fails once every simulated hardware thread is taken.
func (i *Instance[O, R]) Register() (*Handle[O, R], error) { return i.inner.Register() }

// RegisterOnNode binds the calling goroutine to an explicit NUMA node.
func (i *Instance[O, R]) RegisterOnNode(node int) (*Handle[O, R], error) {
	return i.inner.RegisterOnNode(node)
}

// Replicas returns the number of per-node replicas.
func (i *Instance[O, R]) Replicas() int { return i.inner.Replicas() }

// Logs returns the number of shared logs (conflict classes): 1 for a
// classic instance, WithLogs' m otherwise.
func (i *Instance[O, R]) Logs() int { return i.inner.Logs() }

// Metrics returns the unified observability snapshot: Stats counters,
// Health failure state, live gauges for log occupancy and per-replica
// completedTail lag, and — when built WithMetrics — latency histograms per
// operation class and combiner batch-size distributions (Observed field).
// Instances built with persistence additionally carry the WAL's durability
// gauges (Persist field), including the durable-index lag: how many
// completed operations a crash right now would lose.
func (i *Instance[O, R]) Metrics() Metrics {
	var m Metrics
	i.inner.MetricsInto(&m)
	i.fillPersist(&m)
	if i.metrics != nil {
		s := i.metrics.Snapshot()
		m.Observed = &s
	}
	return m
}

// fillPersist folds the WAL's counters into the snapshot when the instance
// is durable, reusing m.Persist when it is already set (the telemetry
// collector refills one snapshot per ring slot). DurableLag is computed
// against the same snapshot's Completed gauge (both racy monotone reads, so
// the clamp absorbs any skew).
func (i *Instance[O, R]) fillPersist(m *Metrics) {
	if i.pst == nil {
		return
	}
	if m.Persist == nil {
		m.Persist = new(core.PersistGauges)
	}
	ws := i.pst.wal.Stats()
	durable := i.pst.wal.DurableIndex()
	var lag uint64
	if m.Log.Completed > durable {
		lag = m.Log.Completed - durable
	}
	*m.Persist = core.PersistGauges{
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

// Health reports the instance's failure state: contained panics, and
// whether the instance has been poisoned by a non-deterministic Execute
// panic. It is the Health slice of Metrics.
func (i *Instance[O, R]) Health() Health { return i.Metrics().Health }

// MemoryBytes reports the shared logs' footprint, replicas not included:
// one cell per log entry, the op plus 16 bytes (an 8-byte tag word and the
// log's 8-byte marker) for an op of 8-byte alignment.
func (i *Instance[O, R]) MemoryBytes() uint64 { return i.inner.MemoryBytes() }

// Quiesce brings every replica up to date with all completed operations —
// useful before inspecting replicas, never required for correctness.
func (i *Instance[O, R]) Quiesce() { i.inner.Quiesce() }

// Close stops the telemetry collector, if configured, and — on a
// persistent instance — flushes and closes the write-ahead log (call
// SyncWAL first when the sticky WAL error matters; Close discards it).
// Existing handles remain usable afterwards for in-memory operation, and
// Register still hands out new ones. Close is idempotent and a no-op
// otherwise.
func (i *Instance[O, R]) Close() {
	if i.tel != nil {
		i.tel.Close()
	}
	if i.pst != nil {
		i.pst.close()
	}
}

// Inspect quiesces node's replica and runs fn on its sequential structure
// with the write lock held. fn must not retain the structure.
func (i *Instance[O, R]) Inspect(node int, fn func(s Sequential[O, R])) {
	i.inner.InspectReplica(node, func(ds core.Sequential[O, R]) { fn(ds) })
}
