// Sharding: NewSharded gives each conflict class of a LogMapper its own
// private replica set — a complete NR shard with its own logs, replicas and
// locks — breaking the single-log tail-CAS bottleneck (§5.1) that caps one
// log's update throughput. Operations of one class keep full linearizability
// (every op of the class lands in the same shard's log); ExecuteAll, the
// cross-class call, is per-shard linearizable only. See DESIGN.md §11.
package nr

import (
	"errors"
	"fmt"
	"hash/maphash"
	"slices"

	"github.com/asplos17/nr/internal/core"
)

// KeyMapper builds the ready-made key-hash LogMapper for NewSharded and
// WithLogs: key extracts the comparable key an operation touches, or reports
// false for an operation that spans keys (classified CrossLog), and keys
// spread uniformly over classes under a randomly seeded hash (stable within
// one process, deliberately not across processes: classes are not a
// persistence boundary). A structure partitioned per class can hold the
// mapper and ask it where a key lives.
func KeyMapper[O any, K comparable](classes int, key func(O) (K, bool)) LogMapper[O] {
	seed := maphash.MakeSeed()
	n := uint64(max(classes, 1))
	return LogMapperFunc[O](func(op O) int {
		k, ok := key(op)
		if !ok {
			return CrossLog
		}
		return int(maphash.Comparable(seed, k) % n)
	})
}

// NewSharded builds an instance of shards private replica sets, one per
// conflict class of mapper (create is invoked once per node per shard;
// shards start as copies of the same empty structure). It is the same
// Instance with the same Handle as New builds: Execute runs an operation on
// the shard owning its class, ExecuteAll on every shard. One shard is
// exactly New (mapper ignored, may be nil). The options apply to every
// shard alike — WithMetrics attaches a separate metrics observer per shard,
// while WithObserver's observers and the flight recorder are shared — and
// persistence is refused (ROADMAP item 5).
func NewSharded[O, R any](create func() Sequential[O, R], shards int, mapper LogMapper[O], options ...Option) (*Instance[O, R], error) {
	if shards < 1 {
		return nil, fmt.Errorf("nr: need at least one shard, got %d", shards)
	}
	if shards == 1 {
		mapper = nil
	} else if mapper == nil {
		return nil, errors.New("nr: NewSharded(shards > 1) requires a LogMapper assigning each op a conflict class")
	}
	return build(create, shards, mapper, options)
}

// Shards returns the number of private replica sets: 1 unless built by
// NewSharded.
func (i *Instance[O, R]) Shards() int { return len(i.shards) }

// ShardMetrics returns each shard's own snapshot, in shard order: the
// breakdown Metrics folds on a sharded instance, including the per-shard
// latency histograms (Observed) the fold cannot carry.
func (i *Instance[O, R]) ShardMetrics() []Metrics {
	ms := make([]Metrics, len(i.shards))
	for s, sh := range i.shards {
		sh.MetricsInto(&ms[s], true)
	}
	i.fillPersist(&ms[0])
	return ms
}

// errCrossShard is what Execute and TryExecute answer on a sharded instance
// for an operation that belongs to no single shard.
var errCrossShard = errors.New("nr: operation spans shards (the mapper returned CrossLog); use ExecuteAll")

// route points h.inner at the shard owning op's class.
func (h *Handle[O, R]) route(op O) error {
	c := h.mapper.LogIndex(op)
	if c == CrossLog {
		return errCrossShard
	}
	if m := len(h.hs); c < 0 || c >= m {
		c = ((c % m) + m) % m
	}
	h.inner = h.hs[c]
	return nil
}

// ExecuteAll is the cross-class call: it runs op on every private replica
// set and returns one response per shard, in shard order. With one shard
// that is a single linearizable response (a CrossLog op under WithLogs goes
// through the cross-log barrier). With several, semantics are per-shard
// linearizable: each shard applies op at its own linearization point, with
// no instant at which all shards are observed together — concurrent
// operations may land between the per-shard applications. A contained
// failure on any shard is re-raised as a panic; use TryExecuteAll for
// errors.
func (h *Handle[O, R]) ExecuteAll(op O) []R {
	resps, err := h.TryExecuteAll(op)
	if err != nil {
		panic(err)
	}
	return resps
}

// TryExecuteAll is ExecuteAll reporting contained failures as errors. Every
// shard is attempted even when an earlier one fails; the first error comes
// back alongside the responses (zero-valued at failed shards).
func (h *Handle[O, R]) TryExecuteAll(op O) ([]R, error) {
	resps := make([]R, len(h.hs))
	var firstErr error
	for s, ch := range h.hs {
		h.inner = ch
		r, err := ch.TryExecute(op)
		resps[s] = r
		if err != nil && firstErr == nil {
			firstErr = err
			if len(h.hs) > 1 {
				firstErr = fmt.Errorf("shard %d: %w", s, err)
			}
		}
	}
	return resps, firstErr
}

// foldInto fills m with the fold of the shards' snapshots: Stats and Health
// counters summed, Health flags OR-ed, log positions summed with Occupancy
// reporting the fullest shard (the bottleneck: one full log blocks that
// shard's appenders however empty the others are), per-node replica gauges
// summed across shards. Logs and Observed stay empty — per-class gauges and
// latency percentiles do not merge across independent shards; ShardMetrics
// has them.
func (i *Instance[O, R]) foldInto(m *Metrics) {
	replicas := m.Replicas[:0]
	*m = Metrics{Replicas: replicas}
	var one Metrics
	for _, sh := range i.shards {
		sh.MetricsInto(&one, false)
		addStats(&m.Stats, &one.Stats)
		addHealth(&m.Health, &one.Health)
		m.Log.Tail += one.Log.Tail
		m.Log.Completed += one.Log.Completed
		m.Log.MinTail += one.Log.MinTail
		m.Log.Size += one.Log.Size
		m.Log.Occupancy = max(m.Log.Occupancy, one.Log.Occupancy)
		for _, r := range one.Replicas {
			for len(m.Replicas) <= r.Node {
				m.Replicas = append(m.Replicas, core.ReplicaGauges{Node: len(m.Replicas)})
			}
			a := &m.Replicas[r.Node]
			a.LocalTail += r.LocalTail
			a.CompletedLag += r.CompletedLag
			a.Registered += r.Registered
			a.ReaderAcquires += r.ReaderAcquires
			a.WriterAcquires += r.WriterAcquires
			a.CombinerHeldNs = max(a.CombinerHeldNs, r.CombinerHeldNs) // the longest-held combiner
		}
	}
}

func addStats(a, b *Stats) {
	a.Combines += b.Combines
	a.CombinedOps += b.CombinedOps
	a.ReaderRefreshes += b.ReaderRefreshes
	a.HelpedEntries += b.HelpedEntries
	a.ReadOps += b.ReadOps
	a.UpdateOps += b.UpdateOps
	a.CrossOps += b.CrossOps
	a.ReaderAcquires += b.ReaderAcquires
	a.WriterAcquires += b.WriterAcquires
	a.Panics += b.Panics
	a.Stalls += b.Stalls
}

func addHealth(a, b *Health) {
	if b.Poisoned && !a.Poisoned {
		a.Poisoned = true
		a.PoisonReason = b.PoisonReason
	}
	a.Panics += b.Panics
	a.Stalls += b.Stalls
	for _, n := range b.StalledNodes { // union: a node stalled on any shard
		if !slices.Contains(a.StalledNodes, n) {
			a.StalledNodes = append(a.StalledNodes, n)
		}
	}
}
