// Metrics: the unified observability snapshot of an NR instance.
//
// Stats (flat counters) and Health (failure state) predate this file; both
// are now slices of one coherent Metrics read-out that adds the live gauges
// the counters cannot express — log occupancy, per-replica completedTail
// lag — plus a slot for the event-derived distributions (latency per op
// class, combiner batch sizes) that the nr layer fills from its obs.Metrics
// observer. Those are exactly the quantities the paper uses to explain
// NR's behaviour: batch size decides whether combining wins (§5.2, Fig. 13),
// log occupancy and replica lag decide when appenders must help (§5.6, §6),
// and the read/update latency split is the read-path argument of §5.3.
//
// Multi-log instances expose one LogGauges per shared log (Metrics.Logs)
// and one ReplicaLogGauges per (replica, log) pair; the flat Metrics.Log
// and the flat ReplicaGauges fields remain as aggregates so single-log
// consumers (dashboards, golden files, the windowed telemetry plane) keep
// reading the same shape — at m=1 the aggregates equal log 0's gauges
// exactly.
package core

import (
	"github.com/asplos17/nr/internal/obs"
	"github.com/asplos17/nr/internal/rwlock"
)

// LogGauges is a live snapshot of one shared log's position counters.
type LogGauges struct {
	// Tail is logTail: the next unreserved absolute index.
	Tail uint64 `json:"tail"`
	// Completed is completedTail: no op at or after it had completed.
	Completed uint64 `json:"completed"`
	// MinTail is the smallest replica localTail: every entry below it has
	// been applied everywhere and is recyclable.
	MinTail uint64 `json:"min_tail"`
	// Size is the log's capacity in entries.
	Size int `json:"size"`
	// Occupancy is (Tail-MinTail)/Size in [0,1]: how full the circular
	// buffer is with entries some replica still needs.
	Occupancy float64 `json:"occupancy"`
}

// ReplicaLogGauges is one (replica, log) pair's slice of the snapshot: the
// per-conflict-class position and combining state multi-log NR keeps per
// log where classic NR had one of each per replica.
type ReplicaLogGauges struct {
	// Log is the conflict class (log index) these gauges describe.
	Log int `json:"log"`
	// LocalTail is the next index of this log the replica will apply.
	LocalTail uint64 `json:"local_tail"`
	// CompletedLag is this log's completed entries the replica has not yet
	// absorbed — the staleness a class-local reader would wait out.
	CompletedLag uint64 `json:"completed_lag"`
	// CombinerHeldNs is how long this class's current combiner-lock holder
	// has been inside its round (0 when the lock is free).
	CombinerHeldNs int64 `json:"combiner_held_ns"`
}

// ReplicaGauges is a live snapshot of one replica's position in the logs.
// The flat fields aggregate across the replica's logs (sums for tails and
// lags, maxima for the hold and window gauges) and equal log 0's values
// exactly on single-log instances; Logs carries the per-class breakdown.
type ReplicaGauges struct {
	Node int `json:"node"`
	// LocalTail is the sum of per-log local tails: total entries applied.
	LocalTail uint64 `json:"local_tail"`
	// CompletedLag is the total completed entries not yet absorbed, summed
	// across logs — the staleness a reader on this node would have to wait
	// out (its own class's share of it).
	CompletedLag uint64 `json:"completed_lag"`
	// Registered is the number of handles bound to this node.
	Registered int `json:"registered"`
	// CombinerHeldNs is the longest current combiner-lock hold across the
	// replica's logs (0 when all are free).
	CombinerHeldNs int64 `json:"combiner_held_ns"`
	// ReaderAcquires is the cumulative read-lock acquisition count across
	// this replica's readers-writer locks.
	ReaderAcquires uint64 `json:"reader_acquires"`
	// WriterAcquires is the cumulative write-lock acquisition count across
	// this replica's readers-writer locks — combiner rounds, reader-elected
	// refreshes, helper passes and cross appliers all pay one each, so the
	// counter measures how often the replica's serialization point was
	// taken (the batch-aware replay regression test pins it).
	WriterAcquires uint64 `json:"writer_acquires"`
	// Logs is the per-conflict-class breakdown (len = number of logs).
	Logs []ReplicaLogGauges `json:"logs,omitempty"`
}

// PersistGauges is the durability slice of the Metrics snapshot, populated
// by the public nr layer when the instance has a WAL attached. It mirrors
// persist.Stats (core does not import persist — the dependency points the
// other way) and adds the derived durability-lag gauge.
type PersistGauges struct {
	// Appends is the number of records the log follower has handed to the
	// WAL; it trails the operations acknowledged by up to one group
	// interval, and DurableLag includes that backlog.
	Appends uint64 `json:"appends"`
	// Pages is the number of page flushes the WAL performed.
	Pages uint64 `json:"pages"`
	// Fsyncs is the number of fsync calls issued.
	Fsyncs uint64 `json:"fsyncs"`
	// FsyncNanos is the total time spent inside fsync, in nanoseconds.
	FsyncNanos uint64 `json:"fsync_ns"`
	// Rotations is the number of segment rotations.
	Rotations uint64 `json:"rotations"`
	// DurableIndex is the highest log index known fsync-durable.
	DurableIndex uint64 `json:"durable_index"`
	// DurableLag is Log.Completed - DurableIndex clamped at 0: how many
	// completed operations would be lost to a crash right now, whether the
	// follower has not read them yet or the WAL has not synced them.
	DurableLag uint64 `json:"durable_lag"`
}

// Metrics is the unified observability snapshot: counters, failure state,
// live gauges, and (filled by the nr layer when it attached an obs.Metrics
// observer) event-derived latency and batch-size distributions.
type Metrics struct {
	Stats  Stats  `json:"stats"`
	Health Health `json:"health"`
	// Log aggregates across the instance's logs (sums for the position
	// counters, max for occupancy); on single-log instances it is exactly
	// log 0's gauges, byte-for-byte what pre-multi-log consumers read.
	Log LogGauges `json:"log"`
	// Logs is the per-log breakdown, one entry per conflict class.
	Logs     []LogGauges     `json:"logs,omitempty"`
	Replicas []ReplicaGauges `json:"replicas"`
	// Persist carries the WAL's durability gauges, nil when the instance has
	// no persistence attached (filled by the public nr layer, which owns the
	// WAL; core never sees it).
	Persist *PersistGauges `json:"persist,omitempty"`
	// Observed carries the obs.Metrics snapshot, nil when the instance was
	// built without one (filled by the public nr layer, which owns the
	// observer: one per instance, however many shards).
	Observed *obs.Snapshot `json:"observed,omitempty"`
}

// Metrics returns the unified snapshot. Counters are read individually, so
// the snapshot is only approximately a single instant; gauges are racy
// reads of live positions (monotone counters, so never wildly wrong).
func (i *Instance[O, R]) Metrics() Metrics {
	var m Metrics
	i.MetricsInto(&m)
	return m
}

// MetricsInto fills m in place, reusing m.Logs' and m.Replicas' capacity
// (including each ReplicaGauges' nested Logs slice), so a caller that polls
// on a cadence (the telemetry collector) does not allocate a fresh snapshot
// every tick after the first. Persist and Observed are left nil: the public
// nr layer owns the WAL and the metrics observer and fills both.
func (i *Instance[O, R]) MetricsInto(m *Metrics) {
	m.Stats = i.stats()
	m.Health = i.health()
	m.Persist = nil
	m.Observed = nil

	nlogs := len(i.logs)
	if cap(m.Logs) < nlogs {
		m.Logs = make([]LogGauges, nlogs)
	}
	m.Logs = m.Logs[:nlogs]
	var agg LogGauges
	for c, l := range i.logs {
		tail := l.Tail()
		completed := l.Completed()
		minTail := l.MinLocalTail()
		size := l.Size()
		occ := float64(tail-minTail) / float64(size)
		if occ > 1 {
			occ = 1 // racy reads can momentarily overshoot
		}
		m.Logs[c] = LogGauges{
			Tail:      tail,
			Completed: completed,
			MinTail:   minTail,
			Size:      size,
			Occupancy: occ,
		}
		agg.Tail += tail
		agg.Completed += completed
		agg.MinTail += minTail
		agg.Size += size
		if occ > agg.Occupancy {
			agg.Occupancy = occ
		}
	}
	m.Log = agg

	now := rwlock.StampNow()
	if cap(m.Replicas) < len(i.replicas) {
		grown := make([]ReplicaGauges, len(i.replicas))
		copy(grown, m.Replicas)
		m.Replicas = grown
	}
	m.Replicas = m.Replicas[:len(i.replicas)]
	for n, r := range i.replicas {
		i.mu.Lock()
		registered := r.registered
		i.mu.Unlock()
		g := &m.Replicas[n]
		if cap(g.Logs) < nlogs {
			g.Logs = make([]ReplicaLogGauges, nlogs)
		}
		g.Logs = g.Logs[:nlogs]
		var (
			localSum, lagSum, racq, wacq uint64
			heldMax                      int64
		)
		for c := range r.logs {
			lg := &r.logs[c]
			local := lg.localTail.Load()
			var lag uint64
			if completed := m.Logs[c].Completed; completed > local {
				lag = completed - local
			}
			held := int64(lg.combinerLock.HeldFor(now))
			g.Logs[c] = ReplicaLogGauges{
				Log:            c,
				LocalTail:      local,
				CompletedLag:   lag,
				CombinerHeldNs: held,
			}
			localSum += local
			lagSum += lag
			racq += lg.rw.ReaderAcquires()
			wacq += lg.rw.WriterAcquires()
			if held > heldMax {
				heldMax = held
			}
		}
		g.Node = n
		g.LocalTail = localSum
		g.CompletedLag = lagSum
		g.Registered = registered
		g.CombinerHeldNs = heldMax
		g.ReaderAcquires = racq
		g.WriterAcquires = wacq
	}
}

// Stats returns the counter slice of the Metrics snapshot. It remains as a
// convenience alias for callers that only want the flat counters.
func (i *Instance[O, R]) Stats() Stats { return i.Metrics().Stats }

// Health returns the failure-state slice of the Metrics snapshot.
func (i *Instance[O, R]) Health() Health { return i.Metrics().Health }
