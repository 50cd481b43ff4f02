// Aggregated observability for sharded instances: one Metrics read-out that
// folds S per-shard core.Metrics snapshots into totals while keeping the
// per-shard breakdowns, so dashboards see both the whole structure and the
// shard imbalance the router's key distribution produces.
package shard

import "github.com/asplos17/nr/internal/core"

// Metrics is the sharded observability snapshot: an aggregate view plus the
// per-shard breakdowns it was folded from.
type Metrics struct {
	// Aggregate folds the shards: Stats counters and Health counters are
	// summed, Health flags OR-ed, log gauges summed with Occupancy reporting
	// the fullest shard (the bottleneck: one full log blocks that shard's
	// appenders regardless of how empty the others are), and per-node
	// replica gauges summed across shards. Observed is nil in the aggregate
	// — latency percentiles do not merge across independent histograms; read
	// them per shard.
	Aggregate core.Metrics `json:"aggregate"`
	// Shards holds each shard's own unified snapshot, in shard order.
	Shards []core.Metrics `json:"shards"`
}

// Metrics returns the aggregated snapshot with per-shard breakdowns. Like
// core.Metrics, counters are read per shard without a global barrier, so
// the snapshot is only approximately a single instant.
func (s *Instance[O, R]) Metrics() Metrics {
	m := Metrics{Shards: make([]core.Metrics, len(s.shards))}
	for i, inst := range s.shards {
		m.Shards[i] = inst.Metrics()
	}
	m.Aggregate = aggregate(m.Shards)
	return m
}

// Stats returns the aggregate counter slice (per-shard counters summed).
func (s *Instance[O, R]) Stats() core.Stats { return s.Metrics().Aggregate.Stats }

// Health returns the aggregate failure state: poisoned if any shard is,
// with every shard's stalled nodes and summed panic/stall counters.
func (s *Instance[O, R]) Health() core.Health { return s.Metrics().Aggregate.Health }

// aggregate folds per-shard snapshots into one core.Metrics.
func aggregate(shards []core.Metrics) core.Metrics {
	var agg core.Metrics
	for i := range shards {
		m := &shards[i]
		agg.Stats = addStats(agg.Stats, m.Stats)
		agg.Health = addHealth(agg.Health, m.Health)
		agg.Log.Tail += m.Log.Tail
		agg.Log.Completed += m.Log.Completed
		agg.Log.MinTail += m.Log.MinTail
		agg.Log.Size += m.Log.Size
		if m.Log.Occupancy > agg.Log.Occupancy {
			agg.Log.Occupancy = m.Log.Occupancy // the bottleneck shard
		}
		for _, r := range m.Replicas {
			for len(agg.Replicas) <= r.Node {
				agg.Replicas = append(agg.Replicas, core.ReplicaGauges{Node: len(agg.Replicas)})
			}
			a := &agg.Replicas[r.Node]
			a.LocalTail += r.LocalTail
			a.CompletedLag += r.CompletedLag
			a.Registered += r.Registered
			a.ReaderAcquires += r.ReaderAcquires
			if r.CombinerHeldNs > a.CombinerHeldNs {
				a.CombinerHeldNs = r.CombinerHeldNs // the longest-held combiner
			}
		}
	}
	return agg
}

func addStats(a, b core.Stats) core.Stats {
	a.Combines += b.Combines
	a.CombinedOps += b.CombinedOps
	a.ReaderRefreshes += b.ReaderRefreshes
	a.HelpedEntries += b.HelpedEntries
	a.ReadOps += b.ReadOps
	a.UpdateOps += b.UpdateOps
	a.ReaderAcquires += b.ReaderAcquires
	a.Panics += b.Panics
	a.Stalls += b.Stalls
	return a
}

func addHealth(a, b core.Health) core.Health {
	if b.Poisoned && !a.Poisoned {
		a.Poisoned = true
		a.PoisonReason = b.PoisonReason
	}
	a.Panics += b.Panics
	a.Stalls += b.Stalls
	for _, n := range b.StalledNodes { // union: a node stalled on any shard
		seen := false
		for _, have := range a.StalledNodes {
			if have == n {
				seen = true
				break
			}
		}
		if !seen {
			a.StalledNodes = append(a.StalledNodes, n)
		}
	}
	return a
}
