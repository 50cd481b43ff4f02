// Continuous-telemetry surface of the nr package: WithTelemetry attaches
// internal/obs/tsdb's windowed collector to an instance — cumulative
// counters, gauges, and raw histogram buckets captured on a cadence into a
// fixed ring, derived into per-window rates and tail latencies on demand —
// and WithSLO layers per-window latency objectives on top, with breaches
// chained into the flight recorder's auto-dump so the seconds leading up to
// a bad window are preserved. See DESIGN.md "Continuous telemetry".
package nr

import (
	"time"

	"github.com/asplos17/nr/internal/core"
	"github.com/asplos17/nr/internal/obs"
	"github.com/asplos17/nr/internal/obs/tsdb"
	"github.com/asplos17/nr/internal/shard"
)

// Telemetry is the windowed collector attached by WithTelemetry; read it
// via Instance.Telemetry / ShardedInstance.Telemetry. Snapshot returns the
// retained windows oldest-first, Last the most recent one, SLOStatuses the
// tracked objectives.
type Telemetry = tsdb.Collector

// TelemetryWindow is one derived interval: per-second rates from counter
// deltas, tail latencies from histogram-bucket deltas, gauges from the
// window's closing capture.
type TelemetryWindow = tsdb.Window

// SLO is one windowed latency objective; attach with WithSLO.
type SLO = tsdb.SLO

// SLOStatus is the tracker's view of one objective: the most recent judged
// window's tails, whether it breached, and the error-budget burn.
type SLOStatus = tsdb.SLOStatus

// BreachEvent describes one SLO breach, delivered to WithSLONotify's
// callback (rate-limited; see WithTelemetry).
type BreachEvent = tsdb.BreachEvent

// telemetryConfig accumulates the telemetry options in settings.
type telemetryConfig struct {
	interval time.Duration
	windows  int
	slos     []tsdb.SLO
	onBreach func(BreachEvent)
}

func (s *settings) telemetryCfg() *telemetryConfig {
	if s.telemetry == nil {
		s.telemetry = &telemetryConfig{}
	}
	// The collector reads raw buckets from the built-in metrics observer.
	s.metrics = true
	return s.telemetry
}

// WithTelemetry attaches a windowed telemetry collector: every interval it
// captures the instance's cumulative counters, gauges, and raw histogram
// buckets into a ring retaining the last windows intervals, from which
// Telemetry derives per-window throughput, batch distributions, latency
// tails, replica lag, and WAL durability lag. Zero interval and windows
// mean the defaults (1s, 120 windows). Implies WithMetrics. The collector
// stops with Instance.Close.
func WithTelemetry(interval time.Duration, windows int) Option {
	return func(s *settings) {
		t := s.telemetryCfg()
		t.interval = interval
		t.windows = windows
	}
}

// WithSLO tracks a per-window latency objective for one operation class:
// every telemetry window with traffic in the class is judged against the
// p99 and p999 bounds (zero bounds are not checked), feeding SLOStatus'
// breach counts and error-budget burn. Implies WithTelemetry at the default
// cadence unless one is configured explicitly. On a breach, the flight
// recorder's AutoDump fires (when the instance has one), preserving the
// protocol events leading up to the bad window.
func WithSLO(class OpClass, p99, p999 time.Duration) Option {
	return func(s *settings) {
		t := s.telemetryCfg()
		t.slos = append(t.slos, tsdb.SLO{Class: class, P99: p99, P999: p999})
	}
}

// WithSLONotify installs fn to be called on SLO breaches (after the flight
// recorder's auto-dump), rate-limited to one call per 30s. fn runs on the
// telemetry goroutine and must not block.
func WithSLONotify(fn func(BreachEvent)) Option {
	return func(s *settings) {
		s.telemetryCfg().onBreach = fn
	}
}

// Telemetry returns the windowed collector, nil unless the instance was
// built with WithTelemetry/WithSLO.
func (i *Instance[O, R]) Telemetry() *Telemetry { return i.tel }

// Telemetry returns the windowed collector (aggregated across shards), nil
// unless built with WithTelemetry/WithSLO.
func (i *ShardedInstance[O, R]) Telemetry() *Telemetry { return i.tel }

// startTelemetry builds and starts the collector for a plain instance.
func startTelemetry[O, R any](inst *Instance[O, R], t *telemetryConfig) *tsdb.Collector {
	var observed []*obs.Metrics
	if m := inst.inner.ObservedMetrics(); m != nil {
		observed = append(observed, m)
	}
	c := tsdb.New(tsdb.Config{
		Interval: t.interval,
		Windows:  t.windows,
		Source:   instanceSource(inst),
		Observed: observed,
		SLOs:     t.slos,
		OnBreach: breachChain(inst.inner.TraceRecorder().AutoDump, t.onBreach),
	})
	c.Start()
	return c
}

// instanceSource builds the collector's gauge source for one instance. The
// scratch snapshot is reused across ticks — the collector serializes calls.
func instanceSource[O, R any](inst *Instance[O, R]) func(*tsdb.Gauges) {
	var m Metrics
	return func(g *tsdb.Gauges) {
		inst.MetricsInto(&m, false)
		resetGauges(g)
		addMetricsToGauges(g, &m)
	}
}

// startShardedTelemetry builds and starts the aggregate collector for a
// sharded instance: per-shard gauges are summed (occupancy takes the
// fullest shard — the bottleneck), per-shard observers merge bucket-wise
// inside the collector.
func startShardedTelemetry[O, R any](inst *ShardedInstance[O, R], t *telemetryConfig) *tsdb.Collector {
	var observed []*obs.Metrics
	for s := 0; s < inst.inner.Shards(); s++ {
		if m := inst.inner.Shard(s).ObservedMetrics(); m != nil {
			observed = append(observed, m)
		}
	}
	c := tsdb.New(tsdb.Config{
		Interval: t.interval,
		Windows:  t.windows,
		Source:   shardedSource(inst.inner),
		Observed: observed,
		SLOs:     t.slos,
		OnBreach: breachChain(inst.inner.Shard(0).TraceRecorder().AutoDump, t.onBreach),
	})
	c.Start()
	return c
}

// shardedSource builds the aggregate gauge source: per-shard snapshots into
// reused scratch, folded into one Gauges.
func shardedSource[O, R any](inner *shard.Instance[O, R]) func(*tsdb.Gauges) {
	ms := make([]Metrics, inner.Shards())
	return func(g *tsdb.Gauges) {
		resetGauges(g)
		for s := 0; s < inner.Shards(); s++ {
			inner.Shard(s).MetricsInto(&ms[s], false)
			addMetricsToGauges(g, &ms[s])
		}
	}
}

// resetGauges zeroes g while keeping its Replicas capacity.
func resetGauges(g *tsdb.Gauges) {
	replicas := g.Replicas[:0]
	*g = tsdb.Gauges{Replicas: replicas}
}

// addMetricsToGauges folds one core snapshot into g: counters and log
// positions summed, occupancy taking the fullest log (the bottleneck),
// per-node replica gauges summed index-wise, WAL counters summed with
// durable lag from the snapshot's own pairing.
func addMetricsToGauges(g *tsdb.Gauges, m *core.Metrics) {
	g.ReadOps += m.Stats.ReadOps
	g.UpdateOps += m.Stats.UpdateOps
	g.Combines += m.Stats.Combines
	g.CombinedOps += m.Stats.CombinedOps
	g.ReaderRefreshes += m.Stats.ReaderRefreshes
	g.HelpedEntries += m.Stats.HelpedEntries
	g.ReaderAcquires += m.Stats.ReaderAcquires
	g.Panics += m.Stats.Panics
	g.Stalls += m.Stats.Stalls

	g.LogTail += m.Log.Tail
	g.LogCompleted += m.Log.Completed
	if m.Log.Occupancy > g.LogOccupancy {
		g.LogOccupancy = m.Log.Occupancy
	}
	for _, r := range m.Replicas {
		for len(g.Replicas) <= r.Node {
			g.Replicas = append(g.Replicas, tsdb.ReplicaGauge{Node: len(g.Replicas)})
		}
		a := &g.Replicas[r.Node]
		a.CompletedLag += r.CompletedLag
		a.ReaderAcquires += r.ReaderAcquires
		if a.CompletedLag > g.MaxReplicaLag {
			g.MaxReplicaLag = a.CompletedLag
		}
	}
	if m.Persist != nil {
		g.HasWAL = true
		g.WALAppends += m.Persist.Appends
		g.WALPages += m.Persist.Pages
		g.WALFsyncs += m.Persist.Fsyncs
		g.WALFsyncNanos += m.Persist.FsyncNanos
		g.WALSealStalls += m.Persist.SealStalls
		g.DurableIndex += m.Persist.DurableIndex
		g.DurableLag += m.Persist.DurableLag
	}
}

// breachChain wires a breach into the flight recorder's auto-dump (nil-safe
// — AutoDump on a nil recorder is a no-op, and the dump itself is
// rate-limited) before the user's callback.
func breachChain(autoDump func(string), user func(BreachEvent)) func(tsdb.BreachEvent) {
	return func(ev tsdb.BreachEvent) {
		autoDump("slo-breach-" + ev.Status.Class)
		if user != nil {
			user(ev)
		}
	}
}
