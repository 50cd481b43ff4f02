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
)

// Telemetry is the windowed collector attached by WithTelemetry; read it
// via Instance.Telemetry. Snapshot returns the
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

// Telemetry returns the windowed collector (aggregated across shards), nil
// unless the instance was built with WithTelemetry/WithSLO.
func (i *Instance[O, R]) Telemetry() *Telemetry { return i.tel }

// startTelemetry builds and starts the collector: gauges from the
// instance's (folded) snapshot, latency buckets from every shard's metrics
// observer, merged bucket-wise inside the collector.
func startTelemetry[O, R any](inst *Instance[O, R], t *telemetryConfig) *tsdb.Collector {
	var observed []*obs.Metrics
	for _, sh := range inst.shards {
		if m := sh.ObservedMetrics(); m != nil {
			observed = append(observed, m)
		}
	}
	var m Metrics // reused across ticks: the collector serializes Source calls
	c := tsdb.New(tsdb.Config{
		Interval: t.interval,
		Windows:  t.windows,
		Source: func(g *tsdb.Gauges) {
			inst.MetricsInto(&m, false)
			setGauges(g, &m)
		},
		Observed: observed,
		SLOs:     t.slos,
		OnBreach: breachChain(inst.inner.TraceRecorder().AutoDump, t.onBreach),
	})
	c.Start()
	return c
}

// setGauges converts one snapshot into g, keeping g's Replicas capacity.
func setGauges(g *tsdb.Gauges, m *core.Metrics) {
	*g = tsdb.Gauges{Replicas: g.Replicas[:0]}
	g.ReadOps = m.Stats.ReadOps
	g.UpdateOps = m.Stats.UpdateOps
	g.Combines = m.Stats.Combines
	g.CombinedOps = m.Stats.CombinedOps
	g.ReaderRefreshes = m.Stats.ReaderRefreshes
	g.HelpedEntries = m.Stats.HelpedEntries
	g.ReaderAcquires = m.Stats.ReaderAcquires
	g.Panics = m.Stats.Panics
	g.Stalls = m.Stats.Stalls

	g.LogTail = m.Log.Tail
	g.LogCompleted = m.Log.Completed
	g.LogOccupancy = m.Log.Occupancy
	for _, r := range m.Replicas {
		g.Replicas = append(g.Replicas, tsdb.ReplicaGauge{
			Node: r.Node, CompletedLag: r.CompletedLag, ReaderAcquires: r.ReaderAcquires,
		})
		g.MaxReplicaLag = max(g.MaxReplicaLag, r.CompletedLag)
	}
	if p := m.Persist; p != nil {
		g.HasWAL = true
		g.WALAppends = p.Appends
		g.WALPages = p.Pages
		g.WALFsyncs = p.Fsyncs
		g.WALFsyncNanos = p.FsyncNanos
		g.DurableIndex = p.DurableIndex
		g.DurableLag = p.DurableLag
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
