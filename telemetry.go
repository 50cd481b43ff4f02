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

// telemetryConfig accumulates the telemetry options in settings.
type telemetryConfig struct {
	interval time.Duration
	windows  int
	slos     []tsdb.SLO
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
// every telemetry window with a sampled op in the class (the latency
// histograms hold one op in 16 per handle) is judged against the p99 and
// p999 bounds (zero bounds are not checked), feeding SLOStatus'
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

// Telemetry returns the windowed collector, nil
// unless the instance was built with WithTelemetry/WithSLO.
func (i *Instance[O, R]) Telemetry() *Telemetry { return i.tel }

// startTelemetry builds and starts the collector: each ring slot holds a
// snapshot of the instance, and latency and batch buckets come from its
// metrics observer. A breach fires the flight recorder's auto-dump (a no-op
// without a recorder; rate-limited by the collector and by the recorder).
func startTelemetry[O, R any](inst *Instance[O, R], t *telemetryConfig) *tsdb.Collector {
	c := tsdb.New(tsdb.Config{
		Interval: t.interval,
		Windows:  t.windows,
		Source: func(m *core.Metrics) {
			inst.inner.MetricsInto(m)
			inst.fillPersist(m)
		},
		Observed: inst.metrics,
		SLOs:     t.slos,
		OnBreach: func(class string) { inst.inner.TraceRecorder().AutoDump("slo-breach-" + class) },
	})
	c.Start()
	return c
}
