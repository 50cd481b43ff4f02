// Package tsdb is NR's windowed telemetry collector: a fixed-size ring of
// cumulative counter captures taken on a configurable cadence, from which
// per-window rates and tail latencies are derived on demand.
//
// The split matters: everything NR already exposes — core.Stats counters,
// the log/replica gauges, obs.Metrics histograms, persist.Stats — is
// cumulative since process start. Cumulative views answer "how much ever",
// not "how fast now": a dashboard and an SLO tracker both need rates and
// percentiles *over the last few seconds*.
// Two cumulative captures subtract into exactly that (counter deltas become
// rates; raw histogram buckets subtract bucket-wise into the interval's
// distribution — summary percentiles do not subtract, which is why the
// collector captures buckets via obs.ReadCum, not obs.Snapshot). An instance
// has one obs.Metrics observer however many shards it has, so one ReadCum
// per tick is the whole capture.
//
// The capture path is allocation-free in steady state: ring slots are
// reused, the Gauges struct is filled in place by a caller-supplied Source
// closure (keeping tsdb free of a core dependency), and obs.ReadCum reuses
// its per-node slice. Deriving Windows and SLO statuses allocates, but that
// is the cold read path — a human or a scrape, not an operation.
package tsdb

import (
	"sync"
	"time"

	"github.com/asplos17/nr/internal/obs"
)

// ReplicaGauge is one replica's slice of a Gauges capture.
type ReplicaGauge struct {
	Node int `json:"node"`
	// CompletedLag is how many completed entries the replica has not yet
	// absorbed (core.ReplicaGauges.CompletedLag).
	CompletedLag uint64 `json:"completed_lag"`
	// ReaderAcquires is the replica lock's cumulative read acquisitions.
	ReaderAcquires uint64 `json:"reader_acquires"`
	// ReadOps and UpdateOps are the node's cumulative op counts by class
	// (core.ReplicaGauges.ReadOps / UpdateOps): exact, where the observer's
	// per-node latency histograms hold a sample of the ops.
	ReadOps   uint64 `json:"read_ops"`
	UpdateOps uint64 `json:"update_ops"`
	// Combines and ReaderRefreshes are the node's cumulative non-empty
	// combining rounds and self-refreshing reads
	// (core.ReplicaGauges.Combines / ReaderRefreshes).
	Combines        uint64 `json:"combines"`
	ReaderRefreshes uint64 `json:"reader_refreshes"`
}

// Gauges is the flat cumulative capture the Source closure fills on every
// cadence tick: core counters, log gauges, and (when the instance is
// durable) WAL counters. Fill in place; the Replicas slice is reused
// across ticks (truncate with Replicas[:0] and append).
type Gauges struct {
	// Counters (cumulative; deltas become per-window rates).
	ReadOps         uint64 `json:"read_ops"`
	UpdateOps       uint64 `json:"update_ops"`
	Combines        uint64 `json:"combines"`
	CombinedOps     uint64 `json:"combined_ops"`
	ReaderRefreshes uint64 `json:"reader_refreshes"`
	HelpedEntries   uint64 `json:"helped_entries"`
	ReaderAcquires  uint64 `json:"reader_acquires"`
	Panics          uint64 `json:"panics"`
	Stalls          uint64 `json:"stalls"`

	// Instant gauges (carried through to the window as-is).
	LogTail       uint64  `json:"log_tail"`
	LogCompleted  uint64  `json:"log_completed"`
	LogOccupancy  float64 `json:"log_occupancy"`
	MaxReplicaLag uint64  `json:"max_replica_lag"`

	// WAL counters; valid only when HasWAL.
	HasWAL        bool   `json:"has_wal"`
	WALAppends    uint64 `json:"wal_appends"`
	WALPages      uint64 `json:"wal_pages"`
	WALFsyncs     uint64 `json:"wal_fsyncs"`
	WALFsyncNanos uint64 `json:"wal_fsync_ns"`
	DurableIndex  uint64 `json:"durable_index"`
	DurableLag    uint64 `json:"durable_lag"`

	Replicas []ReplicaGauge `json:"replicas"`
}

// Config configures a Collector.
type Config struct {
	// Interval is the capture cadence (default 1s).
	Interval time.Duration
	// Windows is how many derived windows the ring retains (default 120 —
	// two minutes of history at the default cadence).
	Windows int
	// Source fills a Gauges capture in place. Called under the collector's
	// lock, never concurrently with itself, so it may reuse private scratch
	// state. nil means no gauges (distribution-only telemetry).
	Source func(*Gauges)
	// Observed is the obs.Metrics observer whose raw buckets each capture
	// reads. May be nil: rates still work, latency percentiles read as 0.
	Observed *obs.Metrics
	// SLOs are the latency objectives to track per window.
	SLOs []SLO
	// OnBreach, when set, is called (outside the collector's lock, on the
	// capture goroutine) when a window breaches an SLO, rate-limited to one
	// call per BreachMinInterval. It must not block.
	OnBreach func(BreachEvent)
	// BreachMinInterval is the minimum spacing between OnBreach calls
	// (default 30s).
	BreachMinInterval time.Duration
	// now overrides the clock for deterministic tests.
	now func() time.Time
}

// sample is one ring slot: a cumulative capture at one instant.
type sample struct {
	when time.Time
	g    Gauges
	cum  obs.Cum
}

// Collector captures cumulative telemetry on a cadence into a fixed ring
// and derives windowed views on demand. Create with New, then either Start
// the cadence goroutine or drive Advance directly (tests).
type Collector struct {
	cfg Config

	mu       sync.Mutex
	samples  []sample // ring; n valid, next write at head
	head     int
	n        int
	slo      []sloState
	lastFire time.Time

	startOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// DefaultInterval is the capture cadence when Config.Interval is zero.
const DefaultInterval = time.Second

// DefaultWindows is the ring depth when Config.Windows is zero.
const DefaultWindows = 120

// DefaultBreachMinInterval spaces OnBreach calls when the config leaves
// BreachMinInterval zero.
const DefaultBreachMinInterval = 30 * time.Second

// New builds a Collector. It takes its first capture immediately, so the
// first derived window appears one interval later.
func New(cfg Config) *Collector {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Windows <= 0 {
		cfg.Windows = DefaultWindows
	}
	if cfg.BreachMinInterval <= 0 {
		cfg.BreachMinInterval = DefaultBreachMinInterval
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	c := &Collector{
		cfg: cfg,
		// windows+1 samples bound windows derivable intervals.
		samples: make([]sample, cfg.Windows+1),
		slo:     make([]sloState, len(cfg.SLOs)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for i := range c.slo {
		c.slo[i].slo = cfg.SLOs[i]
		if c.slo[i].slo.Budget <= 0 {
			c.slo[i].slo.Budget = DefaultBudget
		}
	}
	c.Advance()
	return c
}

// Interval returns the configured capture cadence.
func (c *Collector) Interval() time.Duration { return c.cfg.Interval }

// Start launches the cadence goroutine. Safe to call once; Close stops it.
func (c *Collector) Start() {
	c.startOnce.Do(func() {
		go func() {
			defer close(c.done)
			t := time.NewTicker(c.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-c.stop:
					return
				case <-t.C:
					c.Advance()
				}
			}
		}()
	})
}

// Close stops the cadence goroutine (if started) and waits for it to exit.
// The collector remains readable after Close.
func (c *Collector) Close() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	select {
	case <-c.done:
	default:
		// Never started: nothing to wait for.
		c.startOnce.Do(func() { close(c.done) })
		<-c.done
	}
}

// Advance takes one capture now: gauges via Source, raw distribution
// buckets via obs.ReadCum, then evaluates SLOs against the previous capture.
// Exported so tests (and callers that own their own cadence) can drive the
// ring deterministically. Allocation-free in steady state — ring slots are
// reused.
func (c *Collector) Advance() {
	now := c.cfg.now()
	var (
		ev   BreachEvent
		fire bool
	)
	c.mu.Lock()
	s := &c.samples[c.head]
	s.when = now
	if c.cfg.Source != nil {
		c.cfg.Source(&s.g)
	}
	if c.cfg.Observed != nil {
		c.cfg.Observed.ReadCum(&s.cum)
	}
	prev := c.prevLocked()
	c.head = (c.head + 1) % len(c.samples)
	if c.n < len(c.samples) {
		c.n++
	}
	if prev != nil {
		ev, fire = c.checkSLOLocked(prev, s, now)
	}
	c.mu.Unlock()
	if fire && c.cfg.OnBreach != nil {
		c.cfg.OnBreach(ev)
	}
}

// prevLocked returns the most recent complete sample before head, nil when
// this is the first capture. Caller holds c.mu.
func (c *Collector) prevLocked() *sample {
	if c.n == 0 {
		return nil
	}
	i := c.head - 1
	if i < 0 {
		i += len(c.samples)
	}
	return &c.samples[i]
}

// Samples reports how many captures the ring currently holds.
func (c *Collector) Samples() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// LatestCum copies the newest capture's distribution buckets into
// dst (reusing dst.Nodes' capacity), reporting whether a capture exists.
// The Prometheus exposition reads cumulative histogram buckets this way —
// at most one collector interval stale, which a scraper cannot tell from
// scrape jitter.
func (c *Collector) LatestCum(dst *obs.Cum) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.prevLocked()
	if s == nil {
		return false
	}
	dst.Latency = s.cum.Latency
	dst.Batch = s.cum.Batch
	dst.Nodes = append(dst.Nodes[:0], s.cum.Nodes...)
	return true
}
