// NR-specific families: folding the unified core.Metrics snapshot, the
// telemetry collector's cumulative distribution buckets, and SLO statuses
// into stable Prometheus names. Names are part of the public contract —
// dashboards reference them — so changes here are breaking changes; the
// golden exposition test pins them.
package prom

import (
	"strconv"

	"github.com/asplos17/nr/internal/core"
	"github.com/asplos17/nr/internal/histogram"
	"github.com/asplos17/nr/internal/obs"
	"github.com/asplos17/nr/internal/obs/tsdb"
)

// AppendMetrics folds the unified snapshot into e: Stats counters, log and
// per-replica gauges, health, and (when present) the WAL's durability
// gauges. Observed distributions are appended separately via AppendCum —
// they need raw buckets, which the summary snapshot does not carry.
func AppendMetrics(e *Exposition, m *core.Metrics) {
	e.Counter("nr_read_ops_total", "Read-only operations executed.", float64(m.Stats.ReadOps))
	e.Counter("nr_update_ops_total", "Update operations executed through the shared log.", float64(m.Stats.UpdateOps))
	e.Counter("nr_combines_total", "Flat-combining rounds executed.", float64(m.Stats.Combines))
	e.Counter("nr_combined_ops_total", "Update operations appended via combining.", float64(m.Stats.CombinedOps))
	e.Counter("nr_reader_refreshes_total", "Reads that replayed the log into their replica themselves.", float64(m.Stats.ReaderRefreshes))
	e.Counter("nr_helped_entries_total", "Log entries applied to other nodes' replicas by helpers.", float64(m.Stats.HelpedEntries))
	e.Counter("nr_reader_acquires_total", "Read-lock acquisitions across all replicas.", float64(m.Stats.ReaderAcquires))
	e.Counter("nr_panics_total", "User Execute panics contained.", float64(m.Stats.Panics))
	e.Counter("nr_stalls_total", "Combiner stalls flagged by the watchdog.", float64(m.Stats.Stalls))
	e.Counter("nr_cross_ops_total", "Cross-conflict-class updates serialized through the ticket barrier.", float64(m.Stats.CrossOps))
	e.Counter("nr_writer_acquires_total", "Replica writer-lock acquisitions across all replicas and logs.", float64(m.Stats.WriterAcquires))

	e.Gauge("nr_log_tail", "Next unreserved absolute log index (sum over logs when multi-log).", float64(m.Log.Tail))
	e.Gauge("nr_log_completed", "Completed-tail log index (sum over logs when multi-log).", float64(m.Log.Completed))
	e.Gauge("nr_log_min_tail", "Smallest replica local tail (recyclable frontier; sum over logs).", float64(m.Log.MinTail))
	e.Gauge("nr_log_size", "Shared log capacity in entries (sum over logs).", float64(m.Log.Size))
	e.Gauge("nr_log_occupancy", "Fraction of the log holding entries some replica still needs (max over logs).", m.Log.Occupancy)

	// Per-conflict-class breakdown, only when the instance actually runs
	// multiple logs: single-log expositions keep their pre-multi-log shape.
	if len(m.Logs) > 1 {
		for c, lg := range m.Logs {
			log := Label{"log", strconv.Itoa(c)}
			e.Gauge("nr_log_class_tail", "Next unreserved absolute index of one conflict class's log.", float64(lg.Tail), log)
			e.Gauge("nr_log_class_completed", "Completed-tail index of one conflict class's log.", float64(lg.Completed), log)
			e.Gauge("nr_log_class_min_tail", "Smallest replica local tail of one conflict class's log.", float64(lg.MinTail), log)
			e.Gauge("nr_log_class_occupancy", "Occupancy of one conflict class's log.", lg.Occupancy, log)
		}
	}

	poisoned := 0.0
	if m.Health.Poisoned {
		poisoned = 1
	}
	e.Gauge("nr_poisoned", "1 when replicas have been observed to diverge (sticky).", poisoned)

	for _, r := range m.Replicas {
		node := Label{"node", strconv.Itoa(r.Node)}
		e.Gauge("nr_replica_local_tail", "Next log index the replica will apply (sum over logs).", float64(r.LocalTail), node)
		e.Gauge("nr_replica_completed_lag", "Completed entries the replica has not yet absorbed (sum over logs).", float64(r.CompletedLag), node)
		e.Gauge("nr_replica_registered", "Handles bound to the replica's node.", float64(r.Registered), node)
		e.Gauge("nr_replica_reader_acquires", "Cumulative read-lock acquisitions on the replica.", float64(r.ReaderAcquires), node)
		e.Gauge("nr_replica_writer_acquires", "Cumulative writer-lock acquisitions on the replica (batch-replay witness).", float64(r.WriterAcquires), node)
		if len(r.Logs) > 1 {
			for _, lg := range r.Logs {
				nl := []Label{node, {"log", strconv.Itoa(lg.Log)}}
				e.Gauge("nr_replica_log_local_tail", "Next index the replica will apply from one conflict class's log.", float64(lg.LocalTail), nl...)
				e.Gauge("nr_replica_log_completed_lag", "Completed entries of one class the replica has not absorbed.", float64(lg.CompletedLag), nl...)
			}
		}
	}

	if p := m.Persist; p != nil {
		e.Counter("nr_wal_appends_total", "Operations appended to the write-ahead log.", float64(p.Appends))
		e.Counter("nr_wal_pages_total", "WAL page flushes.", float64(p.Pages))
		e.Counter("nr_wal_fsyncs_total", "WAL fsync calls.", float64(p.Fsyncs))
		e.Counter("nr_wal_fsync_seconds_total", "Total time inside WAL fsync.", float64(p.FsyncNanos)/1e9)
		e.Counter("nr_wal_rotations_total", "WAL segment rotations.", float64(p.Rotations))
		e.Gauge("nr_wal_durable_index", "Highest log index known fsync-durable.", float64(p.DurableIndex))
		e.Gauge("nr_wal_durable_lag", "Completed operations not yet durable.", float64(p.DurableLag))
	}
}

// latencyBounds is the coarsened `le` ladder for op-latency histograms:
// powers of 4 from 64ns to ~4.3s, in seconds. Internal histograms keep 128
// fine buckets; the exposition coarsens to keep scrape size sane while
// spanning sub-microsecond reads to multi-second stalls.
var latencyBounds = func() []float64 {
	out := make([]float64, 0, 14)
	ns := 64.0
	for i := 0; i < 14; i++ {
		out = append(out, ns/1e9)
		ns *= 4
	}
	return out
}()

// latencyData coarsens one internal cumulative capture onto latencyBounds.
func latencyData(c *histogram.Cum) HistogramData {
	d := HistogramData{
		UpperBounds: latencyBounds,
		CumCounts:   make([]uint64, len(latencyBounds)),
		Count:       c.Total,
		Sum:         float64(c.Sum) / 1e9,
	}
	for i := 0; i < histogram.NumBuckets; i++ {
		if c.Counts[i] == 0 {
			continue
		}
		low := float64(histogram.BucketLower(i)) / 1e9
		for b, ub := range latencyBounds {
			if low <= ub {
				d.CumCounts[b] += c.Counts[i]
			}
		}
	}
	return d
}

// batchBounds is the `le` ladder for the combiner batch-size histogram:
// powers of two matching obs.CountDist's native buckets, 1..1024.
var batchBounds = func() []float64 {
	out := make([]float64, 0, 11)
	for v := 1.0; v <= 1024; v *= 2 {
		out = append(out, v)
	}
	return out
}()

// batchData renders a CountCum capture onto batchBounds. CountDist bucket b
// holds values with bits.Len64(v)==b, so bucket b's low edge 1<<(b-1) is
// the value attributed to its observations.
func batchData(c *obs.CountCum) HistogramData {
	d := HistogramData{
		UpperBounds: batchBounds,
		CumCounts:   make([]uint64, len(batchBounds)),
		Count:       c.Total,
		Sum:         float64(c.Sum),
	}
	for b, n := range c.Counts {
		if n == 0 {
			continue
		}
		low := 0.0
		if b > 0 {
			low = float64(uint64(1) << (b - 1))
		}
		for i, ub := range batchBounds {
			if low <= ub {
				d.CumCounts[i] += n
			}
		}
	}
	return d
}

// AppendCum folds the telemetry collector's cumulative distribution capture
// into e: per-class op-latency histograms and the combiner batch-size
// histogram.
func AppendCum(e *Exposition, c *obs.Cum) {
	e.Histogram("nr_op_latency_seconds", "End-to-end operation latency by class.",
		latencyData(&c.Latency[obs.OpRead]), Label{"class", "read"})
	e.Histogram("nr_op_latency_seconds", "End-to-end operation latency by class.",
		latencyData(&c.Latency[obs.OpUpdate]), Label{"class", "update"})
	e.Histogram("nr_combiner_batch_size", "Operations per non-empty combining round.",
		batchData(&c.Batch))
}

// AppendSLO folds SLO statuses into e.
func AppendSLO(e *Exposition, statuses []tsdb.SLOStatus) {
	for _, s := range statuses {
		class := Label{"class", s.Class}
		e.Gauge("nr_slo_target_p99_seconds", "Configured per-window p99 objective.", float64(s.P99Ns)/1e9, class)
		e.Gauge("nr_slo_target_p999_seconds", "Configured per-window p999 objective.", float64(s.P999Ns)/1e9, class)
		e.Gauge("nr_slo_current_p99_seconds", "Most recent judged window's p99.", float64(s.CurrentP99Ns)/1e9, class)
		e.Gauge("nr_slo_current_p999_seconds", "Most recent judged window's p999.", float64(s.CurrentP999Ns)/1e9, class)
		breached := 0.0
		if s.Breached {
			breached = 1
		}
		e.Gauge("nr_slo_breached", "1 when the most recent judged window breached.", breached, class)
		e.Counter("nr_slo_breached_windows_total", "Windows that breached the objective.", float64(s.BreachedWindows), class)
		e.Counter("nr_slo_windows_total", "Windows judged against the objective.", float64(s.TotalWindows), class)
		e.Gauge("nr_slo_budget_burn", "Breach fraction over error budget (1.0 = budget spent).", s.BudgetBurn, class)
	}
}
