// Package obs is NR's observability layer: a zero-allocation event hook
// interface (Observer) that internal/core fires protocol events into (all
// eight hooks, the log's and the lock's included: neither internal/log nor
// internal/rwlock imports this package), plus a built-in Metrics observer
// that turns the clocked events into per-node histograms of operation
// latency and combiner batch size, and per-node combine time.
//
// The paper's argument for NR is quantitative — batch sizes, log occupancy,
// and the read/update latency split explain why NR wins (§6, §8) — so the
// hooks cover exactly the events those quantities are made of:
//
//   - CombineEnd: one flat-combining round on a node, with the batch size,
//     the number of log entries appended, and its duration.
//   - ReaderRefresh: a reader found its replica stale and replayed log
//     entries itself (the §5.3 read path's slow case).
//   - Help: a blocked appender or the stall watchdog replayed entries into
//     another node's replica (the §6 inactive-replica defense).
//   - LogTailRetry: failed CAS attempts on the shared log tail — the only
//     cross-node contention point of the update path (§5.1).
//   - WriterWait: a replica writer spun waiting for the distributed
//     readers-writer lock's reader flags to drain (§5.5).
//   - Stall: the watchdog flagged a combiner holding its lock past the
//     configured threshold (§6's stalled-thread hazard).
//   - PanicContained: a user Execute panic was contained (failure model).
//   - OpDone: one sampled operation completed, classified read/update, with
//     its end-to-end latency as seen by the submitting thread.
//
// Every event but OpDone fires for every occurrence. OpDone fires for one
// op in trace.SampleEvery per handle (trace.Sampled, plus pprof-labelled
// and cross-class ops), so the latency histograms and their counts are a
// sample. Counting is not this package's job: core.Stats and
// core.ReplicaGauges carry one exact counter per event (ReadOps, UpdateOps,
// Combines, ReaderRefreshes, HelpedEntries, TailRetries, WriterWaits,
// Stalls, Panics), and Metrics keeps only what needs the event's clock.
// Timing every op would cost two clock reads per op, about a tenth of a
// node-local read.
//
// Every method takes only scalar arguments so that firing an event never
// allocates. The observer core holds is never nil: with none attached it
// is Nop, and core reads the clock for it only when a real one is.
package obs

import "time"

// OpClass classifies a completed operation for latency accounting.
type OpClass uint8

const (
	// OpRead is an operation served on the local-replica read path.
	OpRead OpClass = iota
	// OpUpdate is an operation that went through the shared log.
	OpUpdate
	// NumOpClasses is the number of operation classes.
	NumOpClasses
)

// String names the class for reports.
func (c OpClass) String() string {
	switch c {
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	}
	return "unknown"
}

// Observer receives NR protocol events. Implementations must be safe for
// concurrent use from many goroutines and must not block: hooks fire from
// the middle of the combining and read paths. Node arguments identify the
// replica the event concerns (for Help, the node being helped, not the
// helper). All arguments are scalars; a call site never allocates.
type Observer interface {
	// CombineEnd fires when the round finishes: batch ops were collected
	// from the node's slots, appended log entries were reserved+filled
	// (always equal to batch: every collected op gets one entry), taking
	// elapsed overall.
	CombineEnd(node, batch, appended int, elapsed time.Duration)
	// ReaderRefresh fires when a reader replayed entries log entries into
	// its own replica because no combiner was active to do it.
	ReaderRefresh(node, entries int)
	// Help fires when some thread replayed entries log entries into
	// another node's replica (node is the helped replica).
	Help(node, entries int)
	// LogTailRetry fires when a log-tail reservation lost retries CAS
	// attempts before succeeding or giving up (node is the reserver's).
	LogTailRetry(node, retries int)
	// WriterWait fires when acquiring a replica's writer lock had to spin
	// for reader flags to drain; spins counts scheduler yields.
	WriterWait(node, spins int)
	// Stall fires when the watchdog flags node's combiner lock as held
	// longer than the stall threshold (once per acquisition).
	Stall(node int, held time.Duration)
	// PanicContained fires when a user Execute panic was contained while
	// applying log index idx on node (idx == ^uint64(0) for the read path).
	PanicContained(node int, idx uint64)
	// OpDone fires once per completed sampled operation (see the package
	// doc: one op in trace.SampleEvery per handle, not every op) on the
	// submitting thread's node, with the end-to-end latency the submitter
	// observed.
	OpDone(node int, class OpClass, elapsed time.Duration)
}

// Nop is an Observer that ignores every event; embed it to implement only
// the events you care about.
type Nop struct{}

// CombineEnd implements Observer.
func (Nop) CombineEnd(int, int, int, time.Duration) {}

// ReaderRefresh implements Observer.
func (Nop) ReaderRefresh(int, int) {}

// Help implements Observer.
func (Nop) Help(int, int) {}

// LogTailRetry implements Observer.
func (Nop) LogTailRetry(int, int) {}

// WriterWait implements Observer.
func (Nop) WriterWait(int, int) {}

// Stall implements Observer.
func (Nop) Stall(int, time.Duration) {}

// PanicContained implements Observer.
func (Nop) PanicContained(int, uint64) {}

// OpDone implements Observer.
func (Nop) OpDone(int, OpClass, time.Duration) {}

// Multi fans every event out to several observers, in order.
type Multi []Observer

// Combine returns an Observer that forwards to every non-nil observer in
// os: Nop when none remain, the observer itself when one does, a Multi
// otherwise. It never returns nil.
func Combine(os ...Observer) Observer {
	var live Multi
	for _, o := range os {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return Nop{}
	case 1:
		return live[0]
	}
	return live
}

// CombineEnd implements Observer.
func (m Multi) CombineEnd(node, batch, appended int, elapsed time.Duration) {
	for _, o := range m {
		o.CombineEnd(node, batch, appended, elapsed)
	}
}

// ReaderRefresh implements Observer.
func (m Multi) ReaderRefresh(node, entries int) {
	for _, o := range m {
		o.ReaderRefresh(node, entries)
	}
}

// Help implements Observer.
func (m Multi) Help(node, entries int) {
	for _, o := range m {
		o.Help(node, entries)
	}
}

// LogTailRetry implements Observer.
func (m Multi) LogTailRetry(node, retries int) {
	for _, o := range m {
		o.LogTailRetry(node, retries)
	}
}

// WriterWait implements Observer.
func (m Multi) WriterWait(node, spins int) {
	for _, o := range m {
		o.WriterWait(node, spins)
	}
}

// Stall implements Observer.
func (m Multi) Stall(node int, held time.Duration) {
	for _, o := range m {
		o.Stall(node, held)
	}
}

// PanicContained implements Observer.
func (m Multi) PanicContained(node int, idx uint64) {
	for _, o := range m {
		o.PanicContained(node, idx)
	}
}

// OpDone implements Observer.
func (m Multi) OpDone(node int, class OpClass, elapsed time.Duration) {
	for _, o := range m {
		o.OpDone(node, class, elapsed)
	}
}
