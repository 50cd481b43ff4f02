// Flight-recorder surface of the nr package: WithFlightRecorderInstance
// attaches internal/trace's always-on, lock-free ring-buffer recorder to an
// instance; TraceSnapshot and the re-exported exporters turn its contents
// into per-operation spans, Chrome trace JSON (Perfetto), or a top-K
// slowest-ops report. See DESIGN.md "Tracing & flight recorder".
package nr

import (
	"io"

	"github.com/asplos17/nr/internal/trace"
)

// TraceConfig tunes the flight recorder; see NewFlightRecorder. The zero
// value is usable: 1024-slot rings, no automatic dumps, no profile
// sampling.
type TraceConfig = trace.Config

// TraceSnapshot is a point-in-time copy of the flight recorder's contents:
// every ring's sealed events, oldest first.
type TraceSnapshot = trace.Snapshot

// TraceEvent is one decoded recorder entry.
type TraceEvent = trace.Event

// OpSpan is one operation's reconstructed lifecycle; see ReconstructSpans.
type OpSpan = trace.OpSpan

// FlightRecorder records timestamped protocol events with causal context.
// One recorder instruments one instance; build it with NewFlightRecorder
// and pass it to WithFlightRecorderInstance.
type FlightRecorder = trace.Recorder

// NewFlightRecorder builds a flight recorder for WithFlightRecorderInstance.
// Holding the recorder yourself lets you snapshot, reset, or export it
// without going through the instance.
//
// cfg.DumpDir / cfg.OnDump arm automatic black-box dumps: on a detected
// stall, a contained panic, or poisoning, the recorder persists its own
// snapshot (rate-limited) so the failure ships with its trace.
// cfg.ProfileSampleRate > 0 additionally labels every Nth operation with
// runtime/pprof labels (nr_node, nr_op) for CPU-profile attribution.
func NewFlightRecorder(cfg TraceConfig) *FlightRecorder { return trace.New(cfg) }

// WithFlightRecorderInstance attaches rec (see NewFlightRecorder): every
// registered handle and background goroutine gets a fixed-size, lock-free,
// overwrite-oldest event ring, and the protocol records each operation's
// causal milestones (slot publish, combiner pickup, log reserve/fill,
// replay, execute, respond; tail read and reader-lock acquisition for
// reads). Recording is zero-allocation and never blocks; the recorder is
// always on once attached. Snapshot via Instance.TraceSnapshot, export via
// WriteChromeTrace / WriteSlowReport, or through rec itself, which can be
// shared with other plumbing, e.g. an HTTP debug endpoint created before
// the instance.
func WithFlightRecorderInstance(rec *FlightRecorder) Option {
	return func(s *settings) { s.trace = rec }
}

// TraceSnapshot returns a point-in-time copy of the flight recorder's
// contents. It returns the zero TraceSnapshot when the instance was built
// without WithFlightRecorderInstance, and is safe concurrently with
// operations and with Close.
func (i *Instance[O, R]) TraceSnapshot() TraceSnapshot { return i.inner.TraceSnapshot() }

// FlightRecorder returns the attached recorder (nil without
// WithFlightRecorderInstance), for resetting or configuring dumps after the
// fact.
func (i *Instance[O, R]) FlightRecorder() *FlightRecorder { return i.inner.TraceRecorder() }

// ReconstructSpans groups a snapshot's events into per-operation spans:
// each span is one op's milestones — joined across the submitting,
// combining, and replaying goroutines by the op token — ordered by time,
// with the phase breakdown the paper's performance story is made of.
func ReconstructSpans(snap TraceSnapshot) []OpSpan { return trace.Reconstruct(snap) }

// WriteChromeTrace renders snap as Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing: one process per NUMA
// node, one track per submitting thread, one per combiner.
func WriteChromeTrace(w io.Writer, snap TraceSnapshot) error {
	return trace.WriteChromeTrace(w, snap)
}

// WriteSlowReport writes the top-k slowest reconstructed operations as a
// compact text report, one line per op with its phase breakdown (k <= 0
// means all).
func WriteSlowReport(w io.Writer, snap TraceSnapshot, k int) error {
	return trace.WriteSlowReport(w, snap, k)
}
