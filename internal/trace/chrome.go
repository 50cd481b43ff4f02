// Chrome trace-event export: renders a Snapshot as the JSON object format
// of the Trace Event spec, directly loadable in Perfetto (ui.perfetto.dev)
// or chrome://tracing. Layout: one process ("pid") per NUMA node; within a
// node, one thread track per submitting ring for operation spans and one
// per combining ring for combine rounds, so combiner imbalance and slot
// waits are visible at a glance.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of the traceEvents array. Timestamps and
// durations are in microseconds per the spec; we keep nanosecond
// resolution with fractional values.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	Meta            map[string]any `json:"metadata,omitempty"`
}

// combinerTidBase offsets combiner tracks from op tracks so a ring that
// both submits ops and runs combining rounds gets two distinct rows.
const combinerTidBase = 1 << 16

func micros(ns int64) float64 { return float64(ns) / 1e3 }

func durPtr(startNs, endNs int64) *float64 {
	d := micros(endNs - startNs)
	if d < 0 {
		d = 0
	}
	return &d
}

// instantKinds are non-span events worth showing as instants.
var instantKinds = map[Kind]bool{
	KHoleWait:      true,
	KReaderRefresh: true,
	KHelp:          true,
	KLogFull:       true,
	KPanic:         true,
}

// WriteChromeTrace renders snap as Chrome trace-event JSON. The output is
// deterministic for a given snapshot (events are emitted in sorted order),
// which the golden-file test relies on.
func WriteChromeTrace(w io.Writer, snap Snapshot) error {
	spans := Reconstruct(snap)
	rounds := combineRounds(snap)

	var out []chromeEvent

	// Track naming. pid = node; tid = ring (ops) or combinerTidBase+ring
	// (combine rounds). Metadata rows are collected per (pid, tid) pair.
	type track struct {
		pid, tid int
		name     string
	}
	seen := map[[2]int]track{}
	note := func(pid, tid int, name string) {
		k := [2]int{pid, tid}
		if _, ok := seen[k]; !ok {
			seen[k] = track{pid: pid, tid: tid, name: name}
		}
	}

	for _, sp := range spans {
		note(sp.Node, sp.Ring, fmt.Sprintf("thread g%d", sp.Ring))
		args := map[string]any{
			"token": fmt.Sprintf("%#x", sp.Token),
			"seq":   sp.Seq,
			"slot":  sp.Slot,
			"class": sp.Class,
		}
		if sp.LogIndex != 0 || sp.Class == "update" {
			args["log_index"] = sp.LogIndex
		}
		// One enclosing span per op plus one child span per phase; Perfetto
		// nests them by containment on the same track.
		out = append(out, chromeEvent{
			Name: fmt.Sprintf("%s op seq=%d", sp.Class, sp.Seq),
			Ph:   "X", Ts: micros(sp.StartNs), Dur: durPtr(sp.StartNs, sp.EndNs),
			Pid: sp.Node, Tid: sp.Ring, Args: args,
		})
		for _, p := range sp.Phases {
			if p.EndNs <= p.StartNs {
				continue // zero-width terminal milestones add only noise
			}
			out = append(out, chromeEvent{
				Name: p.Name,
				Ph:   "X", Ts: micros(p.StartNs), Dur: durPtr(p.StartNs, p.EndNs),
				Pid: sp.Node, Tid: sp.Ring,
				Args: map[string]any{"token": fmt.Sprintf("%#x", sp.Token)},
			})
		}
	}

	for _, r := range rounds {
		tid := combinerTidBase + r.Ring
		note(r.Node, tid, fmt.Sprintf("combiner g%d", r.Ring))
		out = append(out, chromeEvent{
			Name: fmt.Sprintf("combine batch=%d", r.Batch),
			Ph:   "X", Ts: micros(r.StartNs), Dur: durPtr(r.StartNs, r.EndNs),
			Pid: r.Node, Tid: tid,
			Args: map[string]any{"batch": r.Batch, "appended": r.Append},
		})
	}

	for _, g := range snap.Rings {
		for _, e := range g.Events {
			if !instantKinds[e.Kind] {
				continue
			}
			note(e.Node, e.Ring, fmt.Sprintf("thread g%d", e.Ring))
			out = append(out, chromeEvent{
				Name: e.Kind.String(),
				Ph:   "i", Ts: micros(e.Ts), S: "t",
				Pid: e.Node, Tid: e.Ring,
				Args: map[string]any{"a": e.A, "b": e.B},
			})
		}
	}

	// Deterministic order: by timestamp, then name, then track.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Ts != out[j].Ts {
			return out[i].Ts < out[j].Ts
		}
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Tid < out[j].Tid
	})

	// Metadata rows first: process (node) and thread (ring) names.
	var meta []chromeEvent
	pids := map[int]bool{}
	for _, t := range seen {
		pids[t.pid] = true
	}
	for _, pid := range sortedKeys(pids) {
		meta = append(meta, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": fmt.Sprintf("node %d", pid)},
		})
	}
	tracks := make([]track, 0, len(seen))
	for _, t := range seen {
		tracks = append(tracks, t)
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].pid != tracks[j].pid {
			return tracks[i].pid < tracks[j].pid
		}
		return tracks[i].tid < tracks[j].tid
	})
	for _, t := range tracks {
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: t.pid, Tid: t.tid,
			Args: map[string]any{"name": t.name},
		})
	}

	trace := chromeTrace{
		TraceEvents:     append(meta, out...),
		DisplayTimeUnit: "ns",
	}
	if !snap.WallStart.IsZero() {
		trace.Meta = map[string]any{
			"recorder_start": snap.WallStart.UTC().Format("2006-01-02T15:04:05.000000000Z"),
			"taken_ns":       snap.TakenNs,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(trace)
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
