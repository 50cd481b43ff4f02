// Flight-recorder surface of the serving layer: the SLOWLOG-style RESP
// command and the /debug/trace HTTP endpoint, both reading the recorder
// attached via WithRecorder / NewSharedTraced.
//
// SLOWLOG here is reconstructed from the flight recorder rather than kept
// as a separate log: GET returns the top-K slowest operations currently
// reconstructable from the rings (one formatted line per op, with the
// phase breakdown), RESET hides everything recorded so far, LEN counts the
// reconstructable ops. The shape mirrors redis's SLOWLOG subcommands; the
// payload is NR's span lines instead of redis's nested entry arrays.
package miniredis

import (
	"fmt"
	"net/http"
	"strconv"

	"github.com/asplos17/nr/internal/trace"
)

// defaultSlowlogLen is SLOWLOG GET's entry count when none is given,
// matching redis's default of 10.
const defaultSlowlogLen = 10

// Recorder returns the attached flight recorder (nil when tracing is off).
func (s *Server) Recorder() *trace.Recorder { return s.rec }

// slowlog answers the SLOWLOG command. args excludes the command name.
func (s *Server) slowlog(w *Writer, args [][]byte) error {
	if s.rec == nil {
		return w.Error("SLOWLOG requires the flight recorder (start nrredis with -trace)")
	}
	if len(args) == 0 {
		return w.Error("wrong number of arguments for 'slowlog' command")
	}
	switch sub := args[0]; {
	case cmdIs(sub, "GET"):
		k := defaultSlowlogLen
		if len(args) > 1 {
			n, err := strconv.Atoi(string(args[1]))
			if err != nil {
				return w.Error("value is not an integer or out of range")
			}
			k = n // negative means all, as in redis
		}
		spans := trace.TopSlow(trace.Reconstruct(s.rec.Snapshot()), k)
		lines := make([]string, len(spans))
		for i, sp := range spans {
			lines[i] = fmt.Sprintf("%d %s", i+1, trace.FormatSpan(sp))
		}
		return w.Array(lines)
	case cmdIs(sub, "RESET"):
		s.rec.Reset()
		return w.Simple("OK")
	case cmdIs(sub, "LEN"):
		return w.Int(int64(len(trace.Reconstruct(s.rec.Snapshot()))))
	}
	return w.Error(fmt.Sprintf("unknown SLOWLOG subcommand '%s'", args[0]))
}

// TraceHandler serves the flight recorder over HTTP (mounted at
// /debug/trace by the nrredis binary):
//
//	GET /debug/trace              — Chrome trace-event JSON (Perfetto)
//	GET /debug/trace?format=text  — top-K slowest ops text report
//	GET /debug/trace?k=25         — bound the text report's K (default 10)
//
// Without a recorder it answers 404, so the route can be mounted
// unconditionally.
func (s *Server) TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.rec == nil {
			http.Error(w, "flight recorder not enabled", http.StatusNotFound)
			return
		}
		snap := s.rec.Snapshot()
		if r.URL.Query().Get("format") == "text" {
			k := defaultSlowlogLen
			if v := r.URL.Query().Get("k"); v != "" {
				if n, err := strconv.Atoi(v); err == nil {
					k = n
				}
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = trace.WriteSlowReport(w, snap, k)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="nrtrace.json"`)
		_ = trace.WriteChromeTrace(w, snap)
	})
}
