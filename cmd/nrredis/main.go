// Command nrredis serves a Redis-compatible subset (strings + sorted sets)
// over RESP, with the entire keyspace made concurrent by Node Replication
// or one of the paper's baseline methods.
//
// Usage:
//
//	nrredis -addr :6380 -method nr -workers 8 -nodes 4 -cores 14 -smt 2
//
// Then: redis-cli -p 6380 ZADD board 10 alice / ZRANK board alice / ...
// Every connection is served by its own goroutine; -workers is the number
// of commands that can be executing at once (each takes one of that many
// executors registered with the keyspace), not a thread count.
// The INFO command reports serving and NR metrics in redis style.
//
// With -metrics ADDR an HTTP sidecar serves the same observability data:
//
//	/metrics      — the Prometheus text exposition (server counters, NR
//	                metrics, latency histograms, SLOs); nrtop reads it
//	/health       — 200 while healthy, 503 once the keyspace is poisoned
//	/debug/trace  — flight-recorder export: Chrome trace JSON for Perfetto,
//	                or ?format=text for the top-K slowest-ops report
//
// The flight recorder (-trace, on by default for -method nr) also powers
// the SLOWLOG GET/RESET/LEN command, whose entries are reconstructed
// per-operation spans rather than redis's command log.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	nr "github.com/asplos17/nr"
	"github.com/asplos17/nr/internal/miniredis"
	"github.com/asplos17/nr/internal/topology"
	"github.com/asplos17/nr/internal/trace"
)

// parseSLOSpec parses "p99" or "p99,p999" duration pairs for the -slo-*
// flags; a missing p999 leaves that bound unchecked.
func parseSLOSpec(spec string) (p99, p999 time.Duration, err error) {
	parts := strings.SplitN(spec, ",", 2)
	if p99, err = time.ParseDuration(parts[0]); err != nil || p99 <= 0 {
		return 0, 0, fmt.Errorf("bad p99 %q (want a positive duration)", parts[0])
	}
	if len(parts) == 2 {
		if p999, err = time.ParseDuration(parts[1]); err != nil || p999 <= 0 {
			return 0, 0, fmt.Errorf("bad p999 %q (want a positive duration)", parts[1])
		}
	}
	return p99, p999, nil
}

// validateDurability gates -appendonly on the method: only NR has an op log
// to persist.
func validateDurability(method string) error {
	if method != miniredis.MethodNR {
		return fmt.Errorf("nrredis: -appendonly requires -method nr (got %q)", method)
	}
	return nil
}

// shutdownSignals end the server cleanly: SIGINT from a terminal, SIGTERM
// from kill(1), systemd and container runtimes.
var shutdownSignals = []os.Signal{os.Interrupt, syscall.SIGTERM}

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, shutdownSignals...)
	if err := run(os.Args[1:], sig, nil); err != nil {
		log.Fatal(err)
	}
}

// run is the server's whole life: build the keyspace from args, serve until
// a value arrives on sig (or the listener fails), then drain the connections
// and close the durable state. It returns only once that has finished, so
// every write the server acknowledged is on disk when the process exits.
// ready, if non-nil, is told the bound address (for -addr with port 0).
func run(args []string, sig <-chan os.Signal, ready func(net.Addr)) error {
	fs := flag.NewFlagSet("nrredis", flag.ExitOnError)
	var (
		addr    = fs.String("addr", "127.0.0.1:6380", "listen address")
		metrics = fs.String("metrics", "", "HTTP metrics address (e.g. 127.0.0.1:6390); empty disables")
		method  = fs.String("method", "nr", "concurrency method: nr, sl, rwl, fc, fc+")
		workers = fs.Int("workers", 8, "commands executing at once: executors registered with the keyspace and shared by all connections")
		nodes   = fs.Int("nodes", 4, "NUMA nodes in the software topology")
		cores   = fs.Int("cores", 14, "cores per node")
		smt     = fs.Int("smt", 2, "hardware threads per core")
		seed    = fs.Uint64("seed", 1, "replica determinism seed")

		appendOnly = fs.Bool("appendonly", false, "durable mode (nr method): append-only log + snapshots in -dir, recovered on start")
		dataDir    = fs.String("dir", "nrredis-data", "data directory for -appendonly state")

		telemetry = fs.Duration("telemetry", time.Second, "telemetry capture cadence (nr method only): latency histograms on /metrics and SLO judging; 0 disables")
		sloRead   = fs.String("slo-read", "", "read-latency SLO as p99[,p999] durations, e.g. 500us,2ms; empty disables")
		sloUpdate = fs.String("slo-update", "", "update-latency SLO as p99[,p999] durations; empty disables")

		traceOn    = fs.Bool("trace", true, "attach the flight recorder (nr method only): SLOWLOG + /debug/trace, ranking sampled ops (one in 16 per handle)")
		traceSlots = fs.Int("trace-slots", 4096, "flight-recorder ring slots per thread (rounded to a power of two, at most 1048576)")
		traceDump  = fs.String("trace-dump-dir", "", "directory for automatic black-box dumps on a contained panic, poisoning or an SLO breach; empty disables")
		traceProf  = fs.Int("trace-pprof-rate", 0, "label every Nth op with pprof labels (nr_node, nr_op); 0 disables")
	)
	_ = fs.Parse(args) // ExitOnError: Parse does not return an error

	topo := topology.New(*nodes, *cores, *smt)
	if *workers > topo.TotalThreads() {
		return fmt.Errorf("nrredis: %d workers exceed topology capacity %d", *workers, topo.TotalThreads())
	}
	var rec *trace.Recorder
	if *traceOn && *method == miniredis.MethodNR {
		rec = trace.New(trace.Config{
			RingSlots:         *traceSlots,
			DumpDir:           *traceDump,
			ProfileSampleRate: *traceProf,
		})
	}
	var nrOpts []nr.Option
	// Telemetry rides only on the NR method (like -trace, it is silently
	// absent for baselines, which have no NR instance to observe); explicit
	// SLO flags on a baseline are an error rather than a silent no-op.
	if *method == miniredis.MethodNR {
		if *telemetry > 0 {
			// One window: the two captures that /metrics (the newest one's
			// histograms) and SLO judging (the newest against the one
			// before) read. Rates and history are the scraper's.
			nrOpts = append(nrOpts, nr.WithTelemetry(*telemetry, 1))
		}
		for _, s := range []struct {
			spec  string
			class nr.OpClass
			name  string
		}{{*sloRead, nr.OpRead, "-slo-read"}, {*sloUpdate, nr.OpUpdate, "-slo-update"}} {
			if s.spec == "" {
				continue
			}
			p99, p999, err := parseSLOSpec(s.spec)
			if err != nil {
				return fmt.Errorf("nrredis: %s: %v", s.name, err)
			}
			nrOpts = append(nrOpts, nr.WithSLO(s.class, p99, p999))
		}
	} else if *sloRead != "" || *sloUpdate != "" {
		return fmt.Errorf("nrredis: -slo-read/-slo-update apply only to -method nr (got %q)", *method)
	}
	var shared miniredis.Shared
	var persist *miniredis.Persistence
	var err error
	dir := "" // the durable state's directory; empty = in-memory only
	if *appendOnly {
		if err := validateDurability(*method); err != nil {
			return err
		}
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			return fmt.Errorf("nrredis: creating -dir: %w", err)
		}
		dir = *dataDir
	}
	if *method == miniredis.MethodNR {
		shared, persist, err = miniredis.NewNRShared(topo, *seed, dir, rec, nrOpts...)
	} else {
		shared, err = miniredis.NewSharedTraced(*method, topo, *seed, rec, nrOpts...)
	}
	if err != nil {
		return err
	}
	if persist != nil {
		log.Printf("nrredis: durable keyspace in %s (replayed %d ops, dropped %d)",
			dir, persist.Recovered.Replayed, persist.Recovered.Dropped)
	}
	srvOpts := []miniredis.ServerOption{miniredis.WithRecorder(rec)}
	if persist != nil {
		srvOpts = append(srvOpts, miniredis.WithPersistence(persist))
	}
	srv, err := miniredis.NewServer(shared, *workers, srvOpts...)
	if err != nil {
		return err
	}

	if *metrics != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.MetricsHandler())
		mux.Handle("/health", srv.HealthHandler())
		mux.Handle("/debug/trace", srv.TraceHandler())
		go func() {
			log.Printf("nrredis: metrics on http://%s/metrics", *metrics)
			if err := http.ListenAndServe(*metrics, mux); err != nil {
				log.Printf("nrredis: metrics server: %v", err)
			}
		}()
	}

	log.Printf("nrredis: method=%s workers=%d topology=%s", *method, *workers, topo)
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- srv.Serve(*addr, func(a net.Addr) {
			log.Printf("nrredis: listening on %s", a)
			if ready != nil {
				ready(a)
			}
		})
	}()
	select {
	case <-sig:
		fmt.Fprintln(os.Stderr, "nrredis: shutting down")
	case err = <-serveErr: // the listener failed on its own
	}
	// Close stops accepting, lets every connection finish and answer the
	// command it is executing, and waits for all of them; only then is the
	// last acknowledged write in the WAL for the final fsync to cover.
	srv.Close()
	if persist != nil {
		persist.Close()
	}
	return err
}
