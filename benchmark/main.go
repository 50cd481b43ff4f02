// Command benchmark is the repository's one gated benchmark: five named
// workloads from Handle.Execute to the nrredis wire, end-to-end metrics
// measured with tracing off, and a traced run that prices each layer from
// outside. See README.md in this directory and BENCHMARK.json at the root.
//
//	go run ./benchmark --workload lib-mixed --seed 1 --seconds 10 --trace 0
//	go run ./benchmark -workload all -seed 1 -out results.json
//	go run ./benchmark -aa
//
// The last line on standard output is one JSON object with the run's
// verdict and metrics. Any failed check makes the exit code non-zero.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
)

const modulePath = "module github.com/asplos17/nr"

// findRoot walks up from the working directory to the module root: the
// child server is built from there and scratch files live under it.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(data), modulePath+"\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the github.com/asplos17/nr module")
		}
		dir = parent
	}
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same op streams")
		seconds  = flag.Int("seconds", 10, "measuring time of one run")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run's per-layer metrics")
		out      = flag.String("out", "", "with -workload all or -aa: also write the results as JSON to this file")
		spans    = flag.String("spans", "", "with -trace 1: dump the retained spans as JSON lines to this file")
		aa       = flag.Bool("aa", false, "run the full untraced set twice (seeds 1 and 2, opposite orders) and compare against the bounds")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traced != 0, *aa, *out, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// exitHooks undo what must not outlive the process when a signal ends it;
// the normal path undoes the same things through defers. A hook stays
// registered after its defer has run: killing a reaped child or removing a
// removed directory is harmless.
var exitHooks struct {
	sync.Mutex
	fns []func()
}

func onExit(fn func()) {
	exitHooks.Lock()
	exitHooks.fns = append(exitHooks.fns, fn)
	exitHooks.Unlock()
}

func runExitHooks() {
	exitHooks.Lock()
	defer exitHooks.Unlock()
	for _, fn := range exitHooks.fns {
		fn()
	}
}

var errFailedChecks = errors.New("output verification failed")

func run(workload string, seed uint64, seconds int, traced, aa bool, out, spans string) error {
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	cfg := defaultConfig(seconds)
	cfg.seed, cfg.traced, cfg.spansOut = seed, traced, spans
	cfg.root, cfg.scratch = root, filepath.Join(root, ".bench_build")

	// A signal must not leave a child server or temporary files behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		runExitHooks()
		os.Exit(130)
	}()

	switch {
	case aa:
		return runAA(cfg, out)
	case workload == "all":
		return runAll(cfg, out)
	}
	w, ok := findWorkload(workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	res, err := runWorkload(w, cfg)
	if err != nil {
		return err
	}
	printResult(os.Stdout, res)
	if err := printVerdict(os.Stdout, res); err != nil {
		return err
	}
	if !res.Correct {
		return errFailedChecks
	}
	return nil
}

// printVerdict writes the one-line JSON object a harness reads last.
func printVerdict(w io.Writer, res *runResult) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	verdict := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for name, m := range res.Metrics {
		verdict.Metrics[name] = metric{m.Value, m.Unit}
	}
	line, err := json.Marshal(verdict)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runAll runs every workload untraced and traced and prints both.
func runAll(cfg runConfig, out string) error {
	var results []*runResult
	failed := false
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			c := cfg
			c.traced = traced
			res, err := runWorkload(w, c)
			if err != nil {
				return err
			}
			printResult(os.Stdout, res)
			results = append(results, res)
			failed = failed || !res.Correct
		}
	}
	if err := writeJSON(out, results); err != nil {
		return err
	}
	if failed {
		return errFailedChecks
	}
	return nil
}

func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
