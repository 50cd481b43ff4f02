package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// runConfig is how one run measures; everything about what it measures is
// in the workloadSpec.
type runConfig struct {
	seed    uint64
	seconds time.Duration // total measuring time of the run
	warm    time.Duration // untimed warm-up before each phase
	rounds  int           // measured rounds of an untraced run
	setups  int           // set-ups an untraced run times at least; it measures on the last
	// setupBudget keeps an untraced run setting up until this much set-up
	// time is spent: one in-process set-up takes 20ms and swings by 40%
	// from run to run when only seven are timed.
	setupBudget time.Duration
	traced      bool
	root        string // module root, where cmd/nrredis is built from
	scratch     string // build outputs and temporary directories
	spansOut    string // where a traced run dumps its retained spans, "" for nowhere
	// calibBatch sizes the layer calibrations' loops and epilogueOps is the
	// update count of lib-durable's recovery epilogue; only the smoke test
	// shrinks them.
	calibBatch  int
	epilogueOps int
	serverBin   string // an nrredis already built, so the smoke test builds it once
}

func defaultConfig(seconds int) runConfig {
	return runConfig{seconds: time.Duration(seconds) * time.Second, warm: time.Second, rounds: 8, setups: 7, setupBudget: 1500 * time.Millisecond,
		calibBatch: 20000, epilogueOps: epilogueOps}
}

// clientThreads is T: the load comes from this one process, so more
// clients than CPUs would measure the scheduler. Both replicas need a live
// client, hence at least two.
func clientThreads() (int, error) {
	n := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if n < libNodes {
		return 0, fmt.Errorf("need at least %d CPUs for one client per replica, have %d", libNodes, n)
	}
	return min(n, 4), nil
}

// metricValue is one reported number; Summary is present when the value is
// a median over rounds or set-ups.
type metricValue struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Summary *summary `json:"over,omitempty"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Traced    bool                   `json:"traced"`
	Threads   int                    `json:"threads"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	FailShare float64                `json:"fail_share"`
	Metrics   map[string]metricValue `json:"metrics"`
	Ledger    []ledgerRow            `json:"ledger,omitempty"`
	Checks    []string               `json:"failed_checks,omitempty"`
}

// ledgerRow is one row of the per-command latency ledger of a wire run.
type ledgerRow struct {
	Name string  `json:"name"`
	Us   float64 `json:"us"`
}

// recorder collects a run's metrics and verification outcome.
type recorder struct {
	res   *runResult
	specs map[string]metricSpec
}

func newRecorder(w workloadSpec, cfg runConfig, threads int) *recorder {
	r := &recorder{
		res: &runResult{Workload: w.name, Seed: cfg.seed, Traced: cfg.traced, Threads: threads,
			Metrics: map[string]metricValue{}},
		specs: map[string]metricSpec{},
	}
	list := endToEnd
	if cfg.traced {
		list = perLayer
	}
	for _, m := range list {
		r.specs[m.name] = m
		r.set(m.name, 0)
	}
	return r
}

// set records a value, keeping any summary already recorded under the name.
func (r *recorder) set(name string, v float64) {
	spec, ok := r.specs[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in spec.go")
	}
	r.res.Metrics[name] = metricValue{Value: v, Unit: spec.unit, Summary: r.res.Metrics[name].Summary}
}

// setOver records the median of per-round (or per-set-up) values.
func (r *recorder) setOver(name string, perRound []float64) {
	s := summarize(perRound)
	r.res.Metrics[name] = metricValue{Summary: &s}
	r.set(name, s.Median)
}

// count books ops and checks; every failed check fails the run.
func (r *recorder) count(attempted, failed int64) {
	r.res.Attempted += attempted
	r.res.Failed += failed
}

func (r *recorder) check(errs ...error) {
	for _, err := range errs {
		r.res.Attempted++
		if err != nil {
			r.res.Failed++
			r.res.Checks = append(r.res.Checks, err.Error())
		}
	}
}

// countPhase books a phase's ops: the valid ones of every round, warm-up
// included, plus the failed ones.
func (r *recorder) countPhase(p *phase) (acked int64) {
	failed, acked := p.failed()
	var done int64
	for _, tl := range p.threads {
		for _, ops := range tl.ops {
			done += ops[classRead] + ops[classUpdate]
		}
	}
	r.count(done+failed, failed)
	if failed > 0 {
		r.res.Checks = append(r.res.Checks, fmt.Sprintf("%d ops errored or failed reply validation", failed))
	}
	return acked
}

func (r *recorder) finish() *runResult {
	res := r.res
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if res.Attempted > 0 {
		res.FailShare = float64(res.Failed) / float64(res.Attempted)
	}
	return res
}

// endToEnd fills the metrics every workload shares from its one untraced
// phase; the caller adds mem_mb.
func (r *recorder) endToEnd(p *phase, setups []float64) error {
	if p.ops(-1) == 0 {
		return errors.New("no op completed in the measured rounds")
	}
	r.setOver("setup_s", setups)
	// Throughput is work over time, so the rounds' mean, not their median:
	// the system switches between a faster and a slower regime for seconds
	// at a time, and a median jumps with whichever holds more rounds.
	rate := p.opsPerSec()
	r.setOver("ops_per_s", rate)
	r.set("ops_per_s", mean(rate))
	r.set("cpu_us_per_op", p.cpuUsPerOp())
	return nil
}

// clientLatencyFrom fills the caller-observed latencies, over all requests
// and by class, from a traced run's untraced phase.
func (r *recorder) clientLatencyFrom(p *phase, depth int) {
	if depth <= 1 { // a pipeline's flush has no class of its own
		for class, name := range []string{"client.read", "client.update"} {
			r.setOver(name+"_p50_us", p.latency(class, 0.5))
			r.setOver(name+"_p99_us", p.latency(class, 0.99))
		}
	}
	r.setOver("client.req_p50_us", p.latency(-1, 0.5))
	r.setOver("client.req_p99_us", p.latency(-1, 0.99))
	r.setOver("client.req_p999_us", p.latency(-1, 0.999))
	r.setOver("client.req_max_us", p.latency(-1, 2))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func overheadPct(with, without float64) float64 {
	if without == 0 {
		return 0
	}
	return (1 - with/without) * 100
}

// runWorkload is one run: set up, warm up, measure, verify, tear down.
func runWorkload(w workloadSpec, cfg runConfig) (*runResult, error) {
	threads, err := clientThreads()
	if err != nil {
		return nil, err
	}
	// With -workload all and -aa one process runs many workloads; none may
	// inherit the heap, and so the collector's pacing, of the one before.
	debug.FreeOSMemory()
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	onExit(func() { os.RemoveAll(tmp) })
	r := newRecorder(w, cfg, threads)
	run := &workloadRun{w: w, cfg: cfg, threads: threads, tmp: tmp, rec: r}
	switch {
	case w.kind == kindWire && cfg.traced:
		err = run.wireTraced()
	case w.kind == kindWire:
		err = run.wire()
	case cfg.traced:
		err = run.libTraced()
	default:
		err = run.lib()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return r.finish(), nil
}

type workloadRun struct {
	w       workloadSpec
	cfg     runConfig
	threads int
	tmp     string
	rec     *recorder
	bin     string        // the built nrredis, "" until serverBin has run
	built   time.Duration // how long building it took
}

// serverBin builds cmd/nrredis once per run.
func (run *workloadRun) serverBin() (string, error) {
	if run.bin == "" {
		run.bin = run.cfg.serverBin
	}
	if run.bin == "" {
		bin, took, err := buildServer(run.cfg.root, run.cfg.scratch)
		if err != nil {
			return "", err
		}
		run.bin, run.built = bin, took
	}
	return run.bin, nil
}

// freshDir returns a new empty directory for one persistent instance.
func (run *workloadRun) freshDir() (string, error) {
	return os.MkdirTemp(run.tmp, "wal-")
}

// setupLibTimes sets the keyspace up n times and keeps the last.
func (run *workloadRun) setupLibTimes(w workloadSpec, n int, tr *libTrace) (*libInstance, []float64, error) {
	var li *libInstance
	var took []float64
	var spent time.Duration
	for i := 0; run.moreSetups(i, n, spent); i++ {
		if li != nil {
			li.close()
		}
		dir, err := run.freshDir()
		if err != nil {
			return nil, nil, err
		}
		var d time.Duration
		if li, d, err = setupLib(w, run.threads, dir, tr); err != nil {
			return nil, nil, err
		}
		took = append(took, d.Seconds())
		spent += d
	}
	return li, took, nil
}

// moreSetups decides whether to set up once more: always up to n times,
// and when n is the run's full count, on until the run's set-up budget is
// spent, so a 20ms set-up is timed some sixty times and a 200ms one seven.
func (run *workloadRun) moreSetups(done, n int, spent time.Duration) bool {
	return done < n || (n == run.cfg.setups && spent < run.cfg.setupBudget)
}

// lib is the untraced run of an in-process workload.
func (run *workloadRun) lib() error {
	li, setups, err := run.setupLibTimes(run.w, run.cfg.setups, nil)
	if err != nil {
		return err
	}
	defer li.close()
	p := li.run(run.w, run.cfg, run.cfg.seconds, run.cfg.rounds, nil)
	run.rec.check(li.verify(run.rec.countPhase(p))...)
	if err := run.rec.endToEnd(p, setups); err != nil {
		return err
	}
	p.threads = nil // mem_mb is the heap with the instance live, not the latency samples
	run.rec.set("mem_mb", heapInuseMB())
	if run.w.kind == kindDurable {
		_, err = run.epilogue()
	}
	return err
}

// epilogue runs lib-durable's fixed recovery exercise and books its checks.
func (run *workloadRun) epilogue() (epilogueResult, error) {
	dir, err := run.freshDir()
	if err != nil {
		return epilogueResult{}, err
	}
	ep, err := durableEpilogue(run.threads, dir, run.cfg.seed, run.cfg.epilogueOps)
	if err != nil {
		return ep, fmt.Errorf("recovery epilogue: %w", err)
	}
	run.rec.count(int64(run.cfg.epilogueOps), 0)
	run.rec.check(ep.checks...)
	return ep, nil
}
