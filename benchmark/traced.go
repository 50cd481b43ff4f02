package main

import (
	"os"
	"time"
)

// A traced run splits its measuring time three ways: an untraced phase
// (the reference the traced one is held against, and the source of every
// per-layer number that needs no spans), a comparison phase that differs
// from the workload in exactly one layer, and the traced phase itself. The
// wire workloads have no comparison phase and split it in halves.
const (
	untracedShare = 0.4
	compareShare  = 0.2
	tracedShare   = 0.4
	tracedRounds  = 4
)

func (cfg runConfig) share(s float64) time.Duration {
	return time.Duration(float64(cfg.seconds) * s)
}

// libTraced is the traced run of an in-process workload.
func (run *workloadRun) libTraced() error {
	rec, w, cfg := run.rec, run.w, run.cfg

	// Untraced phase, on the keyspace the end-to-end run uses.
	plain, err := run.libPhase(w, nil, cfg.share(untracedShare), tracedRounds, nil)
	if err != nil {
		return err
	}
	plainRate := median(plain.opsPerSec())
	rec.clientLatencyFrom(plain, 0)
	st0, st1 := plain.before.stats, plain.after.stats
	rec.set("core.batch_mean", ratio(float64(st1.CombinedOps-st0.CombinedOps), float64(st1.Combines-st0.Combines)))
	rec.set("core.helped_per_update", ratio(float64(st1.HelpedEntries-st0.HelpedEntries), float64(st1.UpdateOps-st0.UpdateOps)))
	rec.set("core.reader_refresh_share", ratio(float64(st1.ReaderRefreshes-st0.ReaderRefreshes), float64(st1.ReadOps-st0.ReadOps)))
	rec.set("core.allocs_per_op", ratio(float64(plain.after.mallocs-plain.before.mallocs), float64(plain.ops(-1))))

	// Comparison phase: the same op stream with one layer changed.
	var bareUpdateNs float64
	switch w.kind {
	case kindObserved: // without the observability stack: lib-mixed
		bare := w
		bare.kind = kindLib
		p, err := run.libPhase(bare, nil, cfg.share(compareShare), tracedRounds/2, nil)
		if err != nil {
			return err
		}
		rec.set("obs.overhead_pct", overheadPct(plainRate, median(p.opsPerSec())))
	case kindDurable:
		// Without the WAL, traced, so the update spans compare.
		bare := w
		bare.kind = kindLib
		tr := newLibTrace(run.threads)
		if _, err := run.libPhase(bare, tr, cfg.share(compareShare/2), tracedRounds/2, nil); err != nil {
			return err
		}
		bareUpdateNs = meanNsPerSpan(tr.logs(), spanHandleUpdate)
		// With the WAL's default 2ms group fsync, which the workload itself
		// leaves off (see workloadSpec.groupFsync).
		synced := w
		synced.groupFsync = true
		var lags []float64
		p, err := run.libPhase(synced, nil, cfg.share(compareShare/2), tracedRounds/2, func(li *libInstance) {
			if pg := li.inst.Metrics().Persist; pg != nil {
				lags = append(lags, float64(pg.DurableLag))
			}
		})
		if err != nil {
			return err
		}
		w0, w1 := p.before.wal, p.after.wal
		fsyncs := float64(w1.Fsyncs - w0.Fsyncs)
		rec.set("persist.fsync_overhead_pct", overheadPct(median(p.opsPerSec()), plainRate))
		rec.set("persist.ops_per_fsync", ratio(float64(w1.Appends-w0.Appends), fsyncs))
		rec.set("persist.fsync_ms_mean", ratio(float64(w1.FsyncNanos-w0.FsyncNanos)/1e6, fsyncs))
		rec.set("persist.seal_stalls", float64(w1.SealStalls-w0.SealStalls))
		rec.setOver("persist.durable_lag_ops", lags)
	}

	// Traced phase: spans around Handle.Execute and, through the
	// Sequential wrapper, around Store.Execute; an Observer counts the
	// protocol events Stats does not carry.
	tr := newLibTrace(run.threads)
	li, _, err := run.setupLibTimes(w, 1, tr)
	if err != nil {
		return err
	}
	defer li.close()
	tr.reset() // drop the preload's spans
	traced := li.run(w, cfg, cfg.share(tracedShare), tracedRounds, nil)
	acked := rec.countPhase(traced)
	rec.check(li.verify(acked)...)
	logs := tr.logs()
	rec.set("core.read_self_ns", selfNsPerSpan(logs, spanHandleRead))
	rec.set("core.update_self_ns", selfNsPerSpan(logs, spanHandleUpdate))
	execs, _ := spanTotals(logs, spanStoreUpdate)
	rec.set("store.execs_per_update", ratio(float64(execs), float64(acked)))
	o0, o1 := traced.before.observed, traced.after.observed
	tUpdates := float64(traced.ops(classUpdate))
	rec.set("core.combine_busy_share", ratio(float64(o1.combineNs-o0.combineNs), float64(traced.wall)*libNodes))
	rec.set("log.tail_retries_per_update", ratio(float64(o1.tailRetries-o0.tailRetries), tUpdates))
	rec.set("rwlock.writer_wait_share", ratio(float64(o1.writerWaits-o0.writerWaits),
		float64(traced.after.stats.WriterAcquires-traced.before.stats.WriterAcquires)))
	rec.set("core.mem_mb", float64(li.inst.MemoryBytes())/1e6)
	rec.set("bench.trace_overhead_pct", overheadPct(median(traced.opsPerSec()), plainRate))
	if w.kind == kindDurable {
		rec.set("persist.append_self_ns", meanNsPerSpan(logs, spanHandleUpdate)-bareUpdateNs)
		ep, err := run.epilogue()
		if err != nil {
			return err
		}
		rec.set("persist.wal_bytes_per_op", ratio(float64(ep.walBytes), float64(ep.replayed)))
		rec.set("persist.recover_s", ep.recoverS)
		rec.set("persist.recover_us_per_op", ratio(ep.recoverS*1e6, float64(ep.replayed)))
	}
	if err := run.dumpSpans(logs); err != nil {
		return err
	}
	return run.calibrate()
}

// libPhase sets w's keyspace up, runs one phase on it, verifies it and
// closes it. atRoundEnd (may be nil) sees the instance as each round closes.
func (run *workloadRun) libPhase(w workloadSpec, tr *libTrace, measure time.Duration, rounds int,
	atRoundEnd func(*libInstance)) (*phase, error) {
	li, _, err := run.setupLibTimes(w, 1, tr)
	if err != nil {
		return nil, err
	}
	defer li.close()
	var hook func(int)
	if atRoundEnd != nil {
		hook = func(int) { atRoundEnd(li) }
	}
	p := li.run(w, run.cfg, measure, rounds, hook)
	run.rec.check(li.verify(run.rec.countPhase(p))...)
	return p, nil
}

func (run *workloadRun) dumpSpans(logs []*spanLog) error {
	if run.cfg.spansOut == "" {
		return nil
	}
	f, err := os.Create(run.cfg.spansOut)
	if err != nil {
		return err
	}
	if err := writeSpans(f, logs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// calibrate adds the layer calibrations to a traced run.
func (run *workloadRun) calibrate() error {
	if _, err := run.serverBin(); err != nil {
		return err
	}
	run.rec.set("env.build_s", run.built.Seconds())
	m := map[string]float64{}
	if err := calibrate(run.w, run.threads, run.cfg.seed, run.cfg.calibBatch, m); err != nil {
		return err
	}
	for name, v := range m {
		run.rec.set(name, v)
	}
	return nil
}

// setupWireTimes starts and preloads the child n times and keeps the last.
func (run *workloadRun) setupWireTimes(n int) (*server, []float64, error) {
	bin, err := run.serverBin()
	if err != nil {
		return nil, nil, err
	}
	var s *server
	var took []float64
	var spent time.Duration
	for i := 0; run.moreSetups(i, n, spent); i++ {
		if s != nil {
			s.stop()
		}
		var d time.Duration
		if s, d, err = setupWire(bin); err != nil {
			return nil, nil, err
		}
		took = append(took, d.Seconds())
		spent += d
	}
	return s, took, nil
}

// verifyWire holds what the server answers for the whole set against the
// acked updates.
func verifyWire(addr string, acked int64) error {
	v, err := viewWire(addr)
	if err != nil {
		return err
	}
	return v.check(acked)
}

// wire is the untraced run of a wire workload.
func (run *workloadRun) wire() error {
	s, setups, err := run.setupWireTimes(run.cfg.setups)
	if err != nil {
		return err
	}
	defer s.stop()
	p, err := runWirePhase(run.w, run.cfg, s.target(), run.threads, run.cfg.seconds, run.cfg.rounds, nil)
	if err != nil {
		return err
	}
	run.rec.check(verifyWire(s.addr, run.rec.countPhase(p)))
	if err := run.rec.endToEnd(p, setups); err != nil {
		return err
	}
	run.rec.set("mem_mb", procRSSMB(s.cmd.Process.Pid))
	return nil
}

// wireTraced is the traced run of a wire workload: an untraced phase
// against the child, then the same clients against an in-process server
// whose connections record a span around every Read and Write it makes.
func (run *workloadRun) wireTraced() error {
	rec, w, cfg := run.rec, run.w, run.cfg
	s, _, err := run.setupWireTimes(1)
	if err != nil {
		return err
	}
	plain, err := runWirePhase(w, cfg, s.target(), run.threads, cfg.seconds/2, tracedRounds, nil)
	if err == nil {
		rec.check(verifyWire(s.addr, rec.countPhase(plain)))
		rec.set("server.rss_mb", procRSSMB(s.cmd.Process.Pid))
	}
	s.stop()
	if err != nil {
		return err
	}
	rec.clientLatencyFrom(plain, w.depth)
	st0, st1 := plain.before.stats, plain.after.stats
	rec.set("server.batch_mean", ratio(float64(st1.CombinedOps-st0.CombinedOps), float64(st1.Combines-st0.Combines)))

	ts, err := startTracedServer()
	if err != nil {
		return err
	}
	if err := preloadWire(ts.ln.Addr().String()); err != nil {
		ts.close()
		return err
	}
	ts.ln.reset()
	clientLogs := make([]*spanLog, run.threads)
	for t := range clientLogs {
		clientLogs[t] = newSpanLog()
	}
	traced, err := runWirePhase(w, cfg, ts.target(), run.threads, cfg.seconds/2, tracedRounds, clientLogs)
	logs := ts.ln.spanLogs() // the clients' connections, not the verification's below
	if err == nil {
		rec.check(verifyWire(ts.ln.Addr().String(), rec.countPhase(traced)))
	}
	ts.close() // waits for every handler, so the span logs are quiescent
	if err != nil {
		return err
	}
	// Every command of the phase, warm-up included, crossed the traced
	// connections, so the per-request ratios count them all.
	var cmds float64
	for _, tl := range traced.threads {
		for _, ops := range tl.ops {
			cmds += float64(ops[classRead] + ops[classUpdate])
		}
	}
	nReads, _ := spanTotals(logs, spanServerRead)
	nWrites, _ := spanTotals(logs, spanServerWrite)
	rec.set("server.reads_per_req", ratio(float64(nReads), cmds))
	rec.set("server.writes_per_req", ratio(float64(nWrites), cmds))
	rec.set("server.read_wait_us", meanNsPerSpan(logs, spanServerRead)/1e3)
	rec.set("server.write_us", meanNsPerSpan(logs, spanServerWrite)/1e3)
	rec.set("bench.trace_overhead_pct", overheadPct(median(traced.opsPerSec()), median(plain.opsPerSec())))
	if err := run.dumpSpans(append(logs, clientLogs...)); err != nil {
		return err
	}
	if err := run.calibrate(); err != nil {
		return err
	}

	// The ledger: the client-observed median per command, attributed row by
	// row; what no row measured from outside is the server's conn-to-worker
	// handoff and scheduling, printed as the residual so the rows sum.
	perCmd := rec.res.Metrics["client.req_p50_us"].Value / float64(w.depth)
	rows := []ledgerRow{
		{"env.loopback_rtt_us", rec.res.Metrics["env.loopback_rtt_us"].Value / float64(w.depth)},
		{"client.encode_ns", rec.res.Metrics["client.encode_ns"].Value / 1e3},
		{"resp.parse_ns", rec.res.Metrics["resp.parse_ns"].Value / 1e3},
		{"resp.reply_ns", rec.res.Metrics["resp.reply_ns"].Value / 1e3},
		{"server.direct_ns", rec.res.Metrics["server.direct_ns"].Value / 1e3},
	}
	residual := perCmd
	for _, row := range rows {
		residual -= row.Us
	}
	rec.set("server.handoff_us", residual)
	rec.res.Ledger = append(rows, ledgerRow{"server.handoff_us", residual}, ledgerRow{"client rtt per command (p50)", perCmd})
	return nil
}
