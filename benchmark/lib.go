package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	nr "github.com/asplos17/nr"
	"github.com/asplos17/nr/internal/miniredis"
	"github.com/asplos17/nr/internal/topology"
	"github.com/asplos17/nr/internal/trace"
)

type (
	storeOp  = miniredis.StoreOp
	storeRes = miniredis.StoreResult
)

const (
	libNodes  = 2
	storeSeed = 1 // replica determinism seed, nrredis's default
)

// libInstance is one in-process keyspace with its per-thread executors;
// thread t is bound to node t%2 so both replicas are live.
type libInstance struct {
	execs []executor
	inst  *nr.Instance[storeOp, storeRes] // nil when built through miniredis.Shared
	stats func() nr.Stats
	close func()
	trace *libTrace // nil on an untraced instance
}

func newStore() nr.Sequential[storeOp, storeRes] { return miniredis.NewStore(storeSeed) }

// nrredis runs by default with the metrics observer, a 4096-slot flight
// recorder and 1s x 120 telemetry; NewSharedTraced adds the topology and
// WithMetrics itself, these two are the rest of that stack.
func observedRecorder() *trace.Recorder { return trace.New(trace.Config{RingSlots: 4096}) }

func telemetryOption() nr.Option { return nr.WithTelemetry(time.Second, 120) }

// buildLib constructs the workload's keyspace and registers one handle per
// client, once: Register has no release, so the handles are reused across
// every round and phase of the instance.
func buildLib(w workloadSpec, threads int, dir string, tr *libTrace) (*libInstance, error) {
	li := &libInstance{trace: tr}
	create := newStore
	var extra []nr.Option
	if tr != nil {
		create = tr.newStore
		extra = append(extra, nr.WithObserver(&tr.observed))
	}
	topo := []nr.Option{nr.WithNodes(libNodes, threads, 1)}
	switch {
	case w.kind == kindObserved && tr == nil:
		// Exactly as nrredis builds it; executors come from Shared.Register,
		// which fills node 0 first, so take both nodes' worth and hand
		// thread t the one on node t%2.
		shared, err := miniredis.NewSharedTraced(miniredis.MethodNR, topology.New(libNodes, threads, 1),
			storeSeed, observedRecorder(), telemetryOption())
		if err != nil {
			return nil, err
		}
		all := make([]executor, libNodes*threads)
		for i := range all {
			if all[i], err = shared.Register(); err != nil {
				return nil, err
			}
		}
		for t := 0; t < threads; t++ {
			li.execs = append(li.execs, all[(t%libNodes)*threads+t/libNodes])
		}
		src := shared.(miniredis.MetricsSource)
		li.stats = func() nr.Stats { return src.Metrics().Stats }
		li.close = func() { shared.(miniredis.TelemetrySource).Telemetry().Close() }
		return li, nil
	case w.kind == kindObserved:
		// The traced pass needs the Sequential wrapper, which Shared cannot
		// take, so it assembles the same stack by hand.
		extra = append(extra, nr.WithMetrics(), nr.WithFlightRecorderInstance(observedRecorder()), telemetryOption())
	case w.kind == kindDurable:
		var tuning []nr.PersistOption
		if !w.groupFsync {
			tuning = append(tuning, nr.WithFsyncNever())
		}
		extra = append(extra, nr.WithPersistence[storeOp](dir, miniredis.StoreCodec{}, tuning...))
	}
	inst, err := nr.New(create, append(topo, extra...)...)
	if err != nil {
		return nil, err
	}
	li.inst, li.stats = inst, inst.Stats
	stopPruning := func() {}
	if w.kind == kindDurable {
		stopPruning = pruneSegments(dir)
	}
	li.close = func() {
		stopPruning()
		inst.Close()
		os.RemoveAll(dir)
	}
	for t := 0; t < threads; t++ {
		h, err := inst.RegisterOnNode(t % libNodes)
		if err != nil {
			inst.Close()
			return nil, err
		}
		li.execs = append(li.execs, h)
	}
	if tr != nil {
		for node := 0; node < libNodes; node++ {
			inst.Inspect(node, func(s nr.Sequential[storeOp, storeRes]) { s.(*tracedStore).node = node })
		}
	}
	return li, nil
}

// pruneSegments deletes, ten times a second, every WAL segment in dir but
// the newest, until the returned stop is called. A measured durable instance
// is never recovered from, and at 25 MB/s its log would otherwise leave
// hundreds of megabytes of dirty pages per run: the kernel throttles the
// WAL's own writes against the slow virtual disk (rounds of one run ranged
// 69k to 328k ops/s) and the writeback slows the runs that follow for a
// minute or two. An unlinked segment's pages are dropped instead. This is
// a checkpoint's pruning, done from outside.
func pruneSegments(dir string) (stop func()) {
	done, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			// Names sort by generation, then sequence number.
			segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
			for _, seg := range segs[:max(0, len(segs)-1)] {
				os.Remove(seg)
			}
		}
	}()
	return func() {
		close(done)
		<-stopped
	}
}

// preload writes the 10 000 members through executor 0 and then reads once
// on node 1, which replays them there: after it both replicas are ready.
func (li *libInstance) preload() error {
	for k := range members {
		if res := li.execs[0].Execute(preloadOp(k)); res.Err != "" || res.Int != 1 {
			return fmt.Errorf("preload ZADD %s: %+v", members[k], res)
		}
	}
	if res := li.execs[1].Execute(storeOp{Cmd: miniredis.CmdZCard, Key: zsetKey}); res.Int != zsetSize {
		return fmt.Errorf("preload: node 1 sees ZCARD %d", res.Int)
	}
	return nil
}

// setupLib times construction to preloaded-and-ready.
func setupLib(w workloadSpec, threads int, dir string, tr *libTrace) (*libInstance, time.Duration, error) {
	t0 := time.Now()
	li, err := buildLib(w, threads, dir, tr)
	if err != nil {
		return nil, 0, err
	}
	if err := li.preload(); err != nil {
		li.close()
		return nil, 0, err
	}
	return li, time.Since(t0), nil
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapInuseMB is the live heap after two collections (the second frees
// what the first's finalizers released).
func heapInuseMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / 1e6
}

func (li *libInstance) read() counters {
	c := counters{cpu: selfCPU(), mallocs: mallocs(), stats: li.stats()}
	if li.inst != nil {
		c.wal, _ = li.inst.WALStats()
	}
	if li.trace != nil {
		c.observed = li.trace.observed.read()
	}
	return c
}

// run drives one phase of the workload's mix over the instance's handles.
func (li *libInstance) run(w workloadSpec, cfg runConfig, measure time.Duration, rounds int, atRoundEnd func(int)) *phase {
	return runPhase(len(li.execs), cfg.warm, measure, rounds, li.read, atRoundEnd,
		func(t int, tl *threadLog, ends []time.Time) {
			g := newOpGen(cfg.seed, t, w.updatePermille)
			if li.trace != nil {
				tl.runLibTraced(li.execs[t], g, ends, li.trace, t)
			} else {
				tl.runLib(li.execs[t], g, ends)
			}
		})
}

// keyspaceView is what one replica answers for the whole sorted set.
type keyspaceView struct {
	card        int64
	scoreSum    float64
	fingerprint uint64
}

// viewThrough reads the sorted set through ex, which is bound to one node,
// so the answer is that node's replica brought up to date.
func viewThrough(ex executor) (keyspaceView, error) {
	var v keyspaceView
	v.card = ex.Execute(storeOp{Cmd: miniredis.CmdZCard, Key: zsetKey}).Int
	res := ex.Execute(storeOp{Cmd: miniredis.CmdZRange, Key: zsetKey, Start: 0, Stop: -1, WithScores: true})
	if res.Err != "" {
		return v, errors.New(res.Err)
	}
	return v, v.fold(res.Members)
}

// fold sums the scores and fingerprints the member/score sequence of a
// ZRANGE ... WITHSCORES answer.
func (v *keyspaceView) fold(withScores []string) error {
	h := fnv.New64a()
	for i := 0; i+1 < len(withScores); i += 2 {
		sc, err := strconv.ParseFloat(withScores[i+1], 64)
		if err != nil {
			return fmt.Errorf("score of %s: %w", withScores[i], err)
		}
		v.scoreSum += sc
		h.Write([]byte(withScores[i]))
		h.Write([]byte{0})
		h.Write([]byte(withScores[i+1]))
		h.Write([]byte{0})
	}
	v.fingerprint = h.Sum64()
	return nil
}

// check holds a view against what the run acknowledged: all members
// present, and the scores grown by exactly the acked increments.
func (v keyspaceView) check(acked int64) error {
	if v.card != zsetSize {
		return fmt.Errorf("ZCARD %d, want %d", v.card, zsetSize)
	}
	if want := float64(preloadScoreSum + acked); v.scoreSum != want {
		return fmt.Errorf("score sum %.0f, want %.0f (preload + %d acked ZINCRBY)", v.scoreSum, want, acked)
	}
	return nil
}

// verify quiesces the instance and holds every replica against the acked
// updates and against each other. It returns one entry per check, nil for
// a check that passed.
func (li *libInstance) verify(acked int64) []error {
	if li.inst != nil {
		li.inst.Quiesce()
	}
	var checks []error
	var views [libNodes]keyspaceView
	for node := range views {
		v, err := viewThrough(li.execs[node])
		if err == nil {
			err = v.check(acked)
		}
		if err != nil {
			err = fmt.Errorf("replica %d: %w", node, err)
		}
		checks = append(checks, err)
		views[node] = v
	}
	var err error
	if views[0].fingerprint != views[1].fingerprint {
		err = fmt.Errorf("replica fingerprints differ: %x vs %x", views[0].fingerprint, views[1].fingerprint)
	}
	return append(checks, err)
}

// epilogueResult is the fixed lib-durable recovery exercise.
type epilogueResult struct {
	walBytes int64
	recoverS float64
	replayed int
	checks   []error // one entry per check, nil for a check that passed
}

// durableEpilogue writes exactly ops ZINCRBYs to a fresh durable
// instance, syncs and closes it, then times nr.Recover and checks that
// what was acknowledged was recovered.
func durableEpilogue(threads int, dir string, seed uint64, ops int) (epilogueResult, error) {
	var out epilogueResult
	opts := []nr.Option{nr.WithNodes(libNodes, threads, 1)}
	inst, err := nr.New(newStore, append(opts, nr.WithPersistence[storeOp](dir, miniredis.StoreCodec{}))...)
	if err != nil {
		return out, err
	}
	handles := make([]*nr.Handle[storeOp, storeRes], threads)
	for t := range handles {
		if handles[t], err = inst.RegisterOnNode(t % libNodes); err != nil {
			inst.Close()
			return out, err
		}
	}
	tokens := make([]uint64, threads)
	bad := make([]int64, threads)
	var wg sync.WaitGroup
	for t, h := range handles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := newOpGen(seed, t, 1000)
			for i := t; i < ops; i += threads {
				k, _ := g.next()
				if !validScore(0, h.Execute(updateOp(k)).Score) {
					bad[t]++
				}
			}
			tokens[t] = h.LastToken()
		}()
	}
	wg.Wait()
	inst.Quiesce()
	before, err := viewThrough(handles[0])
	if err == nil {
		err = inst.SyncWAL()
	}
	inst.Close()
	if err != nil {
		return out, err
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		return out, err
	}
	for _, s := range segs {
		fi, err := os.Stat(s)
		if err != nil {
			return out, err
		}
		out.walBytes += fi.Size()
	}

	t0 := time.Now()
	rec, err := nr.Recover(dir, func(data []byte) (nr.Sequential[storeOp, storeRes], error) {
		return miniredis.RestoreStore(data, storeSeed)
	}, miniredis.StoreCodec{}, opts...)
	out.recoverS = time.Since(t0).Seconds()
	if err != nil {
		return out, err
	}
	defer rec.Close()
	out.replayed = rec.ReplayedOps()

	check := func(ok bool, format string, args ...any) {
		var err error
		if !ok {
			err = fmt.Errorf("epilogue: "+format, args...)
		}
		out.checks = append(out.checks, err)
	}
	for t := range bad {
		check(bad[t] == 0, "thread %d saw %d invalid ZINCRBY replies", t, bad[t])
		check(rec.WasExecuted(tokens[t]), "thread %d's last acked op (token %x) was not recovered", t, tokens[t])
	}
	check(out.replayed == ops, "replayed %d ops, want %d", out.replayed, ops)
	h, err := rec.RegisterOnNode(0)
	if err != nil {
		return out, err
	}
	after, err := viewThrough(h)
	if err != nil {
		return out, err
	}
	check(after == before, "recovered keyspace %+v differs from the pre-close keyspace %+v", after, before)
	check(after.scoreSum == float64(ops), "recovered score sum %.0f, want %d", after.scoreSum, ops)
	return out, nil
}

// libTrace is the traced run's benchmark-side recording for one instance:
// span logs per client thread and per replica, the cells clients publish
// their open span in, and the observer counting protocol events.
type libTrace struct {
	threads  []*spanLog
	replicas []*spanLog
	cells    []spanCell
	onNode   [libNodes][]int // client threads bound to each node
	observed observedCounter
}

// spanCell is a client's open Handle.Execute span: 0 when idle, otherwise
// seq<<2 | 2 | class.
type spanCell struct {
	v atomic.Uint64
	_ [56]byte
}

func newLibTrace(threads int) *libTrace {
	tr := &libTrace{cells: make([]spanCell, threads)}
	for t := 0; t < threads; t++ {
		tr.threads = append(tr.threads, newSpanLog())
		tr.onNode[t%libNodes] = append(tr.onNode[t%libNodes], t)
	}
	for node := 0; node < libNodes; node++ {
		tr.replicas = append(tr.replicas, newSpanLog())
	}
	return tr
}

// reset empties the span logs.
func (tr *libTrace) reset() {
	for i := range tr.threads {
		tr.threads[i] = newSpanLog()
	}
	for i := range tr.replicas {
		tr.replicas[i] = newSpanLog()
	}
}

func (tr *libTrace) logs() []*spanLog {
	return append(append([]*spanLog(nil), tr.threads...), tr.replicas...)
}

func (tr *libTrace) newStore() nr.Sequential[storeOp, storeRes] {
	return &tracedStore{Store: miniredis.NewStore(storeSeed), tr: tr}
}

// tracedStore is the Sequential handed to nr.New in a traced run: the real
// Store with a span around Execute. (It stays a Snapshotter through the
// embedded Store.)
type tracedStore struct {
	*miniredis.Store
	tr   *libTrace
	node int
}

// Execute records the Store.Execute child span and names the span that
// caused it. A client's own read is tagged with its thread in op.Start
// (unused by ZRANK) and always runs on that client's goroutine. An update
// runs under the replica's write lock on whichever goroutine is combining
// or refreshing on this node; nothing says which from outside, so it is
// charged to the client of this node that has a span open, preferring an
// update span when a read and an update are both open (with one client per
// node, the T=2 case, there is no choice to make). With no span open on
// the node the caller is a helper from the other node and the span has no
// parent.
func (s *tracedStore) Execute(op storeOp) storeRes {
	if op.Cmd == miniredis.CmdZRank && op.Start > 0 {
		t := op.Start - 1
		t0 := now()
		res := s.Store.Execute(op)
		s.tr.threads[t].add(spanStoreRead, spanHandleRead, uint64(t)<<48|s.tr.cells[t].v.Load()>>2, t0, now())
		return res
	}
	if miniredis.IsReadOnlyOp(op) {
		return s.Store.Execute(op) // verification reads
	}
	parent, request := spanNone, uint64(0)
	for _, t := range s.tr.onNode[s.node] {
		c := s.tr.cells[t].v.Load()
		if c == 0 {
			continue
		}
		kind := spanHandleRead + spanKind(c&1)
		if parent == spanNone || kind == spanHandleUpdate {
			parent, request = kind, uint64(t)<<48|c>>2
		}
	}
	t0 := now()
	res := s.Store.Execute(op)
	s.tr.replicas[s.node].add(spanStoreUpdate, parent, request, t0, now())
	return res
}

// runLibTraced is runLib with a span around every Handle.Execute.
func (tl *threadLog) runLibTraced(ex executor, g *opGen, ends []time.Time, tr *libTrace, t int) {
	log, cell := tr.threads[t], &tr.cells[t].v
	var seq uint64
	for r, end := range ends {
		tl.bounds[r] = len(tl.samples)
		endNs := int64(end.Sub(epoch))
		var ops [2]int64
		start := now()
		for {
			t0 := now()
			if t0 >= endNs {
				break
			}
			k, update := g.next()
			seq++
			var res storeRes
			var kind spanKind
			if update {
				kind = spanHandleUpdate
				cell.Store(seq<<2 | 2 | classUpdate)
				res = ex.Execute(updateOp(k))
			} else {
				kind = spanHandleRead
				cell.Store(seq<<2 | 2 | classRead)
				op := readOp(k)
				op.Start = t + 1
				res = ex.Execute(op)
			}
			t1 := now()
			cell.Store(0)
			log.add(kind, spanNone, uint64(t)<<48|seq, t0, t1)
			tl.book(k, update, res, &ops)
			if seq%libSampleEvery == 0 {
				tl.sample(time.Duration(t1-t0), int(kind-spanHandleRead))
			}
		}
		tl.elapsed[r] = time.Duration(now() - start)
		tl.ops[r] = ops
	}
	tl.bounds[len(ends)] = len(tl.samples)
}

// observedCounts are protocol events an nr.Observer sees that Stats does
// not carry.
type observedCounts struct {
	combineNs   int64 // time inside combining rounds, all nodes
	tailRetries int64 // failed CAS attempts on the log tail
	writerWaits int64 // write-lock acquisitions that had to wait for readers
}

// observedCounter is the traced run's nr.Observer, one padded set of
// counters per node.
type observedCounter struct {
	nr.NopObserver
	node [libNodes]struct {
		combineNs, tailRetries, writerWaits atomic.Int64
		_                                   [40]byte
	}
}

func (o *observedCounter) CombineEnd(node, _, _ int, elapsed time.Duration) {
	o.node[node].combineNs.Add(int64(elapsed))
}
func (o *observedCounter) LogTailRetry(node, retries int) {
	o.node[node].tailRetries.Add(int64(retries))
}
func (o *observedCounter) WriterWait(node, _ int) { o.node[node].writerWaits.Add(1) }

func (o *observedCounter) read() observedCounts {
	var c observedCounts
	for n := range o.node {
		c.combineNs += o.node[n].combineNs.Load()
		c.tailRetries += o.node[n].tailRetries.Load()
		c.writerWaits += o.node[n].writerWaits.Load()
	}
	return c
}
