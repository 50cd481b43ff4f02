package core

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/asplos17/nr/internal/obs"
	"github.com/asplos17/nr/internal/topology"
	"github.com/asplos17/nr/internal/waittest"
)

// mlOp is the multi-log test operation: a per-class counter bump or read,
// plus a cross-class sum. Classes index disjoint cells, so different
// classes commute and tolerate concurrent application.
type mlOp struct {
	kind  uint8 // 0 add, 1 read cell, 2 sum all (cross)
	class int
	delta int64
}

// mlCells is the partitioned structure: one cell per conflict class. Adds
// of different classes touch different cells (commute, thread-safe via
// per-cell isolation is NOT needed — per-class combiners serialize within
// a class, and cross ops run under every lock — but different-class adds
// may interleave, which disjoint cells tolerate).
type mlCells struct {
	cells []int64
}

func (c *mlCells) Execute(op mlOp) int64 {
	switch op.kind {
	case 0:
		c.cells[op.class] += op.delta
		return c.cells[op.class]
	case 1:
		return c.cells[op.class]
	default:
		var sum int64
		for _, v := range c.cells {
			sum += v
		}
		return sum
	}
}

func (c *mlCells) IsReadOnly(op mlOp) bool { return op.kind != 0 }

func mlMapper(m int) func(mlOp) int {
	return func(op mlOp) int {
		if op.kind == 2 {
			return CrossLog
		}
		return op.class
	}
}

func newMultiLog(t *testing.T, m int, opts Options) *Instance[mlOp, int64] {
	t.Helper()
	waittest.Deadline(t)
	opts.Logs = m
	opts.LogMapper = mlMapper(m)
	if opts.Topology == (topology.Topology{}) {
		opts.Topology = topology.New(2, 4, 1)
	}
	inst, err := New(func() Sequential[mlOp, int64] {
		return &mlCells{cells: make([]int64, m)}
	}, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return inst
}

// TestMultiLogGating pins the constructor's multi-log compatibility rules.
func TestMultiLogGating(t *testing.T) {
	create := func() Sequential[mlOp, int64] { return &mlCells{cells: make([]int64, 4)} }
	top := topology.New(2, 2, 1)

	if _, err := New(create, Options{Topology: top, Logs: 4}); err == nil ||
		!strings.Contains(err.Error(), "LogMapper") {
		t.Fatalf("Logs>1 without mapper: got %v, want LogMapper error", err)
	}
	if _, err := New(create, Options{Topology: top, Logs: 4, LogMapper: "not a func"}); err == nil ||
		!strings.Contains(err.Error(), "func(O) int") {
		t.Fatalf("bad mapper type: got %v, want type error", err)
	}
	if _, err := New(create, Options{Topology: top, Logs: maxLogs + 1, LogMapper: mlMapper(maxLogs + 1)}); err == nil ||
		!strings.Contains(err.Error(), "maximum") {
		t.Fatalf("Logs>maxLogs: got %v, want range error", err)
	}

	inst := newMultiLog(t, 4, Options{})
	if got := inst.Logs(); got != 4 {
		t.Fatalf("Logs() = %d, want 4", got)
	}
	if _, err := inst.Follow(); err == nil || !strings.Contains(err.Error(), "multi-log") {
		t.Fatalf("Follow on multi-log: got %v, want refusal", err)
	}
}

// TestMultiLogSequential drives every op shape through a multi-log
// instance from one goroutine and checks exact results.
func TestMultiLogSequential(t *testing.T) {
	const m = 4
	inst := newMultiLog(t, m, Options{})
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	var want [m]int64
	for k := 0; k < 100; k++ {
		c := k % m
		want[c] += int64(k)
		if got := h.Execute(mlOp{kind: 0, class: c, delta: int64(k)}); got != want[c] {
			t.Fatalf("add %d to class %d = %d, want %d", k, c, got, want[c])
		}
	}
	var sum int64
	for c := 0; c < m; c++ {
		sum += want[c]
		if got := h.Execute(mlOp{kind: 1, class: c}); got != want[c] {
			t.Fatalf("read class %d = %d, want %d", c, got, want[c])
		}
	}
	if got := h.Execute(mlOp{kind: 2}); got != sum {
		t.Fatalf("cross sum = %d, want %d", got, sum)
	}
	// Cross READS snapshot under the read locks without a ticket, so they
	// never show up in CrossOps (which counts ticketed cross updates).
	if cross := inst.stats().CrossOps; cross != 0 {
		t.Fatalf("CrossOps = %d, want 0 (cross reads are not ticketed)", cross)
	}
	// Every replica converges to the same cells.
	inst.Quiesce()
	for n := 0; n < inst.Replicas(); n++ {
		inst.InspectReplica(n, func(ds Sequential[mlOp, int64]) {
			cells := ds.(*mlCells).cells
			for c := range cells {
				if cells[c] != want[c] {
					t.Errorf("replica %d class %d = %d, want %d", n, c, cells[c], want[c])
				}
			}
		})
	}
}

// TestMultiLogConcurrent hammers a multi-log instance from every thread of
// a 2-node topology with per-class adds, class reads, and cross sums, then
// checks totals and replica convergence.
func TestMultiLogConcurrent(t *testing.T) {
	const (
		m       = 4
		perGoro = 300
	)
	inst := newMultiLog(t, m, Options{Topology: topology.New(2, 4, 1)})
	threads := inst.opts.Topology.TotalThreads()
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		h, err := inst.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, h *Handle[mlOp, int64]) {
			defer wg.Done()
			for k := 0; k < perGoro; k++ {
				switch k % 5 {
				case 0, 1, 2:
					h.Execute(mlOp{kind: 0, class: (g + k) % m, delta: 1})
				case 3:
					h.Execute(mlOp{kind: 1, class: k % m})
				default:
					if got := h.Execute(mlOp{kind: 2}); got < 0 {
						t.Errorf("cross sum went negative: %d", got)
					}
				}
			}
		}(g, h)
	}
	wg.Wait()
	var wantTotal int64
	for k := 0; k < perGoro; k++ {
		if k%5 < 3 {
			wantTotal++
		}
	}
	wantTotal *= int64(threads)
	inst.Quiesce()
	var ref []int64
	for n := 0; n < inst.Replicas(); n++ {
		inst.InspectReplica(n, func(ds Sequential[mlOp, int64]) {
			cells := ds.(*mlCells).cells
			var sum int64
			for _, v := range cells {
				sum += v
			}
			if sum != wantTotal {
				t.Errorf("replica %d total = %d, want %d", n, sum, wantTotal)
			}
			if ref == nil {
				ref = append([]int64(nil), cells...)
				return
			}
			for c := range cells {
				if cells[c] != ref[c] {
					t.Errorf("replica %d class %d = %d, replica 0 has %d", n, c, cells[c], ref[c])
				}
			}
		})
	}
	// Only cross updates are ticketed; this workload's cross ops are all
	// reads, so the counter stays at zero.
	if st := inst.stats(); st.CrossOps != 0 {
		t.Errorf("CrossOps = %d, want 0 (read-only cross ops)", st.CrossOps)
	}
}

// TestMultiLogCrossUpdateConcurrent mixes cross-class UPDATES with
// class-local updates, cross-class reads and replica inspections: a cross
// add that bumps every cell, racing per-class adds, sums that hold every
// log's read lock and InspectReplica, which holds every log's write lock,
// must leave all replicas identical and totals exact.
func TestMultiLogCrossUpdateConcurrent(t *testing.T) {
	const m = 3
	inst2 := newCrossCells(t, m, Options{Topology: topology.New(2, 3, 1)})
	threads := 6
	const perGoro = 2000
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		h, err := inst2.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, h *Handle[mlOp, int64]) {
			defer wg.Done()
			for k := 0; k < perGoro; k++ {
				switch k % 10 {
				case 0:
					h.Execute(mlOp{kind: 3, delta: 1}) // cross add: +1 to every cell
				case 5:
					h.Execute(mlOp{kind: 2}) // cross sum
				default:
					h.Execute(mlOp{kind: 0, class: (g + k) % m, delta: 1})
				}
			}
		}(g, h)
	}
	stop := make(chan struct{})
	inspected := make(chan struct{})
	go func() {
		defer close(inspected)
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			inst2.InspectReplica(n%inst2.Replicas(), func(Sequential[mlOp, int64]) {})
		}
	}()
	wg.Wait()
	close(stop)
	<-inspected
	crossAdds := int64(threads) * (perGoro / 10)
	localAdds := int64(threads)*perGoro - 2*crossAdds
	wantTotal := localAdds + crossAdds*int64(m)
	inst2.Quiesce()
	var ref []int64
	for n := 0; n < inst2.Replicas(); n++ {
		inst2.InspectReplica(n, func(ds Sequential[mlOp, int64]) {
			cells := ds.(*mlCrossCells).cells
			var sum int64
			for _, v := range cells {
				sum += v
			}
			if sum != wantTotal {
				t.Errorf("replica %d total = %d, want %d", n, sum, wantTotal)
			}
			if ref == nil {
				ref = append([]int64(nil), cells...)
				return
			}
			for c := range cells {
				if cells[c] != ref[c] {
					t.Errorf("replica %d class %d = %d, replica 0 has %d", n, c, cells[c], ref[c])
				}
			}
		})
	}
	if st := inst2.stats(); st.CrossOps != uint64(crossAdds) {
		t.Errorf("CrossOps = %d, want %d", st.CrossOps, crossAdds)
	}
}

// mlCrossCells extends mlCells with kind 3 = cross add (+delta to every
// cell) — an update spanning all conflict classes.
type mlCrossCells struct {
	mlCells
}

func (c *mlCrossCells) Execute(op mlOp) int64 {
	if op.kind == 3 {
		var sum int64
		for i := range c.cells {
			c.cells[i] += op.delta
			sum += c.cells[i]
		}
		return sum
	}
	return c.mlCells.Execute(op)
}

func (c *mlCrossCells) IsReadOnly(op mlOp) bool { return op.kind == 1 || op.kind == 2 }

// crossCellsMapper maps mlCrossCells' kinds 2 (sum) and 3 (cross add) to
// CrossLog and the rest to their class.
func crossCellsMapper(op mlOp) int {
	if op.kind >= 2 {
		return CrossLog
	}
	return op.class
}

// newCrossCells builds an m-log instance of mlCrossCells.
func newCrossCells(t *testing.T, m int, opts Options) *Instance[mlOp, int64] {
	t.Helper()
	waittest.Deadline(t)
	opts.Logs = m
	opts.LogMapper = crossCellsMapper
	inst, err := New(func() Sequential[mlOp, int64] {
		return &mlCrossCells{mlCells{cells: make([]int64, m)}}
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestCrossBarrierOnEveryReplayPath drives each path that can meet a
// cross-log barrier on a replica lagging it — a combiner catching up, an
// elected reader refreshing, a quiesce, an appender
// draining its own replica on a full log, and a helper on a full log — and
// checks that the lagging replica applies the cross op. Each path must
// release its replica writer lock before it runs the cross applier, which
// takes every log's (§5.5): a path that holds it deadlocks, and
// waittest.Deadline names the subtest.
func TestCrossBarrierOnEveryReplayPath(t *testing.T) {
	const logEntries = 16
	// setup builds two nodes on two logs and has node `from` add 5 to every
	// cell through a cross op, so the other node's replica lags a barrier in
	// log 1 and the cross entry in log 0.
	setup := func(t *testing.T, opts Options, from int) (*Instance[mlOp, int64], [2]*Handle[mlOp, int64]) {
		opts.Topology = topology.New(2, 2, 1)
		inst := newCrossCells(t, 2, opts)
		h := [2]*Handle[mlOp, int64]{registerCross(t, inst, 0), registerCross(t, inst, 1)}
		h[from].Execute(mlOp{kind: 3, delta: 5})
		return inst, h
	}
	holds := func(t *testing.T, inst *Instance[mlOp, int64], node int, want ...int64) {
		t.Helper()
		inst.InspectReplica(node, func(ds Sequential[mlOp, int64]) {
			if got := ds.(*mlCrossCells).cells; !slices.Equal(got, want) {
				t.Errorf("replica %d holds %v, want %v", node, got, want)
			}
		})
	}

	t.Run("combiner", func(t *testing.T) {
		_, h := setup(t, Options{}, 0)
		if got := h[1].Execute(mlOp{kind: 0, class: 1, delta: 1}); got != 6 {
			t.Errorf("class-1 add behind the barrier = %d, want 6", got)
		}
	})
	t.Run("reader-refresh", func(t *testing.T) {
		_, h := setup(t, Options{}, 0)
		if got := h[1].Execute(mlOp{kind: 1, class: 1}); got != 5 {
			t.Errorf("class-1 read behind the barrier = %d, want 5", got)
		}
	})
	t.Run("quiesce", func(t *testing.T) {
		inst, _ := setup(t, Options{}, 0)
		inst.Quiesce()
		holds(t, inst, 1, 5, 5)
	})
	// On a full log: node 1 fills log 1 behind the barrier that node 0's
	// replica lags, and the op that finds it full is node 0's own (it
	// drains its replica) or node 1's (it helps node 0's).
	for _, appender := range []int{0, 1} {
		name := map[int]string{0: "full-log-drain", 1: "full-log-help"}[appender]
		t.Run(name, func(t *testing.T) {
			inst, h := setup(t, Options{LogEntries: logEntries}, 1)
			for range logEntries - 1 {
				h[1].Execute(mlOp{kind: 0, class: 1, delta: 1})
			}
			if got, want := h[appender].Execute(mlOp{kind: 0, class: 1, delta: 1}), int64(5+logEntries); got != want {
				t.Errorf("class-1 add on the full log = %d, want %d", got, want)
			}
			if inst.replicas[0].crossDone.Load() != 1 {
				t.Error("the full log was freed without node 0's replica applying the cross op")
			}
			holds(t, inst, 0, 5, 5+logEntries)
		})
	}
}

// mlTicketCells is mlCrossCells recording the delta of every cross add it
// applies. TestCrossTicketIsTheReplicasNext numbers its cross adds by their
// tickets, so each replica's record must read 1, 2, ..., n.
type mlTicketCells struct {
	mlCrossCells
	applied []int64
}

func (c *mlTicketCells) Execute(op mlOp) int64 {
	if op.kind == 3 {
		c.applied = append(c.applied, op.delta)
	}
	return c.mlCrossCells.Execute(op)
}

// parkingObserver parks a helper in Help, which helpLaggards calls after it
// has released the helped replica's write lock and before it runs the cross
// applier, until the test resumes it.
type parkingObserver struct {
	obs.Nop
	parked, resume chan struct{}
}

func (o *parkingObserver) Help(int, int) {
	o.parked <- struct{}{}
	<-o.resume
}

// TestCrossTicketIsTheReplicasNext pins the implicit cross ticket: log
// entries do not store it, and a replayer that meets a barrier takes its
// replica's crossDone+1 while it still holds that log's write lock. On a
// 3-log instance, node 1's combiner catching up, an elected reader
// refreshing and a helper each meet ticket t's barrier (in log 1 or 2)
// while ticket t is being applied on node 1's replica: the test holds the
// replica's cross applier and log 0's write lock, as an applier does while
// it waits for log 1's, until the path has released its log and waits on
// the applier; then it applies t. The helper stays parked past its unlock
// until t is applied, so a helper that read the ticket after the unlock
// would wait for t+1, which never comes. Every replica must apply tickets
// 1..n once each, in order.
func TestCrossTicketIsTheReplicasNext(t *testing.T) {
	const m, rounds = 3, 9
	waittest.Deadline(t)
	o := &parkingObserver{parked: make(chan struct{}), resume: make(chan struct{})}
	inst, err := New(func() Sequential[mlOp, int64] {
		return &mlTicketCells{mlCrossCells: mlCrossCells{mlCells{cells: make([]int64, m)}}}
	}, Options{Topology: topology.New(2, 2, 1), Logs: m, LogMapper: crossCellsMapper, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	h0, h1 := registerCross(t, inst, 0), registerCross(t, inst, 1)
	r := inst.replicas[1]
	var want [m]int64
	var tickets []int64
	for tk := int64(1); tk <= rounds; tk++ {
		path := [3]string{"combiner", "reader-refresh", "helper"}[(tk-1)%3]
		c := 1 + int(tk%2)
		if path == "helper" {
			// An entry before the barrier, so the helper replays one and
			// reports it through Help.
			h0.Execute(mlOp{kind: 0, class: c, delta: 1})
			want[c]++
		}
		h0.Execute(mlOp{kind: 3, delta: tk}) // ticket tk; node 1's replica lags it
		for k := range want {
			want[k] += tk
		}
		tickets = append(tickets, tk)

		r.crossApply.Lock()
		r.logs[0].rw.Lock()
		acquires := r.logs[c].rw.WriterAcquires()
		done := make(chan struct{})
		go func() {
			defer close(done)
			switch path {
			case "combiner":
				if got := h1.Execute(mlOp{kind: 0, class: c, delta: 1}); got != want[c]+1 {
					t.Errorf("ticket %d: class-%d add behind the barrier = %d, want %d", tk, c, got, want[c]+1)
				}
			case "reader-refresh":
				if got := h1.Execute(mlOp{kind: 1, class: c}); got != want[c] {
					t.Errorf("ticket %d: class-%d read behind the barrier = %d, want %d", tk, c, got, want[c])
				}
			case "helper":
				inst.helpLaggards(inst.replicas[0], c, inst.logs[c].Completed(), nil)
			}
		}()
		if path == "helper" {
			<-o.parked
		} else {
			// The path took log c's write lock, met the barrier and let go.
			for r.logs[c].rw.WriterAcquires() == acquires || !r.logs[c].rw.TryLock() {
				runtime.Gosched()
			}
			r.logs[c].rw.Unlock()
		}
		if got := r.crossDone.Load(); got != uint64(tk-1) {
			t.Errorf("%s on log %d: crossDone = %d before ticket %d was applied, want %d", path, c, got, tk, tk-1)
		}
		r.logs[0].rw.Unlock()
		inst.applyCross(r, uint64(tk), nil)
		r.crossApply.Unlock()
		if path == "helper" {
			o.resume <- struct{}{}
		}
		<-done
		if path == "combiner" {
			want[c]++
		}
	}
	for n := 0; n < inst.Replicas(); n++ {
		inst.InspectReplica(n, func(ds Sequential[mlOp, int64]) {
			d := ds.(*mlTicketCells)
			if !slices.Equal(d.applied, tickets) {
				t.Errorf("replica %d applied cross tickets %v, want %v", n, d.applied, tickets)
			}
			if !slices.Equal(d.cells, want[:]) {
				t.Errorf("replica %d holds %v, want %v", n, d.cells, want)
			}
		})
	}
}

// TestCrossPathsLockLogsInIndexOrder pins the order in which a replica's
// cross applier takes every log's write lock and a cross-class reader every
// log's read lock: index order (§5.5), the order every other multi-log
// holder uses, so two of them can never each hold a lock the other waits
// for. With log 1's write lock held, each must be found holding log 0's
// lock while it waits for log 1's.
func TestCrossPathsLockLogsInIndexOrder(t *testing.T) {
	// waitFor polls cond until it holds, or fails t after a few seconds.
	waitFor := func(t *testing.T, what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Errorf("%s: it waits for log 1's lock without holding log 0's", what)
				return
			}
		}
	}
	t.Run("cross-applier", func(t *testing.T) {
		inst := newCrossCells(t, 2, Options{Topology: topology.New(2, 2, 1)})
		h0, h1 := registerCross(t, inst, 0), registerCross(t, inst, 1)
		h0.Execute(mlOp{kind: 3, delta: 1}) // node 1's replica lags the cross op
		r := inst.replicas[1]
		r.logs[1].rw.Lock()
		done := make(chan struct{})
		go func() {
			defer close(done)
			h1.Execute(mlOp{kind: 0, class: 0, delta: 1}) // its combiner meets the cross entry
		}()
		waitFor(t, "the cross applier", func() bool {
			if !r.crossApply.Locked() {
				return false
			}
			if r.logs[0].rw.TryLock() {
				r.logs[0].rw.Unlock()
				return false
			}
			return true
		})
		r.logs[1].rw.Unlock()
		<-done
	})
	t.Run("cross-reader", func(t *testing.T) {
		inst := newCrossCells(t, 2, Options{Topology: topology.New(2, 2, 1)})
		h1 := registerCross(t, inst, 1)
		r := inst.replicas[1]
		before := r.logs[0].rw.ReaderAcquires()
		r.logs[1].rw.Lock()
		done := make(chan struct{})
		go func() {
			defer close(done)
			h1.Execute(mlOp{kind: 2}) // a cross-class sum
		}()
		waitFor(t, "the cross-class reader", func() bool { return r.logs[0].rw.ReaderAcquires() > before })
		r.logs[1].rw.Unlock()
		<-done
	})
}

// registerCross registers a handle on node and warms it up with one
// class-0 add.
func registerCross(t *testing.T, inst *Instance[mlOp, int64], node int) *Handle[mlOp, int64] {
	t.Helper()
	h, err := inst.RegisterOnNode(node)
	if err != nil {
		t.Fatal(err)
	}
	h.Execute(mlOp{kind: 0, class: 0, delta: 0})
	return h
}

// TestMultiLogReaderWaitsOwnClassOnly pins the read-path independence
// claim: a reader of class 0 completes even while class 1's log holds a
// reserved-but-unfilled entry (a stalled class-1 combiner mid-append).
// Multi-log readers never look at other classes' logs.
func TestMultiLogReaderWaitsOwnClassOnly(t *testing.T) {
	const m = 2
	inst := newMultiLog(t, m, Options{Topology: topology.New(1, 4, 1)})
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	h.Execute(mlOp{kind: 0, class: 0, delta: 7})
	// Reserve an entry in class 1's log and never fill it: a torn append.
	if _, _, ok := inst.logs[1].TryReserveObserved(1); !ok {
		t.Fatal("reserve on empty log failed")
	}
	// Class-0 read must not block on class 1's hole.
	done := make(chan int64, 1)
	go func() {
		h2, err := inst.Register()
		if err != nil {
			t.Error(err)
			done <- -1
			return
		}
		done <- h2.Execute(mlOp{kind: 1, class: 0})
	}()
	if got := <-done; got != 7 {
		t.Fatalf("class-0 read = %d, want 7", got)
	}
}

// TestMultiLogPostAndAbandonCross pins the cross-class abandon path: the
// ticket is appended with its barriers, the handle is retired, and the op
// is applied by whichever thread next crosses the barrier.
func TestMultiLogPostAndAbandonCross(t *testing.T) {
	inst := newCrossCells(t, 2, Options{Topology: topology.New(1, 4, 1)})
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	h.PostAndAbandon(mlOp{kind: 3, delta: 5}) // cross add, abandoned
	if _, err := h.TryExecute(mlOp{kind: 1, class: 0}); err == nil {
		t.Fatal("abandoned handle still usable")
	}
	h2, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	// PostAndAbandon is fire-and-forget: nothing owes the ticket immediate
	// application. The next class-0 UPDATE replays log 0, hits the cross
	// entry, and drives the applier through it; afterwards every class
	// observes the abandoned add.
	if got := h2.Execute(mlOp{kind: 0, class: 0, delta: 0}); got != 5 {
		t.Fatalf("class-0 add after abandoned cross add = %d, want 5", got)
	}
	if got := h2.Execute(mlOp{kind: 1, class: 1}); got != 5 {
		t.Fatalf("class-1 read after abandoned cross add = %d, want 5", got)
	}
}

// TestMultiLogMapperFolding pins out-of-range class folding: a mapper that
// returns classes outside [0, m) must not corrupt the instance.
func TestMultiLogMapperFolding(t *testing.T) {
	const m = 3
	opts := Options{Topology: topology.New(1, 2, 1), Logs: m}
	opts.LogMapper = func(op mlOp) int { return op.class + 2*m } // always out of range
	waittest.Deadline(t)
	inst, err := New(func() Sequential[mlOp, int64] {
		return &mlCells{cells: make([]int64, m)}
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < m; c++ {
		if got := h.Execute(mlOp{kind: 0, class: c, delta: int64(c + 1)}); got != int64(c+1) {
			t.Fatalf("add with folded class %d = %d, want %d", c, got, c+1)
		}
	}
}

// TestMultiLogMetrics pins the per-log gauge breakdown and its aggregates.
func TestMultiLogMetrics(t *testing.T) {
	const m = 2
	inst := newMultiLog(t, m, Options{Topology: topology.New(1, 2, 1)})
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		h.Execute(mlOp{kind: 0, class: 0, delta: 1}) // all traffic on class 0
	}
	var mm Metrics
	inst.MetricsInto(&mm)
	if len(mm.Logs) != m {
		t.Fatalf("len(Logs) = %d, want %d", len(mm.Logs), m)
	}
	if mm.Logs[0].Tail != 10 || mm.Logs[1].Tail != 0 {
		t.Errorf("per-log tails = %d,%d, want 10,0", mm.Logs[0].Tail, mm.Logs[1].Tail)
	}
	if mm.Log.Tail != mm.Logs[0].Tail+mm.Logs[1].Tail {
		t.Errorf("aggregate Tail %d != sum of per-log tails", mm.Log.Tail)
	}
	for _, rg := range mm.Replicas {
		if len(rg.Logs) != m {
			t.Fatalf("replica %d: len(Logs) = %d, want %d", rg.Node, len(rg.Logs), m)
		}
		if rg.LocalTail != rg.Logs[0].LocalTail+rg.Logs[1].LocalTail {
			t.Errorf("replica %d: aggregate LocalTail %d != per-log sum", rg.Node, rg.LocalTail)
		}
	}
	// Refill in place: no per-tick allocation after the first fill.
	before := &mm.Logs[0]
	inst.MetricsInto(&mm)
	if &mm.Logs[0] != before {
		t.Error("MetricsInto reallocated m.Logs on refill")
	}
}

// TestSingleLogUnchanged pins that m=1 instances reject nothing and that
// Logs() reports 1 — the compatibility half of the WithLogs contract.
func TestSingleLogUnchanged(t *testing.T) {
	waittest.Deadline(t)
	inst, err := New(func() Sequential[mlOp, int64] {
		return &mlCells{cells: make([]int64, 1)}
	}, Options{Topology: topology.New(1, 2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Logs() != 1 {
		t.Fatalf("Logs() = %d, want 1", inst.Logs())
	}
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Execute(mlOp{kind: 0, class: 0, delta: 3}); got != 3 {
		t.Fatalf("add = %d, want 3", got)
	}
}

// TestMultiLogPanicContainment pins cross-log panic containment: a
// panicking cross op is contained, delivered as *PanicError to the
// submitter, and replicas keep converging (the panic is deterministic).
func TestMultiLogPanicContainment(t *testing.T) {
	const m = 2
	opts := Options{Topology: topology.New(2, 2, 1), Logs: m}
	opts.LogMapper = func(op mlOp) int {
		if op.kind >= 2 {
			return CrossLog
		}
		return op.class
	}
	waittest.Deadline(t)
	inst, err := New(func() Sequential[mlOp, int64] {
		return &mlPanicCells{mlCells{cells: make([]int64, m)}}
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.TryExecute(mlOp{kind: 3, delta: -1}); err == nil {
		t.Fatal("panicking cross op returned nil error")
	} else {
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("got %T (%v), want *PanicError", err, err)
		}
	}
	// Instance still serves ops afterwards, on every class.
	if got := h.Execute(mlOp{kind: 0, class: 1, delta: 4}); got != 4 {
		t.Fatalf("add after contained panic = %d, want 4", got)
	}
	inst.Quiesce()
	if got := inst.Health(); got.Poisoned {
		t.Fatalf("deterministic panic poisoned the instance: %+v", got)
	}
}

// mlPanicCells panics (deterministically) on cross adds with negative
// delta.
type mlPanicCells struct {
	mlCells
}

func (c *mlPanicCells) Execute(op mlOp) int64 {
	if op.kind == 3 && op.delta < 0 {
		panic("cross op rejected")
	}
	if op.kind == 3 {
		for i := range c.cells {
			c.cells[i] += op.delta
		}
		return 0
	}
	return c.mlCells.Execute(op)
}

func (c *mlPanicCells) IsReadOnly(op mlOp) bool { return op.kind == 1 || op.kind == 2 }
