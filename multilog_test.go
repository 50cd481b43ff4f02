package nr_test

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	nr "github.com/asplos17/nr"
	"github.com/asplos17/nr/internal/ds"
	"github.com/asplos17/nr/internal/linearize"
)

// newPartitionedDict builds a multi-log instance over ds.PartitionedDict
// with the matching per-key conflict-class mapper.
func newPartitionedDict(t testing.TB, m int, opts ...nr.Option) *nr.Instance[ds.DictOp, ds.DictResult] {
	t.Helper()
	opts = append(opts, nr.WithLogs[ds.DictOp](m, nr.LogMapperFunc[ds.DictOp](ds.DictClass(m))))
	inst, err := nr.New(func() nr.Sequential[ds.DictOp, ds.DictResult] {
		return ds.NewPartitionedDict(m, 42)
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestMultiLogPerClassLinearizable records concurrent per-key histories
// through a 4-log partitioned dictionary and checks EACH conflict class's
// history against the sequential dictionary model. Per-class combiners run
// independently, so this is the linearizability guarantee multi-log NR
// actually makes for single-class operations; because the classes touch
// disjoint partitions, per-class linearizability composes into whole-object
// linearizability (locality). After each round every node's replica must
// hold the same keys.
func TestMultiLogPerClassLinearizable(t *testing.T) {
	const logs = 4
	for round := 0; round < 25; round++ {
		inst := newPartitionedDict(t, logs, nr.WithNodes(2, 2, 1), nr.WithLogEntries(128))
		const threads, per = 4, 10
		recs := make([]*linearize.Recorder, logs)
		for c := range recs {
			recs[c] = linearize.NewRecorder(threads)
		}
		var wg sync.WaitGroup
		for g := 0; g < threads; g++ {
			h, err := inst.Register()
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(g int, h *nr.Handle[ds.DictOp, ds.DictResult]) {
				defer wg.Done()
				cls := make([]*linearize.Client, logs)
				for c := range cls {
					cls[c] = recs[c].Client(g)
				}
				rng := uint64(round*37+g)*2654435761 + 1
				for i := 0; i < per; i++ {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					// Two keys per class keeps per-class histories dense.
					key := int64(rng % (2 * logs))
					c := int(uint64(key) % logs)
					cl := cls[c]
					switch rng % 3 {
					case 0:
						call := cl.Invoke()
						res := h.Execute(ds.DictOp{Kind: ds.DictInsert, Key: key, Value: rng})
						cl.Complete(call, linearize.DictIn{Kind: 'i', Key: key, Val: rng},
							linearize.DictOut{Val: rng, OK: res.OK})
					case 1:
						call := cl.Invoke()
						res := h.Execute(ds.DictOp{Kind: ds.DictDelete, Key: key})
						cl.Complete(call, linearize.DictIn{Kind: 'd', Key: key},
							linearize.DictOut{OK: res.OK})
					default:
						call := cl.Invoke()
						res := h.Execute(ds.DictOp{Kind: ds.DictLookup, Key: key})
						cl.Complete(call, linearize.DictIn{Kind: 'l', Key: key},
							linearize.DictOut{Val: res.Value, OK: res.OK})
					}
				}
			}(g, h)
		}
		wg.Wait()
		for c := range recs {
			if !linearize.Check(linearize.DictModel(), recs[c].History()) {
				t.Fatalf("round %d: class %d history not linearizable", round, c)
			}
		}
		if err := replicasAgree(inst, func(s nr.Sequential[ds.DictOp, ds.DictResult]) string {
			var b strings.Builder
			for k := int64(0); k < 2*logs; k++ {
				fmt.Fprintf(&b, "%+v ", s.Execute(ds.DictOp{Kind: ds.DictLookup, Key: k}))
			}
			return b.String()
		}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		inst.Close()
	}
}

// TestMultiLogCrossClassBarrier pins the cross-class ticket barrier's
// consistency guarantee: DictLen spans every conflict class, and the value
// it observes must lie between the number of unique-key inserts that
// COMPLETED before it was invoked (every one of those is ordered before the
// barrier in all classes) and the number STARTED before it returned
// (nothing else can be visible). A torn snapshot — e.g. Len reading
// class 0 before a racing insert but class 1 after a later one in a way
// that breaks these bounds — fails the test.
func TestMultiLogCrossClassBarrier(t *testing.T) {
	const (
		logs    = 4
		writers = 4
		perW    = 200
		lenOps  = 120
	)
	inst := newPartitionedDict(t, logs, nr.WithNodes(2, 4, 1))
	var started, completed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		h, err := inst.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, h *nr.Handle[ds.DictOp, ds.DictResult]) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				key := int64(g)*1_000_000 + int64(i) // unique; never deleted
				started.Add(1)
				if res := h.Execute(ds.DictOp{Kind: ds.DictInsert, Key: key, Value: 1}); !res.OK {
					t.Errorf("unique-key insert %d reported duplicate", key)
				}
				completed.Add(1)
			}
		}(g, h)
	}
	for g := 0; g < 2; g++ {
		h, err := inst.Register()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(h *nr.Handle[ds.DictOp, ds.DictResult]) {
			defer wg.Done()
			for i := 0; i < lenOps; i++ {
				lo := completed.Load()
				res := h.Execute(ds.DictOp{Kind: ds.DictLen})
				hi := started.Load()
				n := int64(res.Value)
				if n < lo || n > hi {
					t.Errorf("cross-class Len = %d outside [%d, %d]", n, lo, hi)
				}
			}
		}(h)
	}
	wg.Wait()
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	if res := h.Execute(ds.DictOp{Kind: ds.DictLen}); int64(res.Value) != writers*perW {
		t.Fatalf("final Len = %d, want %d", res.Value, writers*perW)
	}
	inst.Close()
}

// TestCheckMapperCommutesDetectsViolation pins the negative direction of
// the mapper-contract checker: a mapper that splits same-key operations
// across classes on an UNPARTITIONED dictionary violates commutativity,
// and the checker must say so.
func TestCheckMapperCommutesDetectsViolation(t *testing.T) {
	create := func() nr.Sequential[ds.DictOp, ds.DictResult] {
		return ds.NewSkipListDict(7)
	}
	// Broken: classes by op KIND, so insert(k) and delete(k) land in
	// different classes even though they conflict on the same key.
	broken := nr.LogMapperFunc[ds.DictOp](func(op ds.DictOp) int { return int(op.Kind) % 2 })
	a := ds.DictOp{Kind: ds.DictInsert, Key: 5, Value: 9}
	b := ds.DictOp{Kind: ds.DictDelete, Key: 5}
	probes := []ds.DictOp{{Kind: ds.DictLookup, Key: 5}}
	if err := nr.CheckMapperCommutes(create, broken, probes, a, b); err == nil {
		t.Fatal("checker accepted a mapper that separates conflicting same-key ops")
	}
	// And the honest partitioned mapper passes the same pair.
	honest := nr.LogMapperFunc[ds.DictOp](ds.DictClass(4))
	createPart := func() nr.Sequential[ds.DictOp, ds.DictResult] {
		return ds.NewPartitionedDict(4, 7)
	}
	if err := nr.CheckMapperCommutes(createPart, honest, probes, a, b); err != nil {
		t.Fatalf("checker rejected the partitioned mapper: %v", err)
	}
}

// FuzzMapperCommutes drives the mapper-contract checker over generated
// operation pairs against the partitioned dictionary and its canonical
// mapper: no pair the mapper places in distinct classes may fail to
// commute. Seeds cover same-key, cross-key, and cross-class (DictLen)
// shapes; `go test` replays the seeds, `go test -fuzz=FuzzMapperCommutes`
// explores beyond them.
func FuzzMapperCommutes(f *testing.F) {
	f.Add(int64(0), uint64(1), uint8(0), int64(1), uint64(2), uint8(1))
	f.Add(int64(3), uint64(9), uint8(0), int64(3), uint64(4), uint8(1)) // same key
	f.Add(int64(-2), uint64(0), uint8(2), int64(6), uint64(0), uint8(0))
	f.Add(int64(5), uint64(5), uint8(3), int64(7), uint64(7), uint8(0)) // DictLen involved
	const logs = 4
	mapper := nr.LogMapperFunc[ds.DictOp](ds.DictClass(logs))
	create := func() nr.Sequential[ds.DictOp, ds.DictResult] {
		return ds.NewPartitionedDict(logs, 11)
	}
	f.Fuzz(func(t *testing.T, ka int64, va uint64, kindA uint8, kb int64, vb uint64, kindB uint8) {
		a := ds.DictOp{Kind: ds.DictOpKind(kindA % 4), Key: ka, Value: va}
		b := ds.DictOp{Kind: ds.DictOpKind(kindB % 4), Key: kb, Value: vb}
		probes := []ds.DictOp{
			{Kind: ds.DictLookup, Key: ka},
			{Kind: ds.DictLookup, Key: kb},
			{Kind: ds.DictLen},
		}
		if err := nr.CheckMapperCommutes(create, mapper, probes, a, b); err != nil {
			t.Fatal(err)
		}
	})
}

// newDict builds a partitioned skip-list dictionary over logs logs, 2 nodes
// × 3 threads. Key k belongs to class k mod logs; DictLen is CrossLog. skew,
// when non-nil, distorts every class the mapper returns (given the class and
// the class count) to play a mapper that breaks the range contract.
func newDict(t *testing.T, logs int, skew func(c, m int) int) *nr.Instance[ds.DictOp, ds.DictResult] {
	t.Helper()
	classOf := nr.LogMapperFunc[ds.DictOp](func(op ds.DictOp) int {
		if op.Kind == ds.DictLen {
			return nr.CrossLog
		}
		c := int(uint64(op.Key) % uint64(logs))
		if skew != nil {
			c = skew(c, logs)
		}
		return c
	})
	inst, err := nr.New(
		func() nr.Sequential[ds.DictOp, ds.DictResult] { return ds.NewPartitionedDict(logs, 42) },
		nr.WithNodes(2, 3, 1), nr.WithLogEntries(256), nr.WithLogs[ds.DictOp](logs, classOf))
	if err != nil {
		t.Fatalf("New(logs=%d): %v", logs, err)
	}
	t.Cleanup(inst.Close)
	return inst
}

// checkDictAgainstModel is the differential check: four goroutines drive
// inserts, deletes and lookups over disjoint key ranges, so every response
// is determined and is compared with a sequential dictionary's; afterwards a
// fresh handle on the other node must read the models' union, every node's
// replica must hold exactly the surviving keys, and DictLen, a CrossLog op
// ordered by the cross-log barrier, must count them.
func checkDictAgainstModel(t *testing.T, inst *nr.Instance[ds.DictOp, ds.DictResult]) {
	t.Helper()
	const threads, perThread, keysPerThread = 4, 400, 16
	models := make([]*ds.SkipListDict, threads)
	var wg sync.WaitGroup
	for tid := range models {
		h, err := inst.Register()
		if err != nil {
			t.Fatalf("Register: %v", err)
		}
		models[tid] = ds.NewSkipListDict(1)
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := uint64(tid)*2654435761 + 1
			for i := 0; i < perThread; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				op := ds.DictOp{
					Kind:  ds.DictOpKind(rng >> 8 % 3), // insert, delete, lookup
					Key:   int64(tid*keysPerThread) + int64(rng%keysPerThread),
					Value: rng,
				}
				if got, want := h.Execute(op), models[tid].Execute(op); got != want {
					t.Errorf("thread %d op %d %+v = %+v, sequential model says %+v", tid, i, op, got, want)
					return
				}
			}
		}(tid)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	h, err := inst.RegisterOnNode(1)
	if err != nil {
		t.Fatal(err)
	}
	var size uint64
	for tid, model := range models {
		size += uint64(model.Len())
		for k := int64(tid * keysPerThread); k < int64((tid+1)*keysPerThread); k++ {
			lookup := ds.DictOp{Kind: ds.DictLookup, Key: k}
			want := model.Execute(lookup)
			if got := h.Execute(lookup); got != want {
				t.Errorf("final lookup(%d) = %+v, model says %+v", k, got, want)
			}
			for node := 0; node < inst.Replicas(); node++ {
				inst.Inspect(node, func(d nr.Sequential[ds.DictOp, ds.DictResult]) {
					if got := d.Execute(lookup); got != want {
						t.Errorf("key %d on node %d's replica = %+v, model says %+v", k, node, got, want)
					}
				})
			}
		}
	}
	if got := h.Execute(ds.DictOp{Kind: ds.DictLen}); got.Value != size {
		t.Errorf("DictLen = %d, models hold %d", got.Value, size)
	}
}

// logCounts is what the differential check runs over: one log is the
// classic instance.
var logCounts = []int{1, 4}

// TestRoutedOpsMatchSequentialModel runs the differential check with an
// honest mapper.
func TestRoutedOpsMatchSequentialModel(t *testing.T) {
	for _, logs := range logCounts {
		t.Run("logs="+strconv.Itoa(logs), func(t *testing.T) {
			checkDictAgainstModel(t, newDict(t, logs, nil))
		})
	}
}

// TestOutOfRangeClassFolds pins the policy for a mapper that returns a
// class outside [0, m): the engine folds it as ((c % m) + m) % m. The
// mappers here return the right class displaced by a multiple of m, above
// the range for even classes and below it (past CrossLog) for odd ones; the
// fold lands every op where the honest mapper would have, so the
// differential check must pass unchanged.
func TestOutOfRangeClassFolds(t *testing.T) {
	skew := func(c, m int) int {
		if c%2 == 0 {
			return c + 3*m
		}
		return c - 2*m
	}
	for _, logs := range logCounts {
		t.Run("logs="+strconv.Itoa(logs), func(t *testing.T) {
			checkDictAgainstModel(t, newDict(t, logs, skew))
		})
	}
}
