package linearize

import (
	"sync"
	"testing"
)

func TestEmptyHistoryLinearizable(t *testing.T) {
	if !Check(CounterModel(), nil) {
		t.Error("empty history rejected")
	}
}

func TestSequentialCounterAccepted(t *testing.T) {
	// inc→1, read→1, inc→2 strictly sequential.
	h := []Op{
		{Input: RegisterIn{Inc: true}, Output: uint64(1), Call: 1, Return: 2},
		{Input: RegisterIn{}, Output: uint64(1), Call: 3, Return: 4},
		{Input: RegisterIn{Inc: true}, Output: uint64(2), Call: 5, Return: 6},
	}
	if !Check(CounterModel(), h) {
		t.Error("legal sequential history rejected")
	}
}

func TestStaleReadRejected(t *testing.T) {
	// inc→1 completes, then a later read returns 0: not linearizable.
	h := []Op{
		{Input: RegisterIn{Inc: true}, Output: uint64(1), Call: 1, Return: 2},
		{Input: RegisterIn{}, Output: uint64(0), Call: 3, Return: 4},
	}
	if Check(CounterModel(), h) {
		t.Error("stale read accepted")
	}
}

func TestConcurrentReadMayLinearizeEitherSide(t *testing.T) {
	// A read overlapping an increment may return old or new value.
	for _, out := range []uint64{0, 1} {
		h := []Op{
			{Input: RegisterIn{Inc: true}, Output: uint64(1), Call: 1, Return: 4},
			{Input: RegisterIn{}, Output: out, Call: 2, Return: 3},
		}
		if !Check(CounterModel(), h) {
			t.Errorf("overlapping read returning %d rejected", out)
		}
	}
	// But it may not return 2.
	h := []Op{
		{Input: RegisterIn{Inc: true}, Output: uint64(1), Call: 1, Return: 4},
		{Input: RegisterIn{}, Output: uint64(2), Call: 2, Return: 3},
	}
	if Check(CounterModel(), h) {
		t.Error("impossible read value accepted")
	}
}

func TestDuplicateIncrementRejected(t *testing.T) {
	// Two increments both returning 1: lost update.
	h := []Op{
		{Client: 0, Input: RegisterIn{Inc: true}, Output: uint64(1), Call: 1, Return: 3},
		{Client: 1, Input: RegisterIn{Inc: true}, Output: uint64(1), Call: 2, Return: 4},
	}
	if Check(CounterModel(), h) {
		t.Error("duplicate increment values accepted")
	}
}

func TestRealTimeOrderEnforced(t *testing.T) {
	// inc→2 strictly before inc→1: violates real-time order.
	h := []Op{
		{Input: RegisterIn{Inc: true}, Output: uint64(2), Call: 1, Return: 2},
		{Input: RegisterIn{Inc: true}, Output: uint64(1), Call: 3, Return: 4},
	}
	if Check(CounterModel(), h) {
		t.Error("out-of-order increments accepted")
	}
}

func TestPanicsOnBadTimestamps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Call >= Return accepted")
		}
	}()
	Check(CounterModel(), []Op{{Input: RegisterIn{}, Output: uint64(0), Call: 2, Return: 2}})
}

func TestDictModelSemantics(t *testing.T) {
	m := DictModel()
	h := []Op{
		{Input: DictIn{Kind: 'i', Key: 1, Val: 10}, Output: DictOut{Val: 10, OK: true}, Call: 1, Return: 2},
		{Input: DictIn{Kind: 'l', Key: 1}, Output: DictOut{Val: 10, OK: true}, Call: 3, Return: 4},
		{Input: DictIn{Kind: 'i', Key: 1, Val: 20}, Output: DictOut{OK: false}, Call: 5, Return: 6},
		{Input: DictIn{Kind: 'l', Key: 1}, Output: DictOut{Val: 20, OK: true}, Call: 7, Return: 8},
		{Input: DictIn{Kind: 'd', Key: 1}, Output: DictOut{OK: true}, Call: 9, Return: 10},
		{Input: DictIn{Kind: 'l', Key: 1}, Output: DictOut{OK: false}, Call: 11, Return: 12},
		{Input: DictIn{Kind: 'd', Key: 1}, Output: DictOut{OK: false}, Call: 13, Return: 14},
	}
	if !Check(m, h) {
		t.Error("legal dictionary history rejected")
	}
	// Lookup of deleted key returning a value: illegal.
	bad := append(h[:6:6], Op{
		Input: DictIn{Kind: 'l', Key: 1}, Output: DictOut{Val: 10, OK: true}, Call: 11, Return: 12,
	})
	if Check(m, bad) {
		t.Error("lookup after delete accepted")
	}
}

func TestRecorderProducesWellFormedHistories(t *testing.T) {
	r := NewRecorder(3)
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := r.Client(c)
			for i := 0; i < 50; i++ {
				call := cl.Invoke()
				cl.Complete(call, RegisterIn{}, uint64(0))
			}
		}(c)
	}
	wg.Wait()
	h := r.History()
	if len(h) != 150 {
		t.Fatalf("history has %d ops, want 150", len(h))
	}
	seen := map[int64]bool{}
	for i, op := range h {
		if op.Call >= op.Return {
			t.Fatalf("op %d: Call %d >= Return %d", i, op.Call, op.Return)
		}
		if seen[op.Call] || seen[op.Return] {
			t.Fatalf("duplicate timestamp in op %d", i)
		}
		seen[op.Call], seen[op.Return] = true, true
		if i > 0 && h[i-1].Call > op.Call {
			t.Fatal("history not sorted by Call")
		}
	}
}

// TestMemoizationHandlesWideHistories: a permutation-heavy history that
// would explode without memoization still checks quickly.
func TestMemoizationHandlesWideHistories(t *testing.T) {
	// 16 concurrent increments, all overlapping, outputs 1..16 — heavily
	// ambiguous ordering, one valid assignment per output permutation.
	var h []Op
	for i := 0; i < 16; i++ {
		h = append(h, Op{
			Client: i,
			Input:  RegisterIn{Inc: true},
			Output: uint64(i + 1),
			Call:   int64(1 + i),
			Return: int64(100 + i),
		})
	}
	if !Check(CounterModel(), h) {
		t.Error("wide concurrent increment history rejected")
	}
	// Flip one output to a duplicate: must reject.
	h[7].Output = uint64(5)
	if Check(CounterModel(), h) {
		t.Error("wide history with duplicate output accepted")
	}
}
