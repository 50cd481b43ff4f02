package ds

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBTreeEmpty(t *testing.T) {
	bt := NewBTree()
	if bt.Len() != 0 {
		t.Errorf("Len = %d", bt.Len())
	}
	if _, ok := bt.Get(1); ok {
		t.Error("Get on empty = ok")
	}
	if bt.Delete(1) {
		t.Error("Delete on empty = true")
	}
	if !bt.checkInvariants() {
		t.Error("empty tree invalid")
	}
}

func TestBTreeInsertGetReplace(t *testing.T) {
	bt := NewBTree()
	if !bt.Insert(5, 50) {
		t.Error("fresh Insert = false")
	}
	if bt.Insert(5, 60) {
		t.Error("replacing Insert = true")
	}
	if v, ok := bt.Get(5); !ok || v != 60 {
		t.Errorf("Get = %d,%v want 60", v, ok)
	}
	if bt.Len() != 1 {
		t.Errorf("Len = %d", bt.Len())
	}
}

func TestBTreeSplitsAndOrder(t *testing.T) {
	bt := NewBTree()
	const n = 5000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, k := range perm {
		bt.Insert(int64(k), uint64(k))
	}
	if bt.Len() != n {
		t.Fatalf("Len = %d, want %d", bt.Len(), n)
	}
	if !bt.checkInvariants() {
		t.Fatal("invariants violated after inserts")
	}
	prev := int64(-1)
	count := 0
	bt.Ascend(func(k int64, v uint64) bool {
		if k <= prev {
			t.Fatalf("out of order: %d after %d", k, prev)
		}
		if v != uint64(k) {
			t.Fatalf("value mismatch at %d: %d", k, v)
		}
		prev = k
		count++
		return true
	})
	if count != n {
		t.Fatalf("Ascend visited %d, want %d", count, n)
	}
	// Early stop.
	count = 0
	bt.Ascend(func(int64, uint64) bool { count++; return count < 10 })
	if count != 10 {
		t.Errorf("early-stop Ascend visited %d", count)
	}
}

func TestBTreeDeleteAllPatterns(t *testing.T) {
	// Ascending, descending, and random deletion orders all exercise the
	// borrow/merge paths.
	orders := map[string]func(n int) []int{
		"ascending": func(n int) []int {
			o := make([]int, n)
			for i := range o {
				o[i] = i
			}
			return o
		},
		"descending": func(n int) []int {
			o := make([]int, n)
			for i := range o {
				o[i] = n - 1 - i
			}
			return o
		},
		"random": func(n int) []int { return rand.New(rand.NewSource(9)).Perm(n) },
	}
	for name, order := range orders {
		t.Run(name, func(t *testing.T) {
			const n = 3000
			bt := NewBTree()
			for i := 0; i < n; i++ {
				bt.Insert(int64(i), uint64(i))
			}
			for _, k := range order(n) {
				if !bt.Delete(int64(k)) {
					t.Fatalf("Delete(%d) = false", k)
				}
				if bt.Delete(int64(k)) {
					t.Fatalf("double Delete(%d) = true", k)
				}
			}
			if bt.Len() != 0 {
				t.Fatalf("Len = %d after deleting all", bt.Len())
			}
			if !bt.checkInvariants() {
				t.Fatal("invariants violated after drain")
			}
		})
	}
}

func TestBTreeAgainstMapOracle(t *testing.T) {
	bt := NewBTree()
	oracle := map[int64]uint64{}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 40000; i++ {
		k := int64(rng.Intn(700))
		switch rng.Intn(3) {
		case 0:
			v := rng.Uint64()
			_, present := oracle[k]
			if got := bt.Insert(k, v); got == present {
				t.Fatalf("op %d: Insert(%d) = %v, want %v", i, k, got, !present)
			}
			oracle[k] = v
		case 1:
			_, present := oracle[k]
			if got := bt.Delete(k); got != present {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", i, k, got, present)
			}
			delete(oracle, k)
		case 2:
			wv, wok := oracle[k]
			gv, gok := bt.Get(k)
			if gok != wok || (gok && gv != wv) {
				t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", i, k, gv, gok, wv, wok)
			}
		}
		if bt.Len() != len(oracle) {
			t.Fatalf("op %d: Len = %d, want %d", i, bt.Len(), len(oracle))
		}
	}
	if !bt.checkInvariants() {
		t.Fatal("invariants violated after random workload")
	}
}

// Property: inserting any key set then checking invariants + retrievability.
func TestBTreeProperty(t *testing.T) {
	f := func(keys []int64) bool {
		bt := NewBTree()
		uniq := map[int64]bool{}
		for _, k := range keys {
			bt.Insert(k, uint64(k))
			uniq[k] = true
		}
		if bt.Len() != len(uniq) {
			return false
		}
		for k := range uniq {
			if v, ok := bt.Get(k); !ok || v != uint64(k) {
				return false
			}
		}
		return bt.checkInvariants()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBTreeDictMatchesSkipListDict: the two dictionary implementations must
// be observationally identical — the black-box property in action.
func TestBTreeDictMatchesSkipListDict(t *testing.T) {
	bd, sd := NewBTreeDict(), NewSkipListDict(21)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 30000; i++ {
		op := DictOp{
			Kind:  DictOpKind(rng.Intn(3)),
			Key:   int64(rng.Intn(500)),
			Value: rng.Uint64(),
		}
		rb, rs := bd.Execute(op), sd.Execute(op)
		if rb != rs {
			t.Fatalf("op %d %+v: btree=%+v skiplist=%+v", i, op, rb, rs)
		}
	}
	if bd.Len() != sd.Len() {
		t.Fatalf("lengths diverged: %d vs %d", bd.Len(), sd.Len())
	}
	if !bd.IsReadOnly(DictOp{Kind: DictLookup}) || bd.IsReadOnly(DictOp{Kind: DictInsert}) {
		t.Error("BTreeDict read-only classification wrong")
	}
}
