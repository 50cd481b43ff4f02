package ds

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// check validates the tree's bookkeeping: keys strictly ascend, every count
// is the size of its subtree, the separators bound their subtrees, every
// node but the root is within its fill bounds, an inner root has two
// children, and Rank(ByRank(i)) == i. It returns the first violation.
func (t *BTree[V]) check() error {
	var prev *Key
	var walk func(n *btreeNode[V], h int, lo, hi *Key) (int, error)
	walk = func(n *btreeNode[V], h int, lo, hi *Key) (int, error) {
		if n != t.root && (n.n < btreeB/2 || n.n > btreeB) {
			return 0, fmt.Errorf("node at height %d holds %d items", h, n.n)
		}
		if h == 0 {
			for i := 0; i < n.n; i++ {
				k := n.key(i)
				switch {
				case prev != nil && !prev.less(k):
					return 0, fmt.Errorf("key %v follows %v", k, *prev)
				case lo != nil && k.less(*lo), hi != nil && !k.less(*hi):
					return 0, fmt.Errorf("key %v outside its separators", k)
				}
				prev = &k
			}
			return n.n, nil
		}
		if n == t.root && n.n < 2 {
			return 0, fmt.Errorf("inner root has %d children", n.n)
		}
		total := 0
		for i := 0; i < n.n; i++ {
			clo, chi := lo, hi
			if i > 0 {
				k := n.key(i)
				clo = &k
			}
			if i < n.n-1 {
				k := n.key(i + 1)
				chi = &k
			}
			c, err := walk(n.kid[i], h-1, clo, chi)
			if err != nil {
				return 0, err
			}
			if c != n.cnt[i] {
				return 0, fmt.Errorf("count %d of a subtree of %d entries", n.cnt[i], c)
			}
			total += c
		}
		return total, nil
	}
	size, err := walk(t.root, t.height, nil, nil)
	if err != nil {
		return err
	}
	if size != t.length {
		return fmt.Errorf("Len = %d with %d entries", t.length, size)
	}
	for i := 0; i < t.length; i++ {
		k, _, _ := t.ByRank(i)
		if r, ok := t.Rank(k); !ok || r != i {
			return fmt.Errorf("Rank(ByRank(%d)) = %d, %v", i, r, ok)
		}
	}
	return nil
}

func TestBTreeEmpty(t *testing.T) {
	bt := NewBTree[uint64]()
	if bt.Len() != 0 {
		t.Errorf("Len = %d", bt.Len())
	}
	if _, ok := bt.Get(IntKey(1)); ok {
		t.Error("Get on empty = ok")
	}
	if bt.Delete(IntKey(1)) {
		t.Error("Delete on empty = true")
	}
	if bt.Move(IntKey(1), IntKey(2), 0) {
		t.Error("Move on empty = true")
	}
	if _, ok := bt.Rank(IntKey(1)); ok {
		t.Error("Rank on empty = ok")
	}
	if _, _, ok := bt.ByRank(0); ok {
		t.Error("ByRank(0) on empty = ok")
	}
	if err := bt.check(); err != nil {
		t.Error(err)
	}
}

func TestBTreeInsertGetReplace(t *testing.T) {
	bt := NewBTree[uint64]()
	if !bt.Insert(IntKey(5), 50) {
		t.Error("fresh Insert = false")
	}
	if bt.Insert(IntKey(5), 60) {
		t.Error("replacing Insert = true")
	}
	if v, ok := bt.Get(IntKey(5)); !ok || v != 60 {
		t.Errorf("Get = %d,%v want 60", v, ok)
	}
	if bt.Len() != 1 {
		t.Errorf("Len = %d", bt.Len())
	}
}

func TestBTreeSplitsAndOrder(t *testing.T) {
	bt := NewBTree[uint64]()
	const n = 5000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, k := range perm {
		bt.Insert(IntKey(int64(k)), uint64(k))
	}
	if bt.Len() != n {
		t.Fatalf("Len = %d, want %d", bt.Len(), n)
	}
	if err := bt.check(); err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	count := 0
	bt.Range(0, n-1, func(k Key, v uint64) bool {
		if k.Int() <= prev {
			t.Fatalf("out of order: %d after %d", k.Int(), prev)
		}
		if v != uint64(k.Int()) {
			t.Fatalf("value mismatch at %d: %d", k.Int(), v)
		}
		prev = k.Int()
		count++
		return true
	})
	if count != n {
		t.Fatalf("Range visited %d, want %d", count, n)
	}
	// Early stop.
	count = 0
	bt.Range(0, n-1, func(Key, uint64) bool { count++; return count < 10 })
	if count != 10 {
		t.Errorf("early-stop Range visited %d", count)
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
			bt := NewBTree[uint64]()
			for i := 0; i < n; i++ {
				bt.Insert(IntKey(int64(i)), uint64(i))
			}
			for j, k := range order(n) {
				if !bt.Delete(IntKey(int64(k))) {
					t.Fatalf("Delete(%d) = false", k)
				}
				if bt.Delete(IntKey(int64(k))) {
					t.Fatalf("double Delete(%d) = true", k)
				}
				if j%97 == 0 {
					if err := bt.check(); err != nil {
						t.Fatalf("after Delete(%d): %v", k, err)
					}
				}
			}
			if bt.Len() != 0 {
				t.Fatalf("Len = %d after deleting all", bt.Len())
			}
			if err := bt.check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBTreeAgainstMapOracle(t *testing.T) {
	bt := NewBTree[uint64]()
	oracle := map[int64]uint64{}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 40000; i++ {
		k := int64(rng.Intn(700))
		switch rng.Intn(4) {
		case 0:
			v := rng.Uint64()
			_, present := oracle[k]
			if got := bt.Insert(IntKey(k), v); got == present {
				t.Fatalf("op %d: Insert(%d) = %v, want %v", i, k, got, !present)
			}
			oracle[k] = v
		case 1:
			_, present := oracle[k]
			if got := bt.Delete(IntKey(k)); got != present {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", i, k, got, present)
			}
			delete(oracle, k)
		case 2:
			wv, wok := oracle[k]
			gv, gok := bt.Get(IntKey(k))
			if gok != wok || (gok && gv != wv) {
				t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", i, k, gv, gok, wv, wok)
			}
		case 3:
			// Mostly short hops (the in-leaf slide), some anywhere, some
			// onto a key that is taken or onto itself.
			to := k + int64(rng.Intn(7)) - 3
			if rng.Intn(4) == 0 {
				to = int64(rng.Intn(700))
			}
			_, present := oracle[k]
			nv := rng.Uint64()
			if got := bt.Move(IntKey(k), IntKey(to), nv); got != present {
				t.Fatalf("op %d: Move(%d, %d) = %v, want %v", i, k, to, got, present)
			}
			if present {
				delete(oracle, k)
				oracle[to] = nv
			}
			if gv, ok := bt.Get(IntKey(to)); present && (!ok || gv != nv) {
				t.Fatalf("op %d: after Move(%d, %d) Get = %d,%v, want %d", i, k, to, gv, ok, nv)
			}
		}
		if bt.Len() != len(oracle) {
			t.Fatalf("op %d: Len = %d, want %d", i, bt.Len(), len(oracle))
		}
		if i%101 == 0 {
			if err := bt.check(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := bt.check(); err != nil {
		t.Fatal(err)
	}
	var keys []int64
	for k := range oracle {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for r, k := range keys {
		if got, _, ok := bt.ByRank(r); !ok || got.Int() != k {
			t.Fatalf("ByRank(%d) = %d,%v, want %d", r, got.Int(), ok, k)
		}
	}
}

// Property: inserting any key set then checking invariants + retrievability.
func TestBTreeProperty(t *testing.T) {
	f := func(keys []int64) bool {
		bt := NewBTree[uint64]()
		uniq := map[int64]bool{}
		for _, k := range keys {
			bt.Insert(IntKey(k), uint64(k))
			uniq[k] = true
		}
		if bt.Len() != len(uniq) {
			return false
		}
		for k := range uniq {
			if v, ok := bt.Get(IntKey(k)); !ok || v != uint64(k) {
				return false
			}
		}
		return bt.check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBTreeRank(t *testing.T) {
	bt := NewBTree[uint64]()
	for i := int64(0); i < 100; i++ {
		bt.Insert(IntKey(i*2), 0) // even keys 0..198
	}
	for i := int64(0); i < 100; i++ {
		r, ok := bt.Rank(IntKey(i * 2))
		if !ok || r != int(i) {
			t.Fatalf("Rank(%d) = %d,%v, want %d,true", i*2, r, ok, i)
		}
	}
	if _, ok := bt.Rank(IntKey(3)); ok {
		t.Error("Rank(3) = ok for absent key")
	}
	for i := 0; i < 100; i++ {
		k, _, ok := bt.ByRank(i)
		if !ok || k.Int() != int64(i*2) {
			t.Fatalf("ByRank(%d) = %d,%v, want %d,true", i, k.Int(), ok, i*2)
		}
	}
	if _, _, ok := bt.ByRank(100); ok {
		t.Error("ByRank(100) out of range = ok")
	}
	if _, _, ok := bt.ByRank(-1); ok {
		t.Error("ByRank(-1) = ok")
	}
}

func TestBTreeRankAfterDeletes(t *testing.T) {
	bt := NewBTree[uint64]()
	for i := int64(0); i < 500; i++ {
		bt.Insert(IntKey(i), 0)
	}
	for i := int64(0); i < 500; i += 2 {
		bt.Delete(IntKey(i)) // remove evens, odds remain
	}
	for i := 0; i < 250; i++ {
		k, _, ok := bt.ByRank(i)
		if !ok || k.Int() != int64(2*i+1) {
			t.Fatalf("ByRank(%d) = %d, want %d", i, k.Int(), 2*i+1)
		}
	}
	if err := bt.check(); err != nil {
		t.Error(err)
	}
}

func TestBTreeRangeByRank(t *testing.T) {
	bt := NewBTree[uint64]()
	for i := int64(0); i < 100; i++ {
		bt.Insert(IntKey(i), uint64(i))
	}
	for _, r := range [][2]int{{3, 6}, {30, 70}, {0, 99}, {95, 99}} {
		var got []int64
		bt.Range(r[0], r[1], func(k Key, _ uint64) bool {
			got = append(got, k.Int())
			return true
		})
		if len(got) != r[1]-r[0]+1 || got[0] != int64(r[0]) || got[len(got)-1] != int64(r[1]) {
			t.Fatalf("Range(%d, %d) = %v", r[0], r[1], got)
		}
	}
	// Clamping and early stop.
	var got []int64
	bt.Range(-5, 1000, func(k Key, _ uint64) bool {
		got = append(got, k.Int())
		return len(got) < 3
	})
	if len(got) != 3 {
		t.Errorf("early-stop range returned %d items, want 3", len(got))
	}
	got = got[:0]
	bt.Range(7, 3, func(k Key, _ uint64) bool { got = append(got, k.Int()); return true })
	if len(got) != 0 {
		t.Errorf("inverted range returned %v", got)
	}
}

// Property: for any key set, ranks are a permutation of 0..n-1 consistent
// with sorted order.
func TestBTreeRankProperty(t *testing.T) {
	f := func(keys []int64) bool {
		bt := NewBTree[uint64]()
		uniq := map[int64]bool{}
		for _, k := range keys {
			bt.Insert(IntKey(k), 0)
			uniq[k] = true
		}
		var sorted []int64
		for k := range uniq {
			sorted = append(sorted, k)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i, k := range sorted {
			r, ok := bt.Rank(IntKey(k))
			if !ok || r != i {
				return false
			}
		}
		return bt.check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBTreeMoveAcrossLeavesAllocatesNothing: a Move that leaves its leaf
// deletes, borrows or merges, inserts and splits, and must reuse the nodes
// merges freed. The measured run makes 1,000 moves of a random member to a
// random score, nearly all across leaves, and is the only one, so a single
// allocation anywhere in them fails the pin rather than vanishing in
// AllocsPerRun's integer division.
func TestBTreeMoveAcrossLeavesAllocatesNothing(t *testing.T) {
	const members = 10000
	bt := NewBTree[float64]()
	names := make([]string, members)
	scores := make([]float64, members)
	for i := range names {
		names[i], scores[i] = fmt.Sprintf("m%05d", i), float64(i)
		bt.Insert(FloatKey(scores[i], names[i]), scores[i])
	}
	rng := rand.New(rand.NewSource(1))
	moves := func(n int) {
		for range n {
			i, to := rng.Intn(members), float64(rng.Intn(members))
			bt.Move(FloatKey(scores[i], names[i]), FloatKey(to, names[i]), to)
			scores[i] = to
		}
	}
	// The ascending preload leaves its leaves half full: the most nodes the
	// set will have, so from here on merges free what splits reuse.
	moves(members)
	if n := testing.AllocsPerRun(1, func() { moves(1000) }); n != 0 {
		t.Errorf("1,000 moves across leaves allocate %v objects, want 0", n)
	}
	if err := bt.check(); err != nil {
		t.Fatal(err)
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
