package ds

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// check validates the tree's bookkeeping: keys strictly ascend, every count
// is the size of its subtree, the separators bound their subtrees, every
// node but the root is within its fill bounds, an inner root has two
// children, and Rank(ByRank(i)) == i. It also checks the entries: no used
// slot is nil (an inner node's slot 0 holds no key), every leaf entry points
// at its leaf, and a leaf's Ord is its entry's score; and the links: the
// root's up is nil and every child's up and at name its parent and its slot
// there. It returns the first violation.
func (t *BTree) check() error {
	if t.root.up != nil {
		return fmt.Errorf("the root has a parent")
	}
	var prev *Key
	var walk func(n *btreeNode, h int, lo, hi *Key) (int, error)
	walk = func(n *btreeNode, h int, lo, hi *Key) (int, error) {
		if n != t.root && (n.n < btreeB/2 || n.n > btreeB) {
			return 0, fmt.Errorf("node at height %d holds %d items", h, n.n)
		}
		for i := min(h, 1); i < n.n; i++ {
			if n.ent[i] == nil {
				return 0, fmt.Errorf("node at height %d has a nil entry in used slot %d", h, i)
			}
		}
		if h == 0 {
			for i := 0; i < n.n; i++ {
				k, e := n.key(i), n.ent[i]
				switch {
				case e.val.leaf != n:
					return 0, fmt.Errorf("entry %v does not point at the leaf holding it", k)
				case k.Ord != floatOrd(e.val.score):
					return 0, fmt.Errorf("entry %v filed under Ord %#x, its score %v", k, k.Ord, e.val.score)
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
			if c := n.kid[i]; c.up != n || c.at != i {
				return 0, fmt.Errorf("child %d at height %d links to slot %d of %p, not of its parent %p", i, h, c.at, c.up, n)
			}
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
		e, _ := t.ByRank(i)
		if r, ok := t.Rank(e); !ok || r != i {
			return fmt.Errorf("Rank(ByRank(%d)) = %d, %v", i, r, ok)
		}
	}
	return nil
}

// treeConsistent reports the first way in which bt is not exactly the
// entries in: each of them must point at a leaf that holds it in a used
// slot, bt must hold no more of them, and check must pass.
func treeConsistent(bt *BTree, in []*member) error {
	if bt.Len() != len(in) {
		return fmt.Errorf("tree holds %d entries, want %d", bt.Len(), len(in))
	}
	for _, e := range in {
		l := e.val.leaf
		if l == nil {
			return fmt.Errorf("entry %q (%v) points at no leaf", e.key, e.val.score)
		}
		i := 0
		for i < l.n && l.ent[i] != e {
			i++
		}
		if i == l.n {
			return fmt.Errorf("entry %q (%v) is not in the leaf it points at", e.key, e.val.score)
		}
	}
	return bt.check()
}

// intEntry returns a new entry keyed by k: score k and an empty name, so a
// Move to score k' re-keys it to k'. Two int64s past 2^53 may share a
// float64, and so a key.
func intEntry(k int64) *member { return &member{val: memberVal{score: float64(k)}} }

// entryInt is the int64 an intEntry was keyed by.
func entryInt(e *member) int64 { return int64(e.val.score) }

// get returns the entry stored under probe's key, or nil.
func (t *BTree) get(probe *member) *member {
	var p btreePath
	o := floatOrd(probe.val.score)
	if l, i := t.descend(o, probe, &p); l.holds(i, o, probe) {
		return l.ent[i]
	}
	return nil
}

func TestBTreeEmpty(t *testing.T) {
	bt := NewBTree()
	if bt.Len() != 0 {
		t.Errorf("Len = %d", bt.Len())
	}
	if e := bt.get(intEntry(1)); e != nil {
		t.Error("get on empty found an entry")
	}
	if bt.Delete(intEntry(1)) {
		t.Error("Delete on empty = true")
	}
	if bt.Move(intEntry(1), 2) {
		t.Error("Move on empty = true")
	}
	if _, ok := bt.Rank(intEntry(1)); ok {
		t.Error("Rank on empty = ok")
	}
	if _, ok := bt.ByRank(0); ok {
		t.Error("ByRank(0) on empty = ok")
	}
	if err := bt.check(); err != nil {
		t.Error(err)
	}
}

// TestBTreeInsertGetReplace: an Insert, or a Move, onto a key another entry
// holds is refused and changes nothing; the stored entry stays.
func TestBTreeInsertGetReplace(t *testing.T) {
	bt := NewBTree()
	first, second, third := intEntry(5), intEntry(5), intEntry(6)
	if !bt.Insert(first) {
		t.Error("fresh Insert = false")
	}
	if bt.Insert(second) {
		t.Error("duplicate Insert = true")
	}
	if e := bt.get(intEntry(5)); e != first {
		t.Errorf("get = %p, want the first entry %p", e, first)
	}
	if first.val.leaf == nil || second.val.leaf != nil {
		t.Errorf("leaves %p and %p, want the first entry's only", first.val.leaf, second.val.leaf)
	}
	if !bt.Insert(third) {
		t.Error("Insert(6) = false")
	}
	if bt.Move(third, 5) {
		t.Error("Move onto a taken key = true")
	}
	if third.val.score != 6 || bt.get(intEntry(6)) != third || bt.get(intEntry(5)) != first {
		t.Errorf("a refused Move changed the tree: score %v", third.val.score)
	}
	if bt.Len() != 2 {
		t.Errorf("Len = %d", bt.Len())
	}
	if err := treeConsistent(bt, []*member{first, third}); err != nil {
		t.Error(err)
	}
}

func TestBTreeSplitsAndOrder(t *testing.T) {
	bt := NewBTree()
	const n = 5000
	ents := make([]*member, n)
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, k := range perm {
		ents[k] = intEntry(int64(k))
		bt.Insert(ents[k])
	}
	if bt.Len() != n {
		t.Fatalf("Len = %d, want %d", bt.Len(), n)
	}
	if err := treeConsistent(bt, ents); err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	count := 0
	bt.Range(0, n-1, func(e *member) bool {
		k := entryInt(e)
		if k <= prev {
			t.Fatalf("out of order: %d after %d", k, prev)
		}
		if e != ents[k] {
			t.Fatalf("entry mismatch at %d", k)
		}
		prev = k
		count++
		return true
	})
	if count != n {
		t.Fatalf("Range visited %d, want %d", count, n)
	}
	// Early stop.
	count = 0
	bt.Range(0, n-1, func(*member) bool { count++; return count < 10 })
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
			bt := NewBTree()
			in := map[int]*member{}
			for i := 0; i < n; i++ {
				in[i] = intEntry(int64(i))
				bt.Insert(in[i])
			}
			for j, k := range order(n) {
				e := in[k]
				if got := bt.get(intEntry(int64(k))); got != e {
					t.Fatalf("get(%d) = %p, want %p", k, got, e)
				}
				if !bt.Delete(e) {
					t.Fatalf("Delete(%d) = false", k)
				}
				if bt.Delete(e) {
					t.Fatalf("double Delete(%d) = true", k)
				}
				if e.val.leaf != nil {
					t.Fatalf("deleted entry %d still points at a leaf", k)
				}
				delete(in, k)
				if j%97 == 0 {
					if err := treeConsistent(bt, values(in)); err != nil {
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

// values returns the map's values, in no order.
func values[K comparable](m map[K]*member) []*member {
	in := make([]*member, 0, len(m))
	for _, e := range m {
		in = append(in, e)
	}
	return in
}

func TestBTreeAgainstMapOracle(t *testing.T) {
	bt := NewBTree()
	oracle := map[int64]*member{}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 40000; i++ {
		k := int64(rng.Intn(700))
		switch rng.Intn(4) {
		case 0:
			e := intEntry(k)
			_, present := oracle[k]
			if got := bt.Insert(e); got == present {
				t.Fatalf("op %d: Insert(%d) = %v, want %v", i, k, got, !present)
			}
			if present && e.val.leaf != nil {
				t.Fatalf("op %d: a refused Insert(%d) left its entry pointing at a leaf", i, k)
			}
			if !present {
				oracle[k] = e
			}
		case 1:
			_, present := oracle[k]
			e := bt.get(intEntry(k))
			if e == nil {
				e = intEntry(k) // in no tree: Delete refuses it
			}
			if got := bt.Delete(e); got != present {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", i, k, got, present)
			}
			delete(oracle, k)
		case 2:
			if got, want := bt.get(intEntry(k)), oracle[k]; got != want {
				t.Fatalf("op %d: get(%d) = %p, want %p", i, k, got, want)
			}
		case 3:
			// Mostly short hops (the in-leaf slide), some anywhere, some
			// onto a key that is taken or onto itself.
			to := k + int64(rng.Intn(7)) - 3
			if rng.Intn(4) == 0 {
				to = int64(rng.Intn(700))
			}
			e, present := oracle[k]
			if !present {
				e = intEntry(k)
			}
			taken := oracle[to]
			moves := present && (taken == nil || taken == e)
			if got := bt.Move(e, float64(to)); got != moves {
				t.Fatalf("op %d: Move(%d, %d) = %v, want %v", i, k, to, got, moves)
			}
			if moves {
				delete(oracle, k)
				oracle[to] = e
			}
			if got := bt.get(intEntry(to)); present && got != oracle[to] {
				t.Fatalf("op %d: after Move(%d, %d) get = %p, want %p", i, k, to, got, oracle[to])
			}
			if got := bt.get(intEntry(k)); got != oracle[k] {
				t.Fatalf("op %d: after Move(%d, %d) get(%d) = %p, want %p", i, k, to, k, got, oracle[k])
			}
		}
		if bt.Len() != len(oracle) {
			t.Fatalf("op %d: Len = %d, want %d", i, bt.Len(), len(oracle))
		}
		if i%101 == 0 {
			if err := treeConsistent(bt, values(oracle)); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := treeConsistent(bt, values(oracle)); err != nil {
		t.Fatal(err)
	}
	var keys []int64
	for k := range oracle {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for r, k := range keys {
		if got, ok := bt.ByRank(r); !ok || got != oracle[k] {
			t.Fatalf("ByRank(%d) = %v,%v, want the entry of %d", r, got, ok, k)
		}
	}
}

// Property: inserting any key set then checking invariants + retrievability.
func TestBTreeProperty(t *testing.T) {
	f := func(keys []int64) bool {
		bt := NewBTree()
		uniq := map[float64]*member{}
		for _, k := range keys {
			e := intEntry(k)
			if _, dup := uniq[e.val.score]; bt.Insert(e) == dup {
				return false
			} else if !dup {
				uniq[e.val.score] = e
			}
		}
		if bt.Len() != len(uniq) {
			return false
		}
		for _, e := range uniq {
			if bt.get(&member{val: e.val}) != e {
				return false
			}
		}
		return treeConsistent(bt, values(uniq)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBTreeRank(t *testing.T) {
	bt := NewBTree()
	for i := int64(0); i < 100; i++ {
		bt.Insert(intEntry(i * 2)) // even keys 0..198
	}
	for i := int64(0); i < 100; i++ {
		r, ok := bt.Rank(bt.get(intEntry(i * 2)))
		if !ok || r != int(i) {
			t.Fatalf("Rank(%d) = %d,%v, want %d,true", i*2, r, ok, i)
		}
	}
	if _, ok := bt.Rank(intEntry(3)); ok {
		t.Error("Rank(3) = ok for an entry in no tree")
	}
	for i := 0; i < 100; i++ {
		e, ok := bt.ByRank(i)
		if !ok || entryInt(e) != int64(i*2) {
			t.Fatalf("ByRank(%d) = %v,%v, want %d,true", i, e, ok, i*2)
		}
	}
	if _, ok := bt.ByRank(100); ok {
		t.Error("ByRank(100) out of range = ok")
	}
	if _, ok := bt.ByRank(-1); ok {
		t.Error("ByRank(-1) = ok")
	}
}

func TestBTreeRankAfterDeletes(t *testing.T) {
	bt := NewBTree()
	for i := int64(0); i < 500; i++ {
		bt.Insert(intEntry(i))
	}
	for i := int64(0); i < 500; i += 2 {
		bt.Delete(bt.get(intEntry(i))) // remove evens, odds remain
	}
	for i := 0; i < 250; i++ {
		e, ok := bt.ByRank(i)
		if !ok || entryInt(e) != int64(2*i+1) {
			t.Fatalf("ByRank(%d) = %v, want %d", i, e, 2*i+1)
		}
	}
	if err := bt.check(); err != nil {
		t.Error(err)
	}
}

func TestBTreeRangeByRank(t *testing.T) {
	bt := NewBTree()
	for i := int64(0); i < 100; i++ {
		bt.Insert(intEntry(i))
	}
	for _, r := range [][2]int{{3, 6}, {30, 70}, {0, 99}, {95, 99}} {
		var got []int64
		bt.Range(r[0], r[1], func(e *member) bool {
			got = append(got, entryInt(e))
			return true
		})
		if len(got) != r[1]-r[0]+1 || got[0] != int64(r[0]) || got[len(got)-1] != int64(r[1]) {
			t.Fatalf("Range(%d, %d) = %v", r[0], r[1], got)
		}
	}
	// Clamping and early stop.
	var got []int64
	bt.Range(-5, 1000, func(e *member) bool {
		got = append(got, entryInt(e))
		return len(got) < 3
	})
	if len(got) != 3 {
		t.Errorf("early-stop range returned %d items, want 3", len(got))
	}
	got = got[:0]
	bt.Range(7, 3, func(e *member) bool { got = append(got, entryInt(e)); return true })
	if len(got) != 0 {
		t.Errorf("inverted range returned %v", got)
	}
}

// Property: for any key set, ranks are a permutation of 0..n-1 consistent
// with sorted order.
func TestBTreeRankProperty(t *testing.T) {
	f := func(keys []int64) bool {
		bt := NewBTree()
		uniq := map[float64]bool{}
		for _, k := range keys {
			e := intEntry(k)
			bt.Insert(e)
			uniq[e.val.score] = true
		}
		var sorted []float64
		for k := range uniq {
			sorted = append(sorted, k)
		}
		sort.Float64s(sorted)
		for i, k := range sorted {
			e := bt.get(&member{val: memberVal{score: k}})
			if e == nil {
				return false
			}
			r, ok := bt.Rank(e)
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
	bt := NewBTree()
	ents := make([]*member, members)
	for i := range ents {
		ents[i] = &member{key: fmt.Sprintf("m%05d", i), val: memberVal{score: float64(i)}}
		bt.Insert(ents[i])
	}
	rng := rand.New(rand.NewSource(1))
	moves := func(n int) {
		for range n {
			bt.Move(ents[rng.Intn(members)], float64(rng.Intn(members)))
		}
	}
	// The ascending preload leaves its leaves half full: the most nodes the
	// set will have, so from here on merges free what splits reuse.
	moves(members)
	if n := testing.AllocsPerRun(1, func() { moves(1000) }); n != 0 {
		t.Errorf("1,000 moves across leaves allocate %v objects, want 0", n)
	}
	if err := treeConsistent(bt, ents); err != nil {
		t.Fatal(err)
	}
}

// TestBTreeNodeSize pins SortedSet's tree node at 552 bytes: the count, 32
// Ords, 32 entry pointers, the children's and the free list's pointers, and
// the link up (parent and index) that Rank, Delete and Move start from
// instead of a descent. It stays in the allocator's 576-byte size class,
// where a name string per entry took it to 792 bytes and the 896-byte class
// (DESIGN.md §5d).
func TestBTreeNodeSize(t *testing.T) {
	if size := unsafe.Sizeof(btreeNode{}); size != 552 {
		t.Errorf("btreeNode size = %d, want 552", size)
	}
}
