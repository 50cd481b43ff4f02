package ds

import (
	"math/rand"
	"testing"
)

func TestSkipListPQOps(t *testing.T) {
	pq := NewSkipListPQ(1)
	if r := pq.Execute(PQOp{Kind: PQFindMin}); r.OK {
		t.Error("FindMin on empty = ok")
	}
	pq.Execute(PQOp{Kind: PQInsert, Key: 5})
	pq.Execute(PQOp{Kind: PQInsert, Key: 2})
	pq.Execute(PQOp{Kind: PQInsert, Key: 8})
	if r := pq.Execute(PQOp{Kind: PQFindMin}); !r.OK || r.Key != 2 {
		t.Errorf("FindMin = %+v, want key 2", r)
	}
	if r := pq.Execute(PQOp{Kind: PQDeleteMin}); !r.OK || r.Key != 2 {
		t.Errorf("DeleteMin = %+v, want key 2", r)
	}
	if pq.Len() != 2 {
		t.Errorf("Len = %d, want 2", pq.Len())
	}
	if !pq.IsReadOnly(PQOp{Kind: PQFindMin}) {
		t.Error("FindMin not classified read-only")
	}
	if pq.IsReadOnly(PQOp{Kind: PQInsert}) || pq.IsReadOnly(PQOp{Kind: PQDeleteMin}) {
		t.Error("update op classified read-only")
	}
}

func TestHeapPQOpsMatchSkipListPQ(t *testing.T) {
	// Both priority-queue implementations must agree on every op result —
	// the black-box property lets NR swap one for the other.
	a, b := NewSkipListPQ(3), NewHeapPQ()
	rng := rand.New(rand.NewSource(10))
	seen := map[int64]bool{}
	for i := 0; i < 20000; i++ {
		var op PQOp
		switch rng.Intn(3) {
		case 0:
			// The skip list PQ deduplicates keys; feed unique keys so the
			// comparison with the heap (which allows duplicates) is fair.
			k := int64(i)
			if seen[k] {
				continue
			}
			seen[k] = true
			op = PQOp{Kind: PQInsert, Key: k}
		case 1:
			op = PQOp{Kind: PQDeleteMin}
		case 2:
			op = PQOp{Kind: PQFindMin}
		}
		ra, rb := a.Execute(op), b.Execute(op)
		if op.Kind == PQDeleteMin && ra.OK {
			delete(seen, ra.Key)
		}
		if ra != rb {
			t.Fatalf("op %d %+v: skiplist=%+v heap=%+v", i, op, ra, rb)
		}
	}
}

func TestDictOps(t *testing.T) {
	d := NewSkipListDict(2)
	if r := d.Execute(DictOp{Kind: DictInsert, Key: 1, Value: 10}); !r.OK {
		t.Error("fresh insert not OK")
	}
	if r := d.Execute(DictOp{Kind: DictInsert, Key: 1, Value: 20}); r.OK {
		t.Error("replacing insert reported OK=true")
	}
	if r := d.Execute(DictOp{Kind: DictLookup, Key: 1}); !r.OK || r.Value != 20 {
		t.Errorf("Lookup = %+v, want 20", r)
	}
	if r := d.Execute(DictOp{Kind: DictDelete, Key: 1}); !r.OK {
		t.Error("Delete existing = !OK")
	}
	if r := d.Execute(DictOp{Kind: DictDelete, Key: 1}); r.OK {
		t.Error("Delete absent = OK")
	}
	if !d.IsReadOnly(DictOp{Kind: DictLookup}) {
		t.Error("Lookup not read-only")
	}
	if d.IsReadOnly(DictOp{Kind: DictInsert}) || d.IsReadOnly(DictOp{Kind: DictDelete}) {
		t.Error("update classified read-only")
	}
	if d.Len() != 0 {
		t.Errorf("Len = %d, want 0", d.Len())
	}
}

func TestSortedSetOps(t *testing.T) {
	z := NewSeqSortedSet(0)
	if r := z.Execute(ZOp{Kind: ZAdd, Member: "a", Score: 1}); !r.OK {
		t.Error("fresh ZAdd = !OK")
	}
	if r := z.Execute(ZOp{Kind: ZIncrBy, Member: "a", Score: 4}); r.Score != 5 {
		t.Errorf("ZIncrBy = %+v, want score 5", r)
	}
	if r := z.Execute(ZOp{Kind: ZScore, Member: "a"}); !r.OK || r.Score != 5 {
		t.Errorf("ZScore = %+v, want 5", r)
	}
	z.Execute(ZOp{Kind: ZAdd, Member: "b", Score: 2})
	if r := z.Execute(ZOp{Kind: ZRank, Member: "a"}); !r.OK || r.Rank != 1 {
		t.Errorf("ZRank(a) = %+v, want rank 1", r)
	}
	if r := z.Execute(ZOp{Kind: ZCard}); r.Rank != 2 {
		t.Errorf("ZCard = %+v, want 2", r)
	}
	if r := z.Execute(ZOp{Kind: ZRem, Member: "b"}); !r.OK {
		t.Error("ZRem existing = !OK")
	}
	if r := z.Execute(ZOp{Kind: ZRank, Member: "zzz"}); r.OK {
		t.Error("ZRank absent = OK")
	}
	for _, k := range []ZOpKind{ZScore, ZRank, ZCard} {
		if !z.IsReadOnly(ZOp{Kind: k}) {
			t.Errorf("kind %d not read-only", k)
		}
	}
	for _, k := range []ZOpKind{ZAdd, ZIncrBy, ZRem} {
		if z.IsReadOnly(ZOp{Kind: k}) {
			t.Errorf("kind %d classified read-only", k)
		}
	}
	if z.Inner().Len() != 1 {
		t.Errorf("Inner().Len() = %d, want 1", z.Inner().Len())
	}
}
