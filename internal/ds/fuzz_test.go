package ds

import "testing"

// FuzzDictImplementationsAgree feeds an arbitrary operation stream to the
// skip-list dictionary, the B-tree dictionary, and a map oracle; all three
// must agree on every result. This is the black-box property under fuzz.
func FuzzDictImplementationsAgree(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{255, 0, 255, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		sl := NewSkipListDict(7)
		bt := NewBTreeDict()
		oracle := map[int64]uint64{}
		for len(data) >= 3 {
			kind := DictOpKind(data[0] % 3)
			key := int64(data[1] % 32)
			val := uint64(data[2])
			data = data[3:]
			op := DictOp{Kind: kind, Key: key, Value: val}
			rs, rb := sl.Execute(op), bt.Execute(op)
			if rs != rb {
				t.Fatalf("op %+v: skiplist=%+v btree=%+v", op, rs, rb)
			}
			switch kind {
			case DictInsert:
				_, present := oracle[key]
				if rs.OK == present {
					t.Fatalf("insert(%d): OK=%v but present=%v", key, rs.OK, present)
				}
				oracle[key] = val
			case DictDelete:
				_, present := oracle[key]
				if rs.OK != present {
					t.Fatalf("delete(%d): OK=%v but present=%v", key, rs.OK, present)
				}
				delete(oracle, key)
			case DictLookup:
				wv, wok := oracle[key]
				if rs.OK != wok || (wok && rs.Value != wv) {
					t.Fatalf("lookup(%d) = %+v, oracle %d,%v", key, rs, wv, wok)
				}
			}
		}
		if sl.Len() != len(oracle) || bt.Len() != len(oracle) {
			t.Fatalf("sizes: skiplist=%d btree=%d oracle=%d", sl.Len(), bt.Len(), len(oracle))
		}
	})
}

// FuzzSortedSetConsistency drives the coupled hash+skiplist sorted set with
// arbitrary ops and asserts the two structures never diverge.
func FuzzSortedSetConsistency(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		z := NewSortedSet(4, 3)
		for len(data) >= 4 {
			kind := data[0] % 4
			member := string(rune('a' + data[1]%16))
			score := float64(int8(data[2]))
			data = data[4:]
			switch kind {
			case 0:
				z.Add(member, score)
			case 1:
				z.IncrBy(member, score)
			case 2:
				z.Remove(member)
			case 3:
				if r, ok := z.Rank(member); ok {
					if m, _, ok2 := z.ByRank(r); !ok2 || m != member {
						t.Fatalf("Rank/ByRank disagree for %q", member)
					}
				}
			}
			if !z.consistent() {
				t.Fatal("hash and skip list diverged")
			}
			if !z.byScore.checkSpans() {
				t.Fatal("span invariant violated")
			}
		}
	})
}

// FuzzSkipListRankInvariant checks rank bookkeeping under arbitrary
// insert/delete/move streams.
func FuzzSkipListRankInvariant(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 9, 0, 0, 3, 0, 0, 5, 0, 2, 9, 4, 2, 3, 5, 2, 4, 3, 2, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewSkipList[struct{}](5)
		for len(data) >= 3 {
			key, to := IntKey(int64(data[1]%64)), IntKey(int64(data[2]%64))
			switch data[0] % 3 {
			case 0:
				s.Insert(key, struct{}{})
			case 1:
				s.Delete(key)
			case 2:
				s.Move(key, to, struct{}{})
			}
			data = data[3:]
			if !s.checkSpans() {
				t.Fatal("span invariant violated")
			}
		}
		for i := 0; i < s.Len(); i++ {
			k, _, ok := s.ByRank(i)
			if !ok {
				t.Fatalf("ByRank(%d) missing with Len=%d", i, s.Len())
			}
			if r, ok := s.Rank(k); !ok || r != i {
				t.Fatalf("Rank(ByRank(%d)) = %d,%v", i, r, ok)
			}
		}
	})
}
