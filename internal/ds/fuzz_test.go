package ds

import (
	"math"
	"testing"
)

// FuzzDictImplementationsAgree feeds an arbitrary operation stream to the
// skip-list dictionary and a map oracle; the two must agree on every result.
func FuzzDictImplementationsAgree(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{255, 0, 255, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		sl := NewSkipListDict(7)
		oracle := map[int64]uint64{}
		for len(data) >= 3 {
			kind := DictOpKind(data[0] % 3)
			key := int64(data[1] % 32)
			val := uint64(data[2])
			data = data[3:]
			op := DictOp{Kind: kind, Key: key, Value: val}
			rs := sl.Execute(op)
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
		if sl.Len() != len(oracle) {
			t.Fatalf("sizes: skiplist=%d oracle=%d", sl.Len(), len(oracle))
		}
	})
}

// FuzzSortedSetConsistency drives the coupled hash+tree sorted set with
// arbitrary ops and asserts the two structures never diverge, and that
// every read matches a model to the bit. A record's last byte can swap its
// score for -0, +0 or ±Inf, so -0 meets +0, zero deltas move nothing and
// inf + -inf is refused.
func FuzzSortedSetConsistency(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 1, 0, 4, 1, 1, 0, 7, 0, 2, 9, 4, 1, 2, 0, 4, 3, 1, 0, 0, 3, 2, 0, 0})
	f.Add([]byte{0, 3, 0, 5, 1, 3, 0, 6, 0, 4, 0, 6, 1, 4, 5, 0, 1, 4, 0, 4, 2, 3, 0, 0, 0, 3, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		z := NewSortedSet(4)
		model := map[string]float64{}
		for len(data) >= 4 {
			kind := data[0] % 4
			member := string(rune('a' + data[1]%16))
			score := float64(int8(data[2]))
			switch data[3] % 8 {
			case 4:
				score = math.Copysign(0, -1)
			case 5:
				score = math.Inf(1)
			case 6:
				score = math.Inf(-1)
			case 7:
				score = 0
			}
			data = data[4:]
			old, present := model[member]
			switch kind {
			case 0:
				z.Add(member, score)
				if !present || score != old {
					model[member] = score
				}
			case 1:
				want := score
				if present {
					want = old + score
				}
				if got := z.IncrBy(member, score); math.Float64bits(got) != math.Float64bits(want) && (got == got || want == want) {
					t.Fatalf("IncrBy(%q, %v) = %v, want %v", member, score, got, want)
				}
				if want == want && (!present || want != old) {
					model[member] = want
				}
			case 2:
				z.Remove(member)
				delete(model, member)
			case 3:
				if r, ok := z.Rank(member); ok {
					if m, _, ok2 := z.ByRank(r); !ok2 || m != member {
						t.Fatalf("Rank/ByRank disagree for %q", member)
					}
				}
			}
			checkSortedSetAgainst(t, z, model)
			if t.Failed() {
				t.FailNow()
			}
		}
	})
}

// FuzzBTreeRankInvariant checks the tree's bookkeeping, ranks, leaf
// pointers and parent links included, after every op of arbitrary
// insert/delete/move streams over 64 keys, and that every entry's Rank is
// its index in the model's key order and leads ByRank back to it. An Insert
// or a Move onto a key another entry holds must be refused, and an entry
// that left the tree or never got in must point at no leaf.
func FuzzBTreeRankInvariant(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 9, 0, 0, 3, 0, 0, 5, 0, 2, 9, 4, 2, 3, 5, 2, 4, 3, 2, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		bt := NewBTree()
		in := map[int64]*member{}
		var gone []*member
		for len(data) >= 3 {
			key, to := int64(data[1]%64), int64(data[2]%64)
			switch data[0] % 3 {
			case 0:
				e, present := intEntry(key), in[key] != nil
				if got := bt.Insert(e); got == present {
					t.Fatalf("Insert(%d) = %v, want %v", key, got, !present)
				}
				if !present {
					in[key] = e
				} else {
					gone = append(gone, e)
				}
			case 1:
				if old := in[key]; old != nil {
					gone = append(gone, old)
				}
				delete(in, key)
				e := bt.get(intEntry(key))
				if e == nil {
					e = intEntry(key)
				}
				bt.Delete(e)
			case 2:
				if e := in[key]; e != nil {
					taken := in[to] != nil && in[to] != e
					if got := bt.Move(e, float64(to)); got == taken {
						t.Fatalf("Move(%d, %d) = %v, want %v", key, to, got, !taken)
					}
					if !taken {
						delete(in, key)
						in[to] = e
					}
				} else if bt.Move(intEntry(key), float64(to)) {
					t.Fatalf("Move of absent key %d = true", key)
				}
			}
			data = data[3:]
			if err := treeConsistent(bt, values(in)); err != nil {
				t.Fatal(err)
			}
			r := 0
			for k := range int64(64) {
				e := in[k]
				if e == nil {
					continue
				}
				if got, ok := bt.Rank(e); !ok || got != r {
					t.Fatalf("Rank(%d) = %d, %v, want %d", k, got, ok, r)
				}
				if got, _ := bt.ByRank(r); got != e {
					t.Fatalf("ByRank(Rank(%d)) is another entry", k)
				}
				r++
			}
			for _, e := range gone {
				if e.val.leaf != nil {
					t.Fatalf("entry %d left the tree but points at a leaf", entryInt(e))
				}
			}
		}
	})
}
