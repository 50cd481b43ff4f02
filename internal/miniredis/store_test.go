package miniredis

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestStoreStringOps(t *testing.T) {
	st := NewStore(1)
	if r := st.Execute(StoreOp{Cmd: CmdPing}); r.Str != "PONG" {
		t.Errorf("PING = %+v", r)
	}
	if r := st.Execute(StoreOp{Cmd: CmdGet, Key: "x"}); r.OK {
		t.Error("GET missing key = OK")
	}
	st.Execute(StoreOp{Cmd: CmdSet, Key: "x", Member: "hello"})
	if r := st.Execute(StoreOp{Cmd: CmdGet, Key: "x"}); !r.OK || r.Str != "hello" {
		t.Errorf("GET = %+v", r)
	}
	if r := st.Execute(StoreOp{Cmd: CmdDBSize}); r.Int != 1 {
		t.Errorf("DBSIZE = %+v", r)
	}
	if r := st.Execute(StoreOp{Cmd: CmdDel, Key: "x"}); r.Int != 1 {
		t.Errorf("DEL = %+v", r)
	}
	if r := st.Execute(StoreOp{Cmd: CmdDel, Key: "x"}); r.Int != 0 {
		t.Errorf("second DEL = %+v", r)
	}
}

func TestStoreSortedSetOps(t *testing.T) {
	st := NewStore(2)
	if r := st.Execute(StoreOp{Cmd: CmdZAdd, Key: "z", Member: "a", Score: 3}); r.Int != 1 {
		t.Errorf("ZADD new = %+v", r)
	}
	if r := st.Execute(StoreOp{Cmd: CmdZAdd, Key: "z", Member: "a", Score: 5}); r.Int != 0 {
		t.Errorf("ZADD existing = %+v", r)
	}
	st.Execute(StoreOp{Cmd: CmdZAdd, Key: "z", Member: "b", Score: 1})
	if r := st.Execute(StoreOp{Cmd: CmdZScore, Key: "z", Member: "a"}); !r.OK || r.Score != 5 {
		t.Errorf("ZSCORE = %+v", r)
	}
	if r := st.Execute(StoreOp{Cmd: CmdZRank, Key: "z", Member: "a"}); !r.OK || r.Int != 1 {
		t.Errorf("ZRANK(a) = %+v, want 1 (b is rank 0)", r)
	}
	if r := st.Execute(StoreOp{Cmd: CmdZIncrBy, Key: "z", Member: "b", Score: 10}); r.Score != 11 {
		t.Errorf("ZINCRBY = %+v", r)
	}
	if r := st.Execute(StoreOp{Cmd: CmdZRank, Key: "z", Member: "b"}); r.Int != 1 {
		t.Errorf("ZRANK(b) after incr = %+v", r)
	}
	if r := st.Execute(StoreOp{Cmd: CmdZCard, Key: "z"}); r.Int != 2 {
		t.Errorf("ZCARD = %+v", r)
	}
	if r := st.Execute(StoreOp{Cmd: CmdZRange, Key: "z", Start: 0, Stop: -1}); len(r.Members) != 2 ||
		r.Members[0] != "a" || r.Members[1] != "b" {
		t.Errorf("ZRANGE = %+v", r)
	}
	if r := st.Execute(StoreOp{Cmd: CmdZRange, Key: "z", Start: 0, Stop: -1, WithScores: true}); len(r.Members) != 4 {
		t.Errorf("ZRANGE WITHSCORES = %+v", r)
	}
	if r := st.Execute(StoreOp{Cmd: CmdZRem, Key: "z", Member: "a"}); r.Int != 1 {
		t.Errorf("ZREM = %+v", r)
	}
	if r := st.Execute(StoreOp{Cmd: CmdZScore, Key: "z", Member: "nope"}); r.OK {
		t.Error("ZSCORE missing member = OK")
	}
	if r := st.Execute(StoreOp{Cmd: CmdZRank, Key: "nokey", Member: "m"}); r.OK {
		t.Error("ZRANK missing key = OK")
	}
}

// A NaN compares "equal" to every (score, member) key. Let in, ZADD k nan x
// overwrote a neighbour's skip-list node instead of inserting (four members
// by name, three by score) and the ZINCRBY after it unlinked an unrelated
// member. Both are refused without mutating, also for ops that never went
// through parseOp (library callers, WAL replay).
func TestStoreRefusesNaNScores(t *testing.T) {
	st := NewStore(2)
	for i, m := range []string{"a", "b", "c"} {
		st.Execute(StoreOp{Cmd: CmdZAdd, Key: "k", Member: m, Score: float64(i)})
	}
	if r := st.Execute(StoreOp{Cmd: CmdZAdd, Key: "k", Member: "x", Score: math.NaN()}); r.Err != notFloat {
		t.Errorf("ZADD k nan x = %+v, want %q", r, notFloat)
	}
	if r := st.Execute(StoreOp{Cmd: CmdZIncrBy, Key: "k", Member: "x", Score: 1}); r.Err != "" || r.Score != 1 {
		t.Errorf("ZINCRBY k 1 x = %+v", r)
	}
	if r := st.Execute(StoreOp{Cmd: CmdZIncrBy, Key: "k", Member: "x", Score: math.NaN()}); r.Err != notFloat {
		t.Errorf("ZINCRBY k nan x = %+v, want %q", r, notFloat)
	}
	st.Execute(StoreOp{Cmd: CmdZAdd, Key: "k", Member: "c", Score: math.Inf(1)})
	if r := st.Execute(StoreOp{Cmd: CmdZIncrBy, Key: "k", Member: "c", Score: math.Inf(-1)}); r.Err != resultNaN {
		t.Errorf("ZINCRBY k -inf c (at +inf) = %+v, want %q", r, resultNaN)
	}
	if r := st.Execute(StoreOp{Cmd: CmdZAdd, Key: "fresh", Member: "x", Score: math.NaN()}); r.Err != notFloat {
		t.Errorf("ZADD fresh nan x = %+v", r)
	}
	if r := st.Execute(StoreOp{Cmd: CmdDBSize}); r.Int != 1 {
		t.Errorf("a refused ZADD created its key: DBSIZE = %d", r.Int)
	}
	for rank, m := range []string{"a", "b", "x", "c"} {
		if r := st.Execute(StoreOp{Cmd: CmdZRank, Key: "k", Member: m}); !r.OK || r.Int != int64(rank) {
			t.Errorf("ZRANK k %s = %+v, want %d", m, r, rank)
		}
	}
	if r := st.Execute(StoreOp{Cmd: CmdZRange, Key: "k", Start: 0, Stop: -1}); strings.Join(r.Members, ",") != "a,b,x,c" {
		t.Errorf("ZRANGE k 0 -1 = %v", r.Members)
	}
}

// The replayed update: ZINCRBY of a member that exists moves its skip-list
// node and allocates nothing, on every replica that executes it.
func TestStoreZIncrByAllocatesNothing(t *testing.T) {
	st := NewStore(2)
	ops := make([]StoreOp, 64)
	for i := range ops {
		ops[i] = StoreOp{Cmd: CmdZIncrBy, Key: "z", Member: fmt.Sprintf("m%02d", i), Score: 7}
		st.Execute(StoreOp{Cmd: CmdZAdd, Key: "z", Member: ops[i].Member, Score: float64(i)})
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		st.Execute(ops[i%len(ops)]) // +7 among scores 0..63: off the same-position fast path
		i++
	}); n != 0 {
		t.Errorf("ZINCRBY of an existing member: %v allocs/op, want 0", n)
	}
}

func TestStoreWrongType(t *testing.T) {
	st := NewStore(3)
	st.Execute(StoreOp{Cmd: CmdSet, Key: "s", Member: "v"})
	for _, cmd := range []Cmd{CmdZAdd, CmdZIncrBy, CmdZRem, CmdZScore, CmdZRank, CmdZCard, CmdZRange} {
		if r := st.Execute(StoreOp{Cmd: cmd, Key: "s", Member: "m"}); r.Err == "" {
			t.Errorf("cmd %d against string key did not error", cmd)
		}
	}
	st.Execute(StoreOp{Cmd: CmdZAdd, Key: "z", Member: "m", Score: 1})
	if r := st.Execute(StoreOp{Cmd: CmdGet, Key: "z"}); r.Err == "" {
		t.Error("GET against zset did not error")
	}
}

func TestStoreFlushAll(t *testing.T) {
	st := NewStore(4)
	st.Execute(StoreOp{Cmd: CmdSet, Key: "a", Member: "1"})
	st.Execute(StoreOp{Cmd: CmdZAdd, Key: "z", Member: "m", Score: 1})
	st.Execute(StoreOp{Cmd: CmdFlushAll})
	if r := st.Execute(StoreOp{Cmd: CmdDBSize}); r.Int != 0 {
		t.Errorf("DBSIZE after FLUSHALL = %+v", r)
	}
}

func TestStoreReadOnlyClassification(t *testing.T) {
	st := NewStore(5)
	readOnly := []Cmd{CmdPing, CmdGet, CmdZScore, CmdZRank, CmdZCard, CmdZRange, CmdDBSize}
	updates := []Cmd{CmdSet, CmdDel, CmdZAdd, CmdZIncrBy, CmdZRem, CmdFlushAll}
	for _, c := range readOnly {
		if !st.IsReadOnly(StoreOp{Cmd: c}) {
			t.Errorf("cmd %d not classified read-only", c)
		}
	}
	for _, c := range updates {
		if st.IsReadOnly(StoreOp{Cmd: c}) {
			t.Errorf("cmd %d classified read-only", c)
		}
	}
}

// TestStoreReplicaDeterminism: two stores with the same seed fed the same op
// stream must answer identically — the property NR replication needs.
func TestStoreReplicaDeterminism(t *testing.T) {
	a, b := NewStore(9), NewStore(9)
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 20000; i++ {
		op := StoreOp{
			Cmd:    Cmd(rng.Intn(int(CmdFlushAll))), // skip FLUSHALL to keep state rich
			Key:    fmt.Sprintf("k%d", rng.Intn(5)),
			Member: fmt.Sprintf("m%d", rng.Intn(50)),
			Score:  float64(rng.Intn(100)),
			Start:  0, Stop: -1,
		}
		ra, rb := a.Execute(op), b.Execute(op)
		if fmt.Sprintf("%+v", ra) != fmt.Sprintf("%+v", rb) {
			t.Fatalf("op %d %+v diverged: %+v vs %+v", i, op, ra, rb)
		}
	}
}

func TestParseCommand(t *testing.T) {
	cases := []struct {
		args []string
		cmd  Cmd
		bad  bool
	}{
		{[]string{"PING"}, CmdPing, false},
		{[]string{"ping"}, CmdPing, false},
		{[]string{"SET", "k", "v"}, CmdSet, false},
		{[]string{"SET", "k"}, 0, true},
		{[]string{"GET", "k"}, CmdGet, false},
		{[]string{"DEL", "k"}, CmdDel, false},
		{[]string{"ZADD", "z", "1.5", "m"}, CmdZAdd, false},
		{[]string{"ZADD", "z", "notanumber", "m"}, 0, true},
		{[]string{"ZINCRBY", "z", "2", "m"}, CmdZIncrBy, false},
		{[]string{"ZREM", "z", "m"}, CmdZRem, false},
		{[]string{"ZSCORE", "z", "m"}, CmdZScore, false},
		{[]string{"ZRANK", "z", "m"}, CmdZRank, false},
		{[]string{"ZCARD", "z"}, CmdZCard, false},
		{[]string{"ZRANGE", "z", "0", "-1"}, CmdZRange, false},
		{[]string{"ZRANGE", "z", "0", "-1", "WITHSCORES"}, CmdZRange, false},
		{[]string{"ZRANGE", "z", "0", "-1", "BOGUS"}, 0, true},
		{[]string{"ZRANGE", "z", "x", "-1"}, 0, true},
		{[]string{"DBSIZE"}, CmdDBSize, false},
		{[]string{"FLUSHALL"}, CmdFlushAll, false},
		{[]string{"NOSUCH"}, 0, true},
		{nil, 0, true},
	}
	for _, c := range cases {
		op, errMsg := ParseCommand(c.args)
		if c.bad && errMsg == "" {
			t.Errorf("ParseCommand(%v) accepted", c.args)
		}
		if !c.bad && (errMsg != "" || op.Cmd != c.cmd) {
			t.Errorf("ParseCommand(%v) = %+v, %q", c.args, op, errMsg)
		}
	}
}

func TestClampRange(t *testing.T) {
	cases := []struct{ start, stop, n, ws, we int }{
		{0, -1, 10, 0, 9},
		{-3, -1, 10, 7, 9},
		{-100, 5, 10, 0, 5},
		{2, 100, 10, 2, 100},
	}
	for _, c := range cases {
		s, e := clampRange(c.start, c.stop, c.n)
		if s != c.ws || e != c.we {
			t.Errorf("clampRange(%d,%d,%d) = %d,%d want %d,%d", c.start, c.stop, c.n, s, e, c.ws, c.we)
		}
	}
}
