package miniredis

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	nr "github.com/asplos17/nr"
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

// The replayed update: ZINCRBY of a member that exists moves its entry in
// the sorted set's tree and allocates nothing, on every replica that
// executes it.
func TestStoreZIncrByAllocatesNothing(t *testing.T) {
	st := NewStore(2)
	ops := make([]StoreOp, 64)
	for i := range ops {
		ops[i] = StoreOp{Cmd: CmdZIncrBy, Key: "z", Member: fmt.Sprintf("m%02d", i), Score: 7}
		st.Execute(StoreOp{Cmd: CmdZAdd, Key: "z", Member: ops[i].Member, Score: float64(i)})
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		st.Execute(ops[i%len(ops)]) // +7 among scores 0..63 in a few leaves: slides in a leaf and moves across leaves
		i++
	}); n != 0 {
		t.Errorf("ZINCRBY of an existing member: %v allocs/op, want 0", n)
	}
}

// TestStoreZRangeAllocations pins a ZRANGE reply at no more than 3
// allocations whatever its size (the member slice is presized and every
// score is formatted into one buffer), and checks each reply, with and
// without scores, against members and FormatScore'd scores taken one by
// one from the set.
func TestStoreZRangeAllocations(t *testing.T) {
	scores := []float64{0, math.Copysign(0, -1), 0.1, -2.5, 1e300, -1e-300, 123456789, math.Inf(1), math.Inf(-1)}
	for _, n := range []int{0, 1, 2, 10, 1000, 10000} {
		st := NewStore(4)
		for i := 0; i < n; i++ {
			st.Execute(StoreOp{Cmd: CmdZAdd, Key: "z", Member: fmt.Sprintf("m%05d", i), Score: scores[i%len(scores)] * float64(1+i%3)})
		}
		z, _ := st.zsetFor("z", false)
		for _, r := range [][2]int{{0, -1}, {1, 3}, {-5, -1}, {n / 2, n}, {3, 1}, {-n - 9, n + 9}, {n, -1}} {
			for _, ws := range []bool{false, true} {
				op := StoreOp{Cmd: CmdZRange, Key: "z", Start: r[0], Stop: int32(r[1]), WithScores: ws}
				var want []string
				if z != nil {
					start, stop := clampRange(r[0], r[1], z.Len())
					z.Range(start, stop, func(m string, sc float64) bool {
						want = append(want, m)
						if ws {
							want = append(want, FormatScore(sc))
						}
						return true
					})
				}
				if got := st.Execute(op).Members; !slices.Equal(got, want) {
					t.Fatalf("%d members: ZRANGE z %d %d (scores %v) = %d strings, want %d: %.80q", n, r[0], r[1], ws, len(got), len(want), got)
				}
				if a := testing.AllocsPerRun(5, func() { st.Execute(op) }); a > 3 {
					t.Errorf("%d members: ZRANGE z %d %d (scores %v) makes %v allocations, want at most 3", n, r[0], r[1], ws, a)
				}
			}
		}
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

// As in Redis, removing a set's last member removes its key: DBSIZE no
// longer counts it, GET answers nil instead of WRONGTYPE, ZCARD 0.
func TestStoreZRemOfLastMemberDeletesKey(t *testing.T) {
	st := NewStore(5)
	st.Execute(StoreOp{Cmd: CmdZAdd, Key: "z", Member: "a", Score: 1})
	st.Execute(StoreOp{Cmd: CmdZAdd, Key: "z", Member: "b", Score: 2})
	for _, m := range []string{"a", "b"} {
		if r := st.Execute(StoreOp{Cmd: CmdZRem, Key: "z", Member: m}); r.Int != 1 {
			t.Fatalf("ZREM z %s = %+v", m, r)
		}
	}
	if r := st.Execute(StoreOp{Cmd: CmdDBSize}); r.Int != 0 {
		t.Errorf("DBSIZE after the last ZREM = %+v, want 0", r)
	}
	if r := st.Execute(StoreOp{Cmd: CmdGet, Key: "z"}); r.OK || r.Err != "" {
		t.Errorf("GET after the last ZREM = %+v, want nil", r)
	}
	if r := st.Execute(StoreOp{Cmd: CmdZCard, Key: "z"}); !r.OK || r.Int != 0 {
		t.Errorf("ZCARD after the last ZREM = %+v, want 0", r)
	}
	if r := st.Execute(StoreOp{Cmd: CmdZRem, Key: "z", Member: "a"}); !r.OK || r.Int != 0 {
		t.Errorf("ZREM of the deleted key = %+v, want 0", r)
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
// TestSortedSetAcrossLeavesMatchesModel drives one key with a few hundred
// members, enough for the sorted set's B-tree to span many leaves, through
// a seeded stream of ZINCRBY, ZADD and ZREM on Store.Execute. After every
// step it compares the reply bytes of the step itself, of ZRANK for the
// member it touched and for one other, and of ZRANGE 0 -1 WITHSCORES with a
// model: the members in a slice kept sorted by (score, name). Scores are
// small integers, so ties ordered by member name fall on leaf edges, and
// removals come in waves, so leaves underflow, borrow and merge as well as
// split.
func TestSortedSetAcrossLeavesMatchesModel(t *testing.T) {
	st := NewStore(1)
	var buf bytes.Buffer
	w := NewWriter(bufio.NewWriter(&buf))
	reply := func(args ...string) string {
		t.Helper()
		op, errMsg := ParseCommand(args)
		if errMsg != "" {
			t.Fatalf("%v: %s", args, errMsg)
		}
		buf.Reset()
		if err := WriteResult(w, op, st.Execute(op)); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		return buf.String()
	}
	bulk := func(s string) string { return "$" + strconv.Itoa(len(s)) + "\r\n" + s + "\r\n" }
	score := func(f float64) string { return bulk(strconv.FormatFloat(f, 'g', -1, 64)) }
	boolInt := func(b bool) string {
		if b {
			return ":1\r\n"
		}
		return ":0\r\n"
	}

	type entry struct {
		name  string
		score float64
		reply string // the entry's two bulk strings in a WITHSCORES reply
	}
	var order []entry // the model
	find := func(m string) int {
		return slices.IndexFunc(order, func(e entry) bool { return e.name == m })
	}
	set := func(m string, sc float64) {
		if i := find(m); i >= 0 {
			order = slices.Delete(order, i, i+1)
		}
		i, _ := slices.BinarySearchFunc(order, entry{name: m, score: sc}, func(a, b entry) int {
			if c := cmp.Compare(a.score, b.score); c != 0 {
				return c
			}
			return strings.Compare(a.name, b.name)
		})
		order = slices.Insert(order, i, entry{m, sc, bulk(m) + score(sc)})
	}

	const pool, steps = 700, 4000
	rng := rand.New(rand.NewSource(52))
	peak := 0
	var all strings.Builder
	for step := range steps {
		m := fmt.Sprintf("m%03d", rng.Intn(pool))
		removeShare := 10 // growing waves: the set fills towards the pool
		if step/1000%2 == 1 {
			removeShare = 75 // shrinking waves: leaves underflow
		}
		i := find(m)
		var args []string
		var want string
		switch p := rng.Intn(100); {
		case p < removeShare:
			if i >= 0 {
				order = slices.Delete(order, i, i+1)
			}
			args, want = []string{"ZREM", "k", m}, boolInt(i >= 0)
		case p%2 == 0:
			d := rng.Intn(9) - 4
			sc := float64(d)
			if i >= 0 {
				sc += order[i].score
			}
			set(m, sc)
			args, want = []string{"ZINCRBY", "k", strconv.Itoa(d), m}, score(sc)
		default:
			sc := float64(rng.Intn(40))
			set(m, sc)
			args, want = []string{"ZADD", "k", strconv.Itoa(int(sc)), m}, boolInt(i < 0)
		}
		peak = max(peak, len(order))
		if got := reply(args...); got != want {
			t.Fatalf("step %d: %v = %q, want %q", step, args, got, want)
		}

		for _, x := range []string{m, fmt.Sprintf("m%03d", rng.Intn(pool))} {
			want := "$-1\r\n"
			if i := find(x); i >= 0 {
				want = ":" + strconv.Itoa(i) + "\r\n"
			}
			if got := reply("ZRANK", "k", x); got != want {
				t.Fatalf("step %d (%v): ZRANK k %s = %q, want %q", step, args, x, got, want)
			}
		}
		all.Reset()
		all.WriteString("*" + strconv.Itoa(2*len(order)) + "\r\n")
		for _, e := range order {
			all.WriteString(e.reply)
		}
		if got := reply("ZRANGE", "k", "0", "-1", "WITHSCORES"); got != all.String() {
			t.Fatalf("step %d (%v): ZRANGE k 0 -1 WITHSCORES = %q, want %q", step, args, got, all.String())
		}
	}
	if peak < 300 {
		t.Fatalf("the set peaked at %d members, want a few hundred", peak)
	}
}

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

// TestParseZRangeBoundOverflow: a ZRANGE bound that does not fit an int is
// refused, as Redis refuses it, on both argument forms. Wrapping it turned
// 18446744073709551615 into -1, a whole-set range.
func TestParseZRangeBoundOverflow(t *testing.T) {
	for _, bound := range []string{"18446744073709551615", "9223372036854775808", "-9223372036854775809", "99999999999999999999999"} {
		for _, args := range [][]string{{"ZRANGE", "k", "0", bound}, {"ZRANGE", "k", bound, "-1"}} {
			raw := [][]byte{[]byte(args[0]), []byte(args[1]), []byte(args[2]), []byte(args[3])}
			op, msg := ParseCommand(args)
			rawOp, rawMsg := parseOp(raw)
			if want := "value is not an integer or out of range"; msg != want || rawMsg != want {
				t.Errorf("%q = %+v %q (bytes: %+v %q), want the out-of-range error", args, op, msg, rawOp, rawMsg)
			}
		}
	}
	// Stop is an int32 and saturates; Start keeps the int.
	for _, c := range []struct {
		bound string
		start int
		stop  int32
	}{
		{"9223372036854775807", math.MaxInt64, math.MaxInt32},
		{"-9223372036854775808", math.MinInt64, math.MinInt32},
		{"2147483648", 2147483648, math.MaxInt32},
		{"-2147483649", -2147483649, math.MinInt32},
		{"2147483647", math.MaxInt32, math.MaxInt32},
		{"+7", 7, 7}, {"-0", 0, 0},
	} {
		op, msg := ParseCommand([]string{"ZRANGE", "k", c.bound, c.bound})
		if msg != "" || op.Start != c.start || op.Stop != c.stop {
			t.Errorf("ZRANGE k %s %s = %+v %q, want start %d, stop %d", c.bound, c.bound, op, msg, c.start, c.stop)
		}
	}
}

// TestZRangeSaturatedStopReplies: a stop bound past the int32 range gives
// the reply the bound itself gives, through Store.Execute and over RESP to
// a server. A stop at or past the last member answers the whole set, one
// before the first answers nothing; a truncated int32 would wrap 2^31 to
// -2^31 and -2^63 to 0.
func TestZRangeSaturatedStopReplies(t *testing.T) {
	cases := []struct {
		stop string
		want []string
	}{
		{"9223372036854775807", []string{"a", "b", "c"}},
		{"2147483648", []string{"a", "b", "c"}},
		{"2147483647", []string{"a", "b", "c"}},
		{"-9223372036854775808", nil},
		{"-2147483649", nil},
	}
	st := NewStore(1)
	for i, m := range []string{"a", "b", "c"} {
		st.Execute(StoreOp{Cmd: CmdZAdd, Key: "k", Member: m, Score: float64(i)})
	}
	for _, c := range cases {
		op, msg := ParseCommand([]string{"ZRANGE", "k", "0", c.stop})
		if msg != "" {
			t.Fatalf("ZRANGE k 0 %s: %s", c.stop, msg)
		}
		if got := st.Execute(op).Members; !slices.Equal(got, c.want) {
			t.Errorf("Store: ZRANGE k 0 %s = %q, want %q", c.stop, got, c.want)
		}
	}

	_, addr := startServer(t, MethodNR)
	c := dial(t, addr)
	for i, m := range []string{"a", "b", "c"} {
		if got := c.cmd(t, "ZADD", "k", strconv.Itoa(i), m); got != ":1" {
			t.Fatalf("ZADD k %d %s = %q", i, m, got)
		}
	}
	for _, cs := range cases {
		if got, want := c.cmd(t, "ZRANGE", "k", "0", cs.stop), strings.Join(cs.want, ","); got != want {
			t.Errorf("server: ZRANGE k 0 %s = %q, want %q", cs.stop, got, want)
		}
	}
}

// TestStoreOpLogCell pins the server's op at 56 bytes and its log cell at
// 64, one line: StoreOp plus one 8-byte word, core's entry tag under the
// log's lap code, with no pad (DESIGN.md §5b tables the earlier layouts).
func TestStoreOpLogCell(t *testing.T) {
	if size := unsafe.Sizeof(StoreOp{}); size != 56 {
		t.Errorf("StoreOp size = %d, want 56 (Stop, Cmd and WithScores share the tail word)", size)
	}
	const entries = 1024
	inst, err := nr.New(func() nr.Sequential[StoreOp, StoreResult] { return NewStore(1) }, nr.WithLogEntries(entries))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if cell := inst.MemoryBytes() / entries; cell != 64 {
		t.Errorf("log cell of StoreOp = %d bytes, want 64", cell)
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
