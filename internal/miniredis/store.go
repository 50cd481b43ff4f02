package miniredis

import (
	"strconv"

	"github.com/asplos17/nr/internal/ds"
)

// Cmd enumerates the supported commands.
type Cmd uint8

// Supported commands. ZINCRBY and ZRANK are the paper's update and read
// operations (§8.3); the rest round out a usable server.
const (
	CmdPing Cmd = iota
	CmdSet
	CmdGet
	CmdDel
	CmdZAdd
	CmdZIncrBy
	CmdZRem
	CmdZScore
	CmdZRank
	CmdZCard
	CmdZRange
	CmdDBSize
	CmdFlushAll
)

// StoreOp is one operation on the whole keyspace. It is the black-box op
// type NR logs and replays.
type StoreOp struct {
	Cmd        Cmd
	Key        string
	Member     string
	Score      float64
	Start      int
	Stop       int
	WithScores bool
}

// StoreResult is the result of a StoreOp.
type StoreResult struct {
	Str     string
	Int     int64
	Score   float64
	OK      bool
	Members []string
	Err     string
}

// IsReadOnlyOp reports whether op never modifies the keyspace.
func IsReadOnlyOp(op StoreOp) bool {
	switch op.Cmd {
	case CmdPing, CmdGet, CmdZScore, CmdZRank, CmdZCard, CmdZRange, CmdDBSize:
		return true
	}
	return false
}

// value is one keyspace slot: a string or a sorted set (Redis types).
type value struct {
	str   string
	isStr bool
	zset  *ds.SortedSet
}

// Store is the sequential keyspace. It satisfies core.Sequential and is
// replicated by NR (or wrapped by a baseline method).
type Store struct {
	keys *ds.HashMap[*value]
	seed uint64
}

// NewStore returns an empty keyspace. The seed fixes skip-list level choices
// so replicas built from the same op stream are identical.
func NewStore(seed uint64) *Store {
	if seed == 0 {
		seed = 0xfeedface
	}
	return &Store{keys: ds.NewHashMap[*value](64), seed: seed}
}

// Len returns the number of keys.
func (st *Store) Len() int { return st.keys.Len() }

// IsReadOnly implements the black-box contract.
func (st *Store) IsReadOnly(op StoreOp) bool { return IsReadOnlyOp(op) }

func (st *Store) zsetFor(key string, create bool) (*ds.SortedSet, bool) {
	if v, ok := st.keys.Get(key); ok {
		if v.isStr {
			return nil, false // WRONGTYPE
		}
		return v.zset, true
	}
	if !create {
		return nil, true
	}
	// Per-key deterministic seed keeps replicas identical.
	z := ds.NewSortedSet(8, st.seed^hashKey(key))
	st.keys.Set(key, &value{zset: z})
	return z, true
}

func hashKey(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h | 1
}

const (
	wrongType = "WRONGTYPE Operation against a key holding the wrong kind of value"
	// Redis's replies to a NaN score. A NaN has no place in the (score,
	// member) order, so both are refused before anything is mutated, and
	// identically on every replica.
	notFloat  = "value is not a valid float"
	resultNaN = "resulting score is not a number (NaN)"
)

// Execute implements the black-box contract. It is strictly sequential.
func (st *Store) Execute(op StoreOp) StoreResult {
	switch op.Cmd {
	case CmdPing:
		return StoreResult{Str: "PONG", OK: true}

	case CmdSet:
		st.keys.Set(op.Key, &value{str: op.Member, isStr: true})
		return StoreResult{OK: true}

	case CmdGet:
		v, ok := st.keys.Get(op.Key)
		if !ok {
			return StoreResult{}
		}
		if !v.isStr {
			return StoreResult{Err: wrongType}
		}
		return StoreResult{Str: v.str, OK: true}

	case CmdDel:
		if st.keys.Delete(op.Key) {
			return StoreResult{Int: 1, OK: true}
		}
		return StoreResult{Int: 0, OK: true}

	case CmdZAdd:
		if op.Score != op.Score {
			return StoreResult{Err: notFloat}
		}
		z, ok := st.zsetFor(op.Key, true)
		if !ok {
			return StoreResult{Err: wrongType}
		}
		added := z.Add(op.Member, op.Score)
		var n int64
		if added {
			n = 1
		}
		return StoreResult{Int: n, OK: true}

	case CmdZIncrBy:
		return st.zincrby(op)

	case CmdZRem:
		z, ok := st.zsetFor(op.Key, false)
		if !ok {
			return StoreResult{Err: wrongType}
		}
		if z == nil || !z.Remove(op.Member) {
			return StoreResult{Int: 0, OK: true}
		}
		return StoreResult{Int: 1, OK: true}

	case CmdZScore:
		z, ok := st.zsetFor(op.Key, false)
		if !ok {
			return StoreResult{Err: wrongType}
		}
		if z == nil {
			return StoreResult{}
		}
		if sc, ok := z.Score(op.Member); ok {
			return StoreResult{Score: sc, OK: true}
		}
		return StoreResult{}

	case CmdZRank:
		z, ok := st.zsetFor(op.Key, false)
		if !ok {
			return StoreResult{Err: wrongType}
		}
		if z == nil {
			return StoreResult{}
		}
		if r, ok := z.Rank(op.Member); ok {
			return StoreResult{Int: int64(r), OK: true}
		}
		return StoreResult{}

	case CmdZCard:
		z, ok := st.zsetFor(op.Key, false)
		if !ok {
			return StoreResult{Err: wrongType}
		}
		if z == nil {
			return StoreResult{Int: 0, OK: true}
		}
		return StoreResult{Int: int64(z.Len()), OK: true}

	case CmdZRange:
		z, ok := st.zsetFor(op.Key, false)
		if !ok {
			return StoreResult{Err: wrongType}
		}
		res := StoreResult{OK: true}
		if z == nil {
			return res
		}
		start, stop := clampRange(op.Start, op.Stop, z.Len())
		z.Range(start, stop, func(m string, sc float64) bool {
			res.Members = append(res.Members, m)
			if op.WithScores {
				res.Members = append(res.Members, FormatScore(sc))
			}
			return true
		})
		return res

	case CmdDBSize:
		return StoreResult{Int: int64(st.keys.Len()), OK: true}

	case CmdFlushAll:
		st.keys = ds.NewHashMap[*value](64)
		return StoreResult{OK: true}
	}
	return StoreResult{Err: "unknown command"}
}

// zincrby is the paper's update (§8.3), executed once per replica under that
// replica's writer lock: on a member that exists it allocates nothing.
func (st *Store) zincrby(op StoreOp) StoreResult {
	if op.Score != op.Score {
		return StoreResult{Err: notFloat}
	}
	z, ok := st.zsetFor(op.Key, true)
	if !ok {
		return StoreResult{Err: wrongType}
	}
	sc := z.IncrBy(op.Member, op.Score)
	if sc != sc {
		return StoreResult{Err: resultNaN}
	}
	return StoreResult{Score: sc, OK: true}
}

// clampRange converts Redis-style (possibly negative) range bounds.
func clampRange(start, stop, n int) (int, int) {
	if start < 0 {
		start += n
	}
	if stop < 0 {
		stop += n
	}
	if start < 0 {
		start = 0
	}
	return start, stop
}

// byteSeq is what a command argument arrives as: a string from ParseCommand's
// callers, a slice of the connection's read buffer on the serving path.
type byteSeq interface{ ~string | ~[]byte }

// ParseCommand converts a RESP argument vector into a StoreOp.
func ParseCommand(args []string) (StoreOp, string) { return parseOp(args) }

// cmdIs reports whether name is the command upper (given in upper case),
// ignoring ASCII case as Redis does.
func cmdIs[S byteSeq](name S, upper string) bool {
	if len(name) != len(upper) {
		return false
	}
	for i := 0; i < len(upper); i++ {
		ch := name[i]
		if 'a' <= ch && ch <= 'z' {
			ch -= 'a' - 'A'
		}
		if ch != upper[i] {
			return false
		}
	}
	return true
}

// parseOp is the command table: it checks a command's arity and argument
// syntax and builds its StoreOp, or returns the error reply's message. Key
// and member are copied out of args, which on the serving path is a buffer
// about to be reused, while the op lives on in the log.
func parseOp[S byteSeq](args []S) (StoreOp, string) {
	if len(args) == 0 {
		return StoreOp{}, "empty command"
	}
	want := func(n int) bool { return len(args) == n }
	switch cmd := args[0]; {
	case cmdIs(cmd, "ZRANK"):
		if !want(3) {
			return StoreOp{}, "wrong number of arguments for 'zrank' command"
		}
		return StoreOp{Cmd: CmdZRank, Key: string(args[1]), Member: string(args[2])}, ""
	case cmdIs(cmd, "ZINCRBY"):
		if !want(4) {
			return StoreOp{}, "wrong number of arguments for 'zincrby' command"
		}
		sc, err := parseFloat(args[2])
		if err != "" {
			return StoreOp{}, err
		}
		return StoreOp{Cmd: CmdZIncrBy, Key: string(args[1]), Member: string(args[3]), Score: sc}, ""
	case cmdIs(cmd, "PING"):
		return StoreOp{Cmd: CmdPing}, ""
	case cmdIs(cmd, "SET"):
		if !want(3) {
			return StoreOp{}, "wrong number of arguments for 'set' command"
		}
		return StoreOp{Cmd: CmdSet, Key: string(args[1]), Member: string(args[2])}, ""
	case cmdIs(cmd, "GET"):
		if !want(2) {
			return StoreOp{}, "wrong number of arguments for 'get' command"
		}
		return StoreOp{Cmd: CmdGet, Key: string(args[1])}, ""
	case cmdIs(cmd, "DEL"):
		if !want(2) {
			return StoreOp{}, "wrong number of arguments for 'del' command"
		}
		return StoreOp{Cmd: CmdDel, Key: string(args[1])}, ""
	case cmdIs(cmd, "ZADD"):
		if !want(4) {
			return StoreOp{}, "wrong number of arguments for 'zadd' command"
		}
		sc, err := parseFloat(args[2])
		if err != "" {
			return StoreOp{}, err
		}
		return StoreOp{Cmd: CmdZAdd, Key: string(args[1]), Member: string(args[3]), Score: sc}, ""
	case cmdIs(cmd, "ZREM"):
		if !want(3) {
			return StoreOp{}, "wrong number of arguments for 'zrem' command"
		}
		return StoreOp{Cmd: CmdZRem, Key: string(args[1]), Member: string(args[2])}, ""
	case cmdIs(cmd, "ZSCORE"):
		if !want(3) {
			return StoreOp{}, "wrong number of arguments for 'zscore' command"
		}
		return StoreOp{Cmd: CmdZScore, Key: string(args[1]), Member: string(args[2])}, ""
	case cmdIs(cmd, "ZCARD"):
		if !want(2) {
			return StoreOp{}, "wrong number of arguments for 'zcard' command"
		}
		return StoreOp{Cmd: CmdZCard, Key: string(args[1])}, ""
	case cmdIs(cmd, "ZRANGE"):
		if len(args) != 4 && len(args) != 5 {
			return StoreOp{}, "wrong number of arguments for 'zrange' command"
		}
		start, ok1 := parseInt(args[2])
		stop, ok2 := parseInt(args[3])
		if !ok1 || !ok2 {
			return StoreOp{}, "value is not an integer or out of range"
		}
		withScores := len(args) == 5
		if withScores && !cmdIs(args[4], "WITHSCORES") {
			return StoreOp{}, "syntax error"
		}
		return StoreOp{Cmd: CmdZRange, Key: string(args[1]), Start: start, Stop: stop, WithScores: withScores}, ""
	case cmdIs(cmd, "DBSIZE"):
		return StoreOp{Cmd: CmdDBSize}, ""
	case cmdIs(cmd, "FLUSHALL"):
		return StoreOp{Cmd: CmdFlushAll}, ""
	}
	return StoreOp{}, "unknown command '" + string(args[0]) + "'"
}

// parseFloat reads a score. The string made for strconv does not outlive
// the call.
func parseFloat[S byteSeq](s S) (float64, string) {
	f, err := strconv.ParseFloat(string(s), 64)
	if err != nil || f != f {
		return 0, notFloat
	}
	return f, ""
}

func parseInt[S byteSeq](s S) (v int, ok bool) {
	neg := false
	i := 0
	if len(s) > 0 && (s[0] == '-' || s[0] == '+') {
		neg = s[0] == '-'
		i = 1
	}
	if i == len(s) {
		return 0, false
	}
	for ; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		v = v*10 + int(s[i]-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

// WriteResult renders a command result as RESP.
func WriteResult(w *Writer, op StoreOp, res StoreResult) error {
	if res.Err != "" {
		return w.Error(res.Err)
	}
	switch op.Cmd {
	case CmdPing:
		return w.Simple("PONG")
	case CmdSet, CmdFlushAll:
		return w.Simple("OK")
	case CmdGet:
		if !res.OK {
			return w.Nil()
		}
		return w.Bulk(res.Str)
	case CmdDel, CmdZAdd, CmdZRem, CmdZCard, CmdDBSize:
		return w.Int(res.Int)
	case CmdZIncrBy:
		return w.score(res.Score)
	case CmdZScore:
		if !res.OK {
			return w.Nil()
		}
		return w.score(res.Score)
	case CmdZRank:
		if !res.OK {
			return w.Nil()
		}
		return w.Int(res.Int)
	case CmdZRange:
		return w.Array(res.Members)
	}
	return w.Error("unknown command")
}
