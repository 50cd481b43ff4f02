// Package linearize provides a linearizability checker in the style of
// Wing & Gong with Lowe's memoization, plus a concurrent-history recorder.
// The repository uses it to validate NR's central claim — that the
// transformation of an arbitrary sequential structure is linearizable
// (§4) — on real concurrent executions.
package linearize

import (
	"fmt"
	"sort"
)

// Op is one completed operation in a history: its input, observed output,
// and the logical invocation/response timestamps from the recorder.
type Op struct {
	Client int
	Input  any
	Output any
	Call   int64
	Return int64
}

// Model is a sequential specification. States must be treated as immutable:
// Step returns a fresh state rather than mutating.
type Model[S any] struct {
	// Init returns the initial state.
	Init func() S
	// Step applies input to s. It reports whether output is a legal result
	// and returns the successor state.
	Step func(s S, input, output any) (bool, S)
	// Hash fingerprints a state for memoization. It must be injective up to
	// acceptable collisions (collisions only cost completeness of pruning,
	// never soundness, because states reached via the same linearized set
	// and equal hash are assumed equal — provide a strong hash).
	Hash func(s S) uint64
}

// Check reports whether history is linearizable with respect to m.
// Soundness note: memoization prunes on (linearized-set, state-hash); use a
// collision-resistant Hash (e.g. FNV over the full state encoding).
func Check[S any](m Model[S], history []Op) bool {
	if len(history) == 0 {
		return true
	}
	for i, op := range history {
		if op.Call >= op.Return {
			panic(fmt.Sprintf("linearize: op %d has Call %d >= Return %d", i, op.Call, op.Return))
		}
	}
	ops := append([]Op(nil), history...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].Call < ops[j].Call })

	n := len(ops)
	remaining := make([]bool, n)
	for i := range remaining {
		remaining[i] = true
	}
	memo := make(map[string]bool)
	var rec func(s S, left int) bool
	rec = func(s S, left int) bool {
		if left == 0 {
			return true
		}
		key := memoKey(remaining, m.Hash(s))
		if memo[key] {
			return false // this configuration already failed
		}
		// minReturn over remaining ops: only ops invoked before every
		// remaining response may linearize next.
		minReturn := int64(1) << 62
		for i, r := range remaining {
			if r && ops[i].Return < minReturn {
				minReturn = ops[i].Return
			}
		}
		for i, r := range remaining {
			if !r || ops[i].Call > minReturn {
				continue
			}
			ok, next := m.Step(s, ops[i].Input, ops[i].Output)
			if !ok {
				continue
			}
			remaining[i] = false
			if rec(next, left-1) {
				remaining[i] = true // restore for callers above us
				return true
			}
			remaining[i] = true
		}
		memo[key] = true
		return false
	}
	return rec(m.Init(), n)
}

func memoKey(remaining []bool, stateHash uint64) string {
	buf := make([]byte, (len(remaining)+7)/8+8)
	for i, r := range remaining {
		if r {
			buf[i/8] |= 1 << (i % 8)
		}
	}
	off := (len(remaining) + 7) / 8
	for i := 0; i < 8; i++ {
		buf[off+i] = byte(stateHash >> (8 * i))
	}
	return string(buf)
}

// FNV-1a over arbitrary bytes; helper for Model.Hash implementations.
func HashBytes(h uint64, data []byte) uint64 {
	if h == 0 {
		h = 14695981039346656037
	}
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// HashUint64 folds v into h (FNV-1a over its 8 bytes).
func HashUint64(h uint64, v uint64) uint64 {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return HashBytes(h, b[:])
}
