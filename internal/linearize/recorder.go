package linearize

import (
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"
)

// Recorder collects a concurrent history using a shared logical clock.
// Each worker goroutine owns one Client; the recorder merges their logs.
type Recorder struct {
	clock   atomic.Int64
	mu      sync.Mutex
	clients [][]Op
}

// NewRecorder returns a recorder for the given number of clients.
func NewRecorder(clients int) *Recorder {
	return &Recorder{clients: make([][]Op, clients)}
}

// Client is one goroutine's recording handle; not safe for concurrent use.
type Client struct {
	r  *Recorder
	id int
}

// Client returns the handle for client id.
func (r *Recorder) Client(id int) *Client { return &Client{r: r, id: id} }

// Invoke timestamps an operation's start and returns a token for Complete.
func (c *Client) Invoke() int64 {
	return c.r.clock.Add(1)
}

// Complete records the finished operation.
func (c *Client) Complete(call int64, input, output any) {
	ret := c.r.clock.Add(1)
	c.r.mu.Lock()
	c.r.clients[c.id] = append(c.r.clients[c.id], Op{
		Client: c.id, Input: input, Output: output, Call: call, Return: ret,
	})
	c.r.mu.Unlock()
}

// History returns all recorded operations sorted by invocation time.
func (r *Recorder) History() []Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	var all []Op
	for _, ops := range r.clients {
		all = append(all, ops...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Call < all[j].Call })
	return all
}

// RegisterIn is the input type for the register/counter model.
type RegisterIn struct {
	Inc bool // false = read
}

// CounterModel specifies a counter with read and fetch-and-increment
// (increment returns the new value) — the model used against NR in tests.
func CounterModel() Model[uint64] {
	return Model[uint64]{
		Init: func() uint64 { return 0 },
		Step: func(s uint64, input, output any) (bool, uint64) {
			in := input.(RegisterIn)
			out := output.(uint64)
			if in.Inc {
				return out == s+1, s + 1
			}
			return out == s, s
		},
		Hash: func(s uint64) uint64 { return HashUint64(0, s) },
	}
}

// DictIn is the input type for the dictionary model.
type DictIn struct {
	Kind byte // 'i' insert, 'd' delete, 'l' lookup
	Key  int64
	Val  uint64
}

// DictOut is the output type for the dictionary model.
type DictOut struct {
	Val uint64
	OK  bool
}

// dictState is an immutable sorted association list; small histories keep
// it cheap.
type dictState struct {
	keys []int64
	vals []uint64
}

func (d dictState) find(k int64) (int, bool) {
	i := sort.Search(len(d.keys), func(i int) bool { return d.keys[i] >= k })
	return i, i < len(d.keys) && d.keys[i] == k
}

func (d dictState) with(k int64, v uint64) dictState {
	i, ok := d.find(k)
	keys := make([]int64, 0, len(d.keys)+1)
	vals := make([]uint64, 0, len(d.vals)+1)
	keys = append(keys, d.keys[:i]...)
	vals = append(vals, d.vals[:i]...)
	keys = append(keys, k)
	vals = append(vals, v)
	if ok {
		keys = append(keys, d.keys[i+1:]...)
		vals = append(vals, d.vals[i+1:]...)
	} else {
		keys = append(keys, d.keys[i:]...)
		vals = append(vals, d.vals[i:]...)
	}
	return dictState{keys, vals}
}

func (d dictState) without(i int) dictState {
	keys := make([]int64, 0, len(d.keys)-1)
	vals := make([]uint64, 0, len(d.vals)-1)
	keys = append(keys, d.keys[:i]...)
	keys = append(keys, d.keys[i+1:]...)
	vals = append(vals, d.vals[:i]...)
	vals = append(vals, d.vals[i+1:]...)
	return dictState{keys, vals}
}

// DictModel specifies a dictionary with insert (reports newly-inserted),
// delete (reports was-present) and lookup.
func DictModel() Model[dictState] {
	return Model[dictState]{
		Init: func() dictState { return dictState{} },
		Step: func(s dictState, input, output any) (bool, dictState) {
			in := input.(DictIn)
			out := output.(DictOut)
			switch in.Kind {
			case 'i':
				_, present := s.find(in.Key)
				return out.OK == !present, s.with(in.Key, in.Val)
			case 'd':
				i, present := s.find(in.Key)
				if present {
					return out.OK, s.without(i)
				}
				return !out.OK, s
			case 'l':
				i, present := s.find(in.Key)
				if present {
					return out.OK && out.Val == s.vals[i], s
				}
				return !out.OK, s
			}
			return false, s
		},
		Hash: func(s dictState) uint64 {
			buf := make([]byte, 0, len(s.keys)*16)
			var tmp [16]byte
			h := uint64(0)
			for i := range s.keys {
				binary.LittleEndian.PutUint64(tmp[0:8], uint64(s.keys[i]))
				binary.LittleEndian.PutUint64(tmp[8:16], s.vals[i])
				buf = append(buf, tmp[:]...)
			}
			return HashBytes(h, buf)
		},
	}
}
