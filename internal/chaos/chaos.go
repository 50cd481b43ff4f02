// Package chaos is a deterministic fault-injection harness for the NR core.
//
// The paper's §6 identifies NR's weakest point: a thread that stops making
// progress mid-protocol. A slow combiner blocks its node's combining slots
// and, once the shared log fills, every appender on every node; a
// panicking one must not take its node down with it. This package turns
// that discussion into a repeatable test bed: a seeded schedule injects
// faults at the protocol's pressure points and an invariant checker
// asserts that the containment machinery (internal/core's failure.go) and
// the helping path actually hold.
//
// Injected fault types:
//
//   - Panic: an operation whose Execute panics deterministically — the same
//     op panics at the same point on every replica, the contract §4 demands.
//     The submitting thread must get a *core.PanicError; everyone else's
//     ops must still complete; replicas must stay convergent (including the
//     deterministic partial mutation the op makes before panicking).
//   - Stall: an operation whose Execute sleeps, holding the combiner lock
//     and replica write lock — a preempted/slow combiner as seen by every
//     other thread. Nothing may deadlock, and the replicas must converge.
//   - Log pressure: a deliberately tiny log, so appenders constantly hit the
//     full-log path and exercise inactive-replica helping under faults.
//
// A crash that cuts ops off between publish and response is the
// kill-and-recover half's subject (recover.go): there the process dies,
// as it does in production, and recovery must answer for every token.
//
// Determinism: every fault decision is a pure function of (seed, thread,
// sequence number), so a failing schedule replays exactly from its seed.
// Goroutine interleaving still varies run to run — the invariants below hold
// for every interleaving, which is the point.
package chaos

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"
)

// Kind enumerates chaos operations on the accumulator structure.
type Kind uint8

// Chaos op kinds. Add and Sum are the well-behaved update/read pair; Panic
// and Stall are faulty updates.
const (
	KindAdd Kind = iota
	KindSum
	KindPanic
	KindStall
)

// Op is one operation against the chaos accumulator. Fault behaviour is
// encoded in the op itself so every replica replays it identically.
type Op struct {
	Kind  Kind
	Key   uint16
	Delta int64
	// Stall is how long a KindStall op sleeps inside Execute.
	Stall time.Duration
}

// Result is the accumulator's response: the key's value after an update, or
// the total after a Sum.
type Result struct {
	Value int64
}

// PanicMsg is the panic value used by KindPanic ops, recognizable in
// *core.PanicError.Value.
const PanicMsg = "chaos: injected panic"

// DS is the sequential structure under test: a keyed accumulator with a
// deterministic fingerprint. KindPanic ops mutate the structure *before*
// panicking — deterministically, so convergence must survive the partial
// mutation — which is the nastiest contained-panic case.
type DS struct {
	vals map[uint16]int64
	// panicHook, when non-nil, decides whether a KindPanic op actually
	// panics on this replica; the divergence tests use it to violate the
	// determinism contract on purpose.
	panicHook func() bool
}

// NewDS returns an empty accumulator.
func NewDS() *DS { return &DS{vals: make(map[uint16]int64)} }

// NewDivergentDS returns an accumulator on which KindPanic ops panic only
// when hook() is true — deliberately non-deterministic across replicas, to
// exercise poisoning.
func NewDivergentDS(hook func() bool) *DS {
	return &DS{vals: make(map[uint16]int64), panicHook: hook}
}

// Execute applies op.
func (d *DS) Execute(op Op) Result {
	switch op.Kind {
	case KindSum:
		var total int64
		for _, v := range d.vals {
			total += v
		}
		return Result{Value: total}
	case KindPanic:
		// Partial mutation first, then the panic: replicas must converge on
		// the mutated state.
		d.vals[op.Key] += op.Delta
		if d.panicHook == nil || d.panicHook() {
			panic(PanicMsg)
		}
		return Result{Value: d.vals[op.Key]}
	case KindStall:
		time.Sleep(op.Stall)
		d.vals[op.Key] += op.Delta
		return Result{Value: d.vals[op.Key]}
	default:
		d.vals[op.Key] += op.Delta
		return Result{Value: d.vals[op.Key]}
	}
}

// IsReadOnly classifies Sum as the only read.
func (d *DS) IsReadOnly(op Op) bool { return op.Kind == KindSum }

// Value returns one key's accumulated value (0 when absent); test-side
// inspection only.
func (d *DS) Value(k uint16) int64 { return d.vals[k] }

// Fingerprint returns an order-independent digest of the accumulator's
// contents; convergent replicas have equal fingerprints.
func (d *DS) Fingerprint() uint64 { return FingerprintMap(d.vals) }

// Values returns a copy of the accumulator's contents, the replica oracle's
// canonical state: convergent replicas hold equal maps.
func (d *DS) Values() map[uint16]int64 { return maps.Clone(d.vals) }

// divergence compares every replica's canonical state (Values) with replica
// 0's and returns the first difference, or nil when all are equal. It is
// the replica oracle that runs after every schedule: a fingerprint is a
// digest, the states are the whole contents.
func divergence(states []map[uint16]int64) error {
	for n := 1; n < len(states); n++ {
		if maps.Equal(states[n], states[0]) {
			continue
		}
		show := func(m map[uint16]int64, k uint16) string {
			if v, ok := m[k]; ok {
				return fmt.Sprint(v)
			}
			return "nothing"
		}
		keys := slices.Sorted(maps.Keys(states[0]))
		keys = append(keys, slices.Sorted(maps.Keys(states[n]))...)
		for _, k := range keys {
			if got, want := show(states[n], k), show(states[0], k); got != want {
				return fmt.Errorf("replica %d holds %s at key %d, replica 0 holds %s (divergence)", n, got, k, want)
			}
		}
	}
	return nil
}

// mix is splitmix64's finalizer: a cheap, well-distributed 64-bit mixer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Rand is a tiny splitmix64 PRNG; each worker derives its own from the
// schedule seed so op streams are reproducible and independent.
type Rand struct{ state uint64 }

// NewRand returns a generator for the given seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Next returns the next pseudo-random 64-bit value.
func (r *Rand) Next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix(r.state)
}

// Intn returns a value in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Next() % uint64(n))
}

// SnapshotBytes serializes the accumulator for the durability harness
// (nr.Snapshotter): u64 entry count, then sorted (u16 key, u64 value)
// pairs. Sorted so identical states produce identical bytes.
func (d *DS) SnapshotBytes() ([]byte, error) {
	keys := make([]uint16, 0, len(d.vals))
	for k := range d.vals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := binary.LittleEndian.AppendUint64(nil, uint64(len(keys)))
	for _, k := range keys {
		out = binary.LittleEndian.AppendUint16(out, k)
		out = binary.LittleEndian.AppendUint64(out, uint64(d.vals[k]))
	}
	return out, nil
}

// RestoreDS inverts SnapshotBytes; nil data yields an empty accumulator,
// so it serves directly as an nr.Recover restore function.
func RestoreDS(data []byte) (*DS, error) {
	d := NewDS()
	if data == nil {
		return d, nil
	}
	if len(data) < 8 {
		return nil, fmt.Errorf("chaos: snapshot too short (%d bytes)", len(data))
	}
	n := binary.LittleEndian.Uint64(data)
	data = data[8:]
	if uint64(len(data)) != n*10 {
		return nil, fmt.Errorf("chaos: snapshot claims %d entries, has %d bytes", n, len(data))
	}
	for i := uint64(0); i < n; i++ {
		k := binary.LittleEndian.Uint16(data[i*10:])
		v := int64(binary.LittleEndian.Uint64(data[i*10+2:]))
		d.vals[k] = v
	}
	return d, nil
}

// OpCodec is the hand-rolled fixed-width WAL codec for Op (nr.Codec):
// kind u8 | key u16 | delta u64 | stall u64, 19 bytes, no allocation.
type OpCodec struct{}

// AppendEncode implements nr.Codec.
func (OpCodec) AppendEncode(dst []byte, op Op) ([]byte, error) {
	dst = append(dst, byte(op.Kind))
	dst = binary.LittleEndian.AppendUint16(dst, op.Key)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(op.Delta))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(op.Stall))
	return dst, nil
}

// Decode implements nr.Codec.
func (OpCodec) Decode(data []byte) (Op, error) {
	if len(data) != 19 {
		return Op{}, fmt.Errorf("chaos: op record is %d bytes, want 19", len(data))
	}
	return Op{
		Kind:  Kind(data[0]),
		Key:   binary.LittleEndian.Uint16(data[1:]),
		Delta: int64(binary.LittleEndian.Uint64(data[3:])),
		Stall: time.Duration(binary.LittleEndian.Uint64(data[11:])),
	}, nil
}

// ApplyEffect folds op's state effect into m — the accumulator mutation op
// makes when executed, including a KindPanic op's deterministic partial
// mutation before its panic. Reads have no effect. Folding ApplyEffect
// over a set of ops and fingerprinting with FingerprintMap yields the
// fingerprint a replica must have after executing exactly that set.
func ApplyEffect(m map[uint16]int64, op Op) {
	switch op.Kind {
	case KindSum:
	default:
		m[op.Key] += op.Delta
	}
}

// FingerprintMap digests a bare accumulator state with the same
// order-independent function as DS.Fingerprint.
func FingerprintMap(m map[uint16]int64) uint64 {
	var fp uint64
	for k, v := range m {
		fp += mix(uint64(k)<<32 ^ uint64(uint32(v)) ^ uint64(v)>>32)
	}
	return fp
}

// String renders an op for failure messages.
func (o Op) String() string {
	switch o.Kind {
	case KindSum:
		return "sum"
	case KindPanic:
		return fmt.Sprintf("panic(key=%d,delta=%d)", o.Key, o.Delta)
	case KindStall:
		return fmt.Sprintf("stall(%v,key=%d)", o.Stall, o.Key)
	default:
		return fmt.Sprintf("add(key=%d,delta=%d)", o.Key, o.Delta)
	}
}
