package chaos

import (
	"sync/atomic"
	"time"
)

// ParDS is the commuting variant of the chaos accumulator, used by
// multi-log schedules (Schedule.Logs > 1), where different classes' batches
// may be applied to one replica concurrently. DS's response is the key's
// accumulated value, which depends on execution order, and its map is not
// thread-safe — so ParDS changes both: fixed atomic cells, and an add's
// response is its own delta (order-independent). The invariant checker
// never inspects add responses, only errors and the state fold, so the two
// variants are interchangeable under Check.
//
// Keys must lie in [0, ParKeys); Schedule.opFor draws from [0, 64).
type ParDS struct {
	cells [ParKeys]atomic.Int64
}

// ParKeys is ParDS's key-space size, matching the schedule generator's.
const ParKeys = 64

// NewParDS returns an empty commuting accumulator.
func NewParDS() *ParDS { return &ParDS{} }

// Execute applies op. Adds are atomic because ops of different conflict
// classes may run concurrently against the same replica.
func (d *ParDS) Execute(op Op) Result {
	switch op.Kind {
	case KindSum:
		var total int64
		for k := range d.cells {
			total += d.cells[k].Load()
		}
		return Result{Value: total}
	case KindPanic:
		// Partial mutation first, then the panic — same nastiest-case shape
		// as DS.
		d.cells[op.Key].Add(op.Delta)
		if d.panicHookFires() {
			panic(PanicMsg)
		}
		return Result{Value: op.Delta}
	case KindStall:
		time.Sleep(op.Stall)
		d.cells[op.Key].Add(op.Delta)
		return Result{Value: op.Delta}
	default:
		d.cells[op.Key].Add(op.Delta)
		return Result{Value: op.Delta}
	}
}

// panicHookFires exists for symmetry with DS.panicHook; ParDS always
// honors the injected panic (divergence tests use DS).
func (d *ParDS) panicHookFires() bool { return true }

// IsReadOnly classifies Sum as the only read.
func (d *ParDS) IsReadOnly(op Op) bool { return op.Kind == KindSum }

// ClassFingerprint digests only the cells of one conflict class under the
// multi-log harness mapper (key % logs) — the per-class convergence
// witness of multi-log chaos runs.
func (d *ParDS) ClassFingerprint(class, logs int) uint64 {
	m := make(map[uint16]int64)
	for k := range d.cells {
		if k%logs != class {
			continue
		}
		if v := d.cells[k].Load(); v != 0 {
			m[uint16(k)] = v
		}
	}
	return FingerprintMap(m)
}

// Fingerprint digests the cells with the same order-independent function
// as DS, so Report.Check's fold comparison works unchanged.
func (d *ParDS) Fingerprint() uint64 {
	m := make(map[uint16]int64)
	for k := range d.cells {
		if v := d.cells[k].Load(); v != 0 {
			m[uint16(k)] = v
		}
	}
	return FingerprintMap(m)
}
