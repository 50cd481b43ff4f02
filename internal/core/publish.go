package core

import (
	"runtime"
	"time"

	"github.com/asplos17/nr/internal/obs"
	"github.com/asplos17/nr/internal/trace"
)

// Execute runs op with linearizable semantics (ExecuteConcurrent in §4).
// If the operation's Sequential.Execute panicked — on whichever thread
// actually ran it — the panic is re-raised here, on the submitting
// goroutine, wrapped in a *PanicError. Use TryExecute to receive it as an
// error instead.
func (h *Handle[O, R]) Execute(op O) R {
	resp, err := h.TryExecute(op)
	if err != nil {
		panic(err)
	}
	return resp
}

// TryExecute runs op with linearizable semantics, reporting a contained
// failure as an error instead of a panic: a *PanicError when the
// operation's Execute panicked, ErrPoisoned (wrapped) once replicas have
// been observed to diverge. A nil error means resp is the operation's
// result.
//
// Below TryExecute the op travels by pointer, to this frame's op, then to
// the posted slot's copy or the log cell, up to Sequential.Execute. A
// read's result is written once, into resp; an update's into its slot, and
// from there into resp.
func (h *Handle[O, R]) TryExecute(op O) (resp R, err error) {
	i := h.inst
	if err := i.poisonedErr(); err != nil {
		return resp, err
	}
	h.seq++
	c := i.opClass(&op)
	if !i.observed && h.ring == nil || c != CrossLog && !trace.Sampled(h.seq) {
		// Unsampled, or nothing attached: no clock read, no per-op trace
		// event, no OpDone.
		h.tsHint = 0
		_, err = i.dispatch(h, c, &op, &resp)
		return resp, err
	}
	// Sampled (trace.Sampled, or any cross-class op): one clock read stamps
	// the op's start for the observer and for the trace sites at the top of
	// the op (tail-read, slot-publish), one its end for both.
	start := trace.Now()
	h.tsHint = start
	class, err := i.dispatch(h, c, &op, &resp)
	end := trace.Now()
	i.observer.OpDone(h.node, class, time.Duration(end-start))
	h.ring.RecordAt(end, trace.KOpEnd, h.node, h.token(), uint64(class))
	return resp, err
}

// dispatch routes op to the read or update path of its conflict class c,
// which writes the result to out, and reports which class served it. Each
// op is counted exactly once, so ReadOps+UpdateOps always equals the number
// of ops executed, and a sampled op's OpDone carries the same class.
func (i *Instance[O, R]) dispatch(h *Handle[O, R], c int, op *O, out *R) (obs.OpClass, error) {
	r := i.replicas[h.node]
	if c == CrossLog {
		h.cls = 0 // cross ops tokenize on log 0, where their entry lives
	} else {
		h.cls = c
	}
	if r.ds.IsReadOnly(*op) {
		r.counters.readOps.Add(1)
		if c == CrossLog {
			return obs.OpRead, i.readOnlyCross(h, op, out)
		}
		return obs.OpRead, i.readOnlyVia(h, c, op, out)
	}
	r.counters.updateOps.Add(1)
	if c == CrossLog {
		return obs.OpUpdate, i.updateCross(h, op, out)
	}
	return obs.OpUpdate, i.combine(h, c, op, out)
}

// combine is Algorithm 1's Combine on conflict class c: post a copy of the
// op, then either become the class-c combiner or wait for a response (a
// value, copied to out, or a contained panic).
func (i *Instance[O, R]) combine(h *Handle[O, R], c int, op *O, out *R) error {
	r := i.replicas[h.node]
	lg := &r.logs[c]
	s := &r.slots[h.slot]
	s.op = *op
	s.seq = h.seq
	s.class.Store(int32(c))
	if h.tsHint != 0 { // sampled (TryExecute)
		h.ring.RecordAt(h.tsHint, trace.KSlotPublish, h.node, h.token(), 0)
	}
	s.state.Store(slotPosted)
	for {
		if s.state.Load() == slotDone {
			return s.take(out)
		}
		if lg.combinerLock.TryLock() {
			if s.state.Load() != slotDone {
				i.runCombiner(r, c, h.ring)
			}
			lg.combinerLock.Unlock()
			// runCombiner served every posted class-c slot, including ours.
			return s.take(out)
		}
		runtime.Gosched()
	}
}

// take copies the answered slot's response to out, frees the slot for its
// owner's next op, and returns the contained panic, if any.
func (s *slot[O, R]) take(out *R) error {
	*out = s.resp
	err := s.err
	s.state.Store(slotEmpty)
	return err
}
