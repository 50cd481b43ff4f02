package core

import (
	"context"
	"errors"
	"runtime"
	"runtime/pprof"
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
func (h *Handle[O, R]) TryExecute(op O) (R, error) {
	i := h.inst
	if h.broken != nil {
		var zero R
		return zero, h.broken
	}
	if err := i.poisonedErr(); err != nil {
		var zero R
		return zero, err
	}
	h.seq++
	c := i.opClass(op)
	if !i.observed && h.ring == nil {
		resp, _, err := i.dispatch(h, c, op)
		return resp, err
	}
	if c != CrossLog && !i.sampled(h.seq) {
		// Unsampled: no clock read, no per-op trace event, no OpDone.
		h.tsHint = 0
		resp, _, err := i.dispatch(h, c, op)
		return resp, err
	}
	// Sampled: one clock read stamps the op's start for the observer and
	// for the trace sites at the top of the op (tail-read, slot-publish),
	// one its end for both.
	start := trace.Now()
	h.tsHint = start
	var (
		resp  R
		class obs.OpClass
		err   error
	)
	// Every ProfileSampleRate-th op per handle dispatches under pprof labels.
	if rate := i.profRate; rate > 0 && h.seq%rate == 0 {
		resp, class, err = i.dispatchLabeled(h, c, op)
	} else {
		resp, class, err = i.dispatch(h, c, op)
	}
	end := trace.Now()
	i.observer.OpDone(h.node, class, time.Duration(end-start))
	h.ring.RecordAt(end, trace.KOpEnd, h.node, h.token(), uint64(class))
	return resp, err
}

// sampled is the predicate every per-op instrumentation site applies to an
// op's per-handle sequence number: trace.Sampled, or a pprof-labelled op
// (every ProfileSampleRate-th), whose profile samples then have a span to
// join. Cross-class ops are sampled too; their sites know them by class or
// entry kind.
func (i *Instance[O, R]) sampled(seq uint32) bool {
	return trace.Sampled(seq) || i.profRate > 0 && seq%i.profRate == 0
}

// dispatchLabeled is dispatch under runtime/pprof labels (nr_node, nr_op), so
// CPU profiles attribute time to op class and node. Label attachment
// allocates, which is why TryExecute samples it.
func (i *Instance[O, R]) dispatchLabeled(h *Handle[O, R], c int, op O) (resp R, class obs.OpClass, err error) {
	cls := 1
	if i.replicas[h.node].ds.IsReadOnly(op) {
		cls = 0
	}
	pprof.Do(context.Background(), i.profLabels[h.node][cls], func(context.Context) {
		resp, class, err = i.dispatch(h, c, op)
	})
	return resp, class, err
}

// dispatch routes op to the read or update path of its conflict class c and
// reports which class served it. Each op is counted exactly once, so
// ReadOps+UpdateOps always equals the number of ops executed, and a sampled
// op's OpDone carries the same class.
func (i *Instance[O, R]) dispatch(h *Handle[O, R], c int, op O) (R, obs.OpClass, error) {
	r := i.replicas[h.node]
	if c == CrossLog {
		h.cls = 0 // cross ops tokenize on log 0, where their entry lives
	} else {
		h.cls = c
	}
	if r.ds.IsReadOnly(op) {
		r.counters.readOps.Add(1)
		if c == CrossLog {
			resp, err := i.readOnlyCross(h, op)
			return resp, obs.OpRead, err
		}
		resp, err := i.readOnlyVia(h, c, op)
		return resp, obs.OpRead, err
	}
	r.counters.updateOps.Add(1)
	if c == CrossLog {
		resp, err := i.updateCross(h, op)
		return resp, obs.OpUpdate, err
	}
	resp, err := i.combine(h, c, op)
	return resp, obs.OpUpdate, err
}

// PostAndAbandon publishes op to this handle's combining slot and returns
// without waiting for the response, then marks the handle unusable. It
// simulates a thread that dies between publishing and combining — the §6
// stalled-thread hazard — for the chaos tests: the node's next combiner
// executes the op and delivers a response nobody collects; the slot is
// permanently retired. A cross-class op is appended (with its barriers)
// but not applied — whichever thread next crosses the barrier applies it.
// LastToken, read right after the call, identifies the abandoned op.
func (h *Handle[O, R]) PostAndAbandon(op O) {
	if h.broken == nil {
		h.broken = errors.New("core: handle abandoned by PostAndAbandon")
	}
	i := h.inst
	r := i.replicas[h.node]
	s := &r.slots[h.slot]
	h.seq++
	c := i.opClass(op)
	if c == CrossLog {
		h.cls = 0
		s.seq = h.seq
		s.state.Store(slotTaken) // response delivered to a slot nobody reads
		i.crossOps.Add(1)
		i.appendCross(h, op)
		return
	}
	h.cls = c
	s.op = op
	s.seq = h.seq
	s.class.Store(int32(c))
	if i.sampled(h.seq) {
		h.ring.Record(trace.KSlotPublish, h.node, h.token(), 0)
	}
	s.state.Store(slotPosted)
}

// combine is Algorithm 1's Combine on conflict class c: post the op, then
// either become the class-c combiner or wait for a response (a value or a
// contained panic).
func (i *Instance[O, R]) combine(h *Handle[O, R], c int, op O) (R, error) {
	r := i.replicas[h.node]
	lg := &r.logs[c]
	s := &r.slots[h.slot]
	s.op = op
	s.seq = h.seq
	s.class.Store(int32(c))
	if h.tsHint != 0 { // sampled (TryExecute)
		h.ring.RecordAt(h.tsHint, trace.KSlotPublish, h.node, h.token(), 0)
	}
	s.state.Store(slotPosted)
	for {
		if s.state.Load() == slotDone {
			resp, err := s.resp, s.err
			s.state.Store(slotEmpty)
			return resp, err
		}
		if lg.combinerLock.TryLock() {
			if s.state.Load() != slotDone {
				i.runCombiner(r, c, h.ring)
			}
			lg.combinerLock.Unlock()
			// runCombiner served every posted class-c slot, including ours.
			resp, err := s.resp, s.err
			s.state.Store(slotEmpty)
			return resp, err
		}
		runtime.Gosched()
	}
}
