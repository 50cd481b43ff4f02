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
	// Every ProfileSampleRate-th op per handle dispatches under pprof labels.
	rate := i.profRate
	labeled := rate > 0 && h.seq%rate == 0
	o := i.observer
	if o == nil && h.ring == nil && !labeled {
		resp, _, err := i.dispatch(h, op)
		return resp, err
	}
	var start time.Time
	if o != nil {
		start = time.Now()
		h.tsHint = h.ring.At(start)
	} else {
		h.tsHint = 0
	}
	var (
		resp  R
		class obs.OpClass
		err   error
	)
	if labeled {
		resp, class, err = i.dispatchLabeled(h, op)
	} else {
		resp, class, err = i.dispatch(h, op)
	}
	if o != nil {
		elapsed := time.Since(start)
		o.OpDone(h.node, class, elapsed)
		// The op-end timestamp is derived from the observer's clock reads —
		// the recorder adds no clock read of its own on this path.
		h.ring.RecordAt(h.tsHint+int64(elapsed), trace.KOpEnd, h.node, h.token(), uint64(class))
	} else {
		h.ring.Record(trace.KOpEnd, h.node, h.token(), uint64(class))
	}
	return resp, err
}

// dispatchLabeled is dispatch under runtime/pprof labels (nr_node, nr_op), so
// CPU profiles attribute time to op class and node. Label attachment
// allocates, which is why TryExecute samples it.
func (i *Instance[O, R]) dispatchLabeled(h *Handle[O, R], op O) (resp R, class obs.OpClass, err error) {
	cls := 1
	if i.replicas[h.node].ds.IsReadOnly(op) {
		cls = 0
	}
	pprof.Do(context.Background(), i.profLabels[h.node][cls], func(context.Context) {
		resp, class, err = i.dispatch(h, op)
	})
	return resp, class, err
}

// dispatch routes op to the read or update path of its conflict class and
// reports which class served it: ops a FakeUpdater resolved without logging
// count as reads, matching the Stats.ReadOps accounting. Each op is counted
// exactly once, in the class that actually served it — a fake update that
// fails its read-path attempt counts only as an update, so
// ReadOps+UpdateOps always equals the number of ops executed and agrees
// with the per-class latency histograms the metrics observer keeps.
func (i *Instance[O, R]) dispatch(h *Handle[O, R], op O) (R, obs.OpClass, error) {
	r := i.replicas[h.node]
	c := i.opClass(op)
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
		resp, _, err := i.readOnlyVia(h, c, op, false)
		return resp, obs.OpRead, err
	}
	if _, ok := r.ds.(FakeUpdater[O, R]); ok && c != CrossLog {
		// First attempt the operation as a read (§6). Linearizable: the
		// no-op outcome is justified by the replica state at the read
		// point; a false return falls through to the full update, which
		// re-executes the operation atomically. A panic inside TryReadOnly
		// is final (done=true): retrying on the update path would replay
		// the panic into every replica. Cross-class updates skip the fast
		// path — a consistent multi-class read needs every log's lock,
		// costing more than the log append it would save.
		if resp, done, err := i.readOnlyVia(h, c, op, true); done {
			r.counters.readOps.Add(1)
			return resp, obs.OpRead, err
		}
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
	h.ring.Record(trace.KSlotPublish, h.node, h.token(), 0)
	s.state.Store(slotPosted)
}

// combine is Algorithm 1's Combine on conflict class c: post the op, then
// either become the class-c combiner or wait for a response (a value or a
// contained panic).
//
//nr:hotpath-noio
//nr:spin
func (i *Instance[O, R]) combine(h *Handle[O, R], c int, op O) (R, error) {
	r := i.replicas[h.node]
	lg := &r.logs[c]
	s := &r.slots[h.slot]
	s.op = op
	s.seq = h.seq
	s.class.Store(int32(c))
	tp := h.tsHint
	if tp == 0 {
		tp = h.ring.Now()
	}
	h.ring.RecordAt(tp, trace.KSlotPublish, h.node, h.token(), 0)
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
