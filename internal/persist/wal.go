// The write-ahead log: lock-framed in-memory pages on the append side, a
// dedicated flusher goroutine owning every file operation on the other.
package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// walPage is one sealed page handed to the flusher. frontier is the
// contiguity frontier captured at seal time: once every page sealed up to
// and including this one is on disk, all records below frontier are
// durable. An empty buf still carries a frontier (Sync uses that to
// publish progress when the active page is empty).
type walPage struct {
	buf      []byte
	frontier uint64
}

// WAL is an append-only record log. Append never performs file I/O — see
// the package comment. A WAL is safe for concurrent Append; Sync and Close
// may be called from any goroutine.
type WAL struct {
	dir  string
	gen  uint64
	opts Options

	// mu guards the append side: active page and frontier bookkeeping.
	// The flusher only ever TryLocks it (after a drain), so an appender
	// blocked handing off a page while holding mu cannot deadlock against
	// the flusher.
	mu       sync.Mutex //nr:lockorder walAppend
	active   []byte
	frontier uint64            // lowest index not yet appended contiguously
	pending  map[uint64]uint64 // interval start -> end for out-of-order appends
	tokens   tokenJournal      // un-checkpointed (index, token) pairs
	closed   bool

	// The sticky failure lives under its own lock, never w.mu: the flusher
	// records and checks failures mid-cycle, when an appender may be
	// holding w.mu blocked on the page queue.
	failMu    sync.Mutex
	failure   error // sticky: encode or I/O error poisons the WAL
	hasFailed atomic.Bool

	pages chan walPage
	free  chan []byte    // page buffer recycling
	syncc chan chan bool // Sync requests; reply means "flushed" (errors are sticky)
	quit  chan struct{}
	done  chan struct{}

	durable atomic.Uint64 // published contiguity frontier after sync

	// Seal-request protocol (see flushCycle): the flusher posts sealReq
	// when it needs the active page; the next Append honors it by sealing
	// early. seals counts completed seals — incremented after the page
	// handoff — so the flusher can tell a post-request seal happened.
	sealReq atomic.Bool
	seals   atomic.Uint64

	appends    atomic.Uint64
	pagesOut   atomic.Uint64
	fsyncs     atomic.Uint64
	fsyncNanos atomic.Uint64
	rotations  atomic.Uint64
	sealStalls atomic.Uint64

	// Flusher-goroutine-only state.
	file    *os.File
	segName string
	segSeq  uint64
	segSize int64

	// Pipelined group sync (flusher-only). Bytes written in one cycle are
	// fsynced at the start of the next, after their kernel writeback —
	// initiated at write time by startWriteback — has had a full cycle to
	// complete: the fdatasync then waits on almost nothing instead of on a
	// device-speed flush of everything just written. The price is one cycle
	// of added durability latency, bounded by the GroupInterval tick.
	// Sync and Close bypass the pipeline and fsync immediately.
	pendFrontier uint64 // highest frontier among written-but-unsynced pages
	pendHave     bool   // a frontier is pending publication
	pendWrote    bool   // unsynced bytes exist in the segment
}

// Open creates a WAL writing generation gen into dir (created if needed)
// and starts its flusher goroutine. The first segment file is created
// eagerly so permission problems surface here, not mid-run.
func Open(dir string, gen uint64, opts Options) (*WAL, error) {
	opts.fillDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &WAL{
		dir:     dir,
		gen:     gen,
		opts:    opts,
		active:  make([]byte, 0, opts.PageBytes+4096),
		pending: make(map[uint64]uint64),
		pages:   make(chan walPage, opts.QueuePages),
		free:    make(chan []byte, opts.QueuePages),
		syncc:   make(chan chan bool),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if err := w.openSegment(0); err != nil {
		return nil, err
	}
	go w.flusher()
	return w, nil
}

// Gen returns the generation this WAL writes.
func (w *WAL) Gen() uint64 { return w.gen }

// Append frames one record for log index idx carrying the op token. enc
// appends the operation's payload encoding to its argument and returns the
// extended slice; it runs with w.mu held and must not call back into the
// WAL. Append does no file I/O: it memcpys into the active page and, when
// the page fills, hands it to the flusher. It blocks only when the flusher
// is QueuePages behind (backpressure). An encode error poisons the WAL:
// the contiguity frontier could never pass the lost record, so pretending
// to continue would silently freeze durability.
//
//nr:hotpath-noio
func (w *WAL) Append(idx, token uint64, enc func([]byte) ([]byte, error)) error {
	if w.hasFailed.Load() {
		return w.stickyErr()
	}
	// The appender lock is held only for a memcpy into the active page; the
	// combiner already serializes appenders, so this never contends in NR
	// configurations (it exists for direct multi-writer WAL users).
	w.mu.Lock() //nr:blockok
	if w.closed {
		w.mu.Unlock()
		return ErrWALClosed
	}
	// Journal the token before the encode attempt: even if encoding fails
	// (poisoning the WAL), the operation still executes in memory, so a
	// later checkpoint's snapshot covers it and must carry its token.
	w.tokens.put(idx, token)
	out, err := appendRecord(w.active, idx, token, enc)
	if err != nil {
		w.mu.Unlock()
		werr := fmt.Errorf("persist: encode record %d: %w", idx, err)
		w.fail(werr)
		return werr
	}
	w.active = out
	w.appends.Add(1)
	w.advanceFrontierLocked(idx)
	if len(w.active) >= w.opts.PageBytes || w.sealReq.Load() {
		w.sealLocked()
	}
	w.mu.Unlock()
	return nil
}

// AppendBytes is Append for a payload encoded by the caller (outside the
// WAL lock): it frames and memcpys the bytes into the active page with no
// closure and no possibility of an encode error. payload may be reused the
// moment AppendBytes returns. This is the hot-path entry point — encode
// into a pooled buffer, then hand the bytes over.
//
//nr:hotpath-noio
func (w *WAL) AppendBytes(idx, token uint64, payload []byte) error {
	if w.hasFailed.Load() {
		return w.stickyErr()
	}
	w.mu.Lock() //nr:blockok single combiner; memcpy-length critical section (see Append)
	if w.closed {
		w.mu.Unlock()
		return ErrWALClosed
	}
	w.tokens.put(idx, token)
	w.active = appendFramed(w.active, idx, token, payload)
	w.appends.Add(1)
	w.advanceFrontierLocked(idx)
	if len(w.active) >= w.opts.PageBytes || w.sealReq.Load() {
		w.sealLocked()
	}
	w.mu.Unlock()
	return nil
}

// advanceFrontierLocked merges [idx, idx+1) into the contiguity frontier.
// Log reservations partition the index space, so each index is appended
// exactly once and single-entry interval merging suffices. In-order
// appends (the overwhelmingly common case: combiners drain reservations in
// index order) advance the frontier directly and never touch the pending
// map. Caller holds w.mu.
func (w *WAL) advanceFrontierLocked(idx uint64) {
	if idx == w.frontier && len(w.pending) == 0 {
		w.frontier = idx + 1
		return
	}
	w.pending[idx] = idx + 1
	for {
		end, ok := w.pending[w.frontier]
		if !ok {
			return
		}
		delete(w.pending, w.frontier)
		w.frontier = end
	}
}

// sealLocked queues the active page for the flusher and installs a fresh
// buffer. Caller holds w.mu; the blocking send (flusher QueuePages behind)
// intentionally stalls all appenders — that is the backpressure. It is
// deadlock-free because the flusher never blocks on w.mu. The seal counter
// is bumped only after the handoff completes, so a flusher observing the
// bump knows the page is in (or already through) the queue.
func (w *WAL) sealLocked() {
	p := walPage{buf: w.active, frontier: w.frontier}
	select {
	case b := <-w.free:
		w.active = b[:0]
	default:
		w.active = make([]byte, 0, w.opts.PageBytes+4096)
	}
	select {
	case w.pages <- p:
	default:
		// Flusher backpressure: QueuePages full pages are already in flight
		// and blocking the appender is the WAL's documented throttle.
		w.sealStalls.Add(1)
		w.pages <- p //nr:blockok
	}
	w.seals.Add(1)
	w.sealReq.Store(false)
}

// DurableIndex returns the published durable watermark: every record with
// index below it has been written (and, under FsyncGroup, fsynced).
func (w *WAL) DurableIndex() uint64 { return w.durable.Load() }

// TokensBelow copies out every journaled (index, token) pair with index
// below idx — the set a checkpoint at applied index idx must fold into
// its snapshot — in no particular order. Checkpoint-path only; O(journal).
func (w *WAL) TokensBelow(idx uint64) []TokenPair {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tokens.below(idx)
}

// DropTokensBelow compacts the token journal, discarding pairs with index
// below idx. Called after a checkpoint at applied index idx is durably
// named: those tokens now live in the snapshot's cumulative set.
func (w *WAL) DropTokensBelow(idx uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.tokens.dropBelow(idx)
}

// Sync seals the current page, flushes everything queued, fsyncs (under
// FsyncGroup), and returns once every record appended before the call is
// durable. It reports the WAL's sticky failure, if any.
func (w *WAL) Sync() error {
	w.mu.Lock()
	closed := w.closed
	w.mu.Unlock()
	if closed {
		if err := w.stickyErr(); err != nil {
			return err
		}
		return ErrWALClosed
	}
	reply := make(chan bool, 1)
	select {
	case w.syncc <- reply:
		<-reply
	case <-w.done:
	}
	return w.stickyErr()
}

// Stats returns point-in-time counters.
func (w *WAL) Stats() Stats {
	return Stats{
		Appends:    w.appends.Load(),
		Pages:      w.pagesOut.Load(),
		Fsyncs:     w.fsyncs.Load(),
		FsyncNanos: w.fsyncNanos.Load(),
		Rotations:  w.rotations.Load(),
		SealStalls: w.sealStalls.Load(),
	}
}

// Close flushes everything, fsyncs, stops the flusher, and closes the
// segment. Appends after Close fail with ErrWALClosed. Close is idempotent
// and returns the sticky failure, if any.
func (w *WAL) Close() error {
	w.mu.Lock()
	already := w.closed
	w.closed = true
	w.mu.Unlock()
	if !already {
		close(w.quit)
	}
	<-w.done
	return w.stickyErr()
}

// fail records the first failure; later ones are dropped. It never touches
// w.mu, so the flusher may call it at any point in a cycle. failMu guards a
// single pointer write on a path that ends durability; blocking is moot.
//
//nr:blockok
func (w *WAL) fail(err error) {
	w.failMu.Lock()
	if w.failure == nil {
		w.failure = err
		w.hasFailed.Store(true)
	}
	w.failMu.Unlock()
}

func (w *WAL) failed() bool { return w.hasFailed.Load() }

// stickyErr returns the first recorded failure. Reached only after
// hasFailed flips, so the spin-context contract no longer applies.
//
//nr:blockok
func (w *WAL) stickyErr() error {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	return w.failure
}

// ---------------------------------------------------------------------------
// Flusher side. Everything below runs on the flusher goroutine only.

func (w *WAL) openSegment(seq uint64) error {
	name := segmentName(w.gen, seq)
	f, err := os.OpenFile(filepath.Join(w.dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(segmentHeader(w.gen, seq)); err != nil {
		f.Close()
		return err
	}
	w.file = f
	w.segName = name
	w.segSeq = seq
	w.segSize = segHeaderSize
	return nil
}

// writePage writes one page's bytes and recycles its buffer, tracking the
// highest frontier seen this cycle.
func (w *WAL) writePage(p walPage, frontier *uint64, have, wrote *bool) {
	if len(p.buf) > 0 && !w.failed() {
		if _, err := w.file.Write(p.buf); err != nil {
			w.fail(fmt.Errorf("persist: write %s: %w", w.segName, err))
		} else {
			if w.opts.Fsync == FsyncGroup {
				startWriteback(w.file, w.segSize, int64(len(p.buf)))
			}
			w.segSize += int64(len(p.buf))
			w.pagesOut.Add(1)
			*wrote = true
		}
	}
	if p.frontier > *frontier || !*have {
		*frontier = p.frontier
	}
	*have = true
	if p.buf != nil {
		select {
		case w.free <- p.buf[:0]:
		default:
		}
	}
}

// flushCycle is the flusher's unit of work: write every queued page — and,
// when sealActive is set, the active page too — then note the result for
// the pipelined group sync (syncPending).
//
// Capturing the active page cannot rely on TryLock alone: under sustained
// load an appender parked handing off a sealed page is holding w.mu, and
// on a single CPU the flusher then never observes the lock free — a
// livelock that starves the fsync, the watermark, and rotation while the
// drain happily writes pages forever. Instead the flusher posts a seal
// request that the next append honors (sealing the active page early),
// and waits for the seal counter to pass the value read before posting:
// any seal completed after the request covers every record appended
// before this cycle began, which is exactly Sync's contract. TryLock
// remains the quiescent-path fallback — with no appends arriving to honor
// the request, the lock is free.
func (w *WAL) flushCycle(sealActive bool) {
	var frontier uint64
	have, wrote := false, false
	drain := func() {
		for {
			select {
			case p := <-w.pages:
				w.writePage(p, &frontier, &have, &wrote)
			default:
				return
			}
		}
	}
	if sealActive {
		target := w.seals.Load()
		w.sealReq.Store(true)
		for {
			drain()
			if w.seals.Load() > target {
				// An appender sealed after the request; the handoff
				// completed before the counter bump, so the final drain
				// below collects that page.
				w.sealReq.Store(false)
				break
			}
			if w.mu.TryLock() {
				w.sealReq.Store(false)
				p := walPage{buf: w.active, frontier: w.frontier}
				select {
				case b := <-w.free:
					w.active = b[:0]
				default:
					w.active = make([]byte, 0, w.opts.PageBytes+4096)
				}
				w.mu.Unlock()
				w.writePage(p, &frontier, &have, &wrote)
				break
			}
			runtime.Gosched()
		}
	}
	drain()
	w.notePending(frontier, have, wrote)
}

// notePending folds one cycle's written pages into the pending-sync state.
// No I/O happens here; syncPending at the start of a later cycle (or a
// forced Sync/Close) makes the bytes durable and publishes the frontier.
func (w *WAL) notePending(frontier uint64, have, wrote bool) {
	if !have {
		return
	}
	if frontier > w.pendFrontier || !w.pendHave {
		w.pendFrontier = frontier
	}
	w.pendHave = true
	w.pendWrote = w.pendWrote || wrote
}

// syncPending ends the previous cycle: one group fsync if it wrote
// anything, publish the durable watermark, report the sync, rotate when
// the segment is over the threshold. Called before this cycle's writes, so
// the fdatasync finds the previous cycle's writeback already complete and
// w.segSize is exactly the durable extent of the segment.
func (w *WAL) syncPending() {
	if !w.pendHave || w.failed() {
		return
	}
	if w.pendWrote && w.opts.Fsync == FsyncGroup {
		start := time.Now()
		if err := syncData(w.file); err != nil {
			w.fail(fmt.Errorf("persist: fsync %s: %w", w.segName, err))
			return
		}
		w.fsyncs.Add(1)
		w.fsyncNanos.Add(uint64(time.Since(start)))
	}
	if w.pendFrontier > w.durable.Load() {
		w.durable.Store(w.pendFrontier)
	}
	w.pendHave, w.pendWrote = false, false
	if cb := w.opts.OnSync; cb != nil {
		cb(SyncInfo{DurableIndex: w.durable.Load(), Segment: w.segName, Offset: w.segSize})
	}
	if w.segSize >= int64(w.opts.SegmentBytes) {
		w.rotate()
	}
}

func (w *WAL) rotate() {
	if err := w.file.Close(); err != nil {
		w.fail(fmt.Errorf("persist: close %s: %w", w.segName, err))
		return
	}
	if err := w.openSegment(w.segSeq + 1); err != nil {
		w.fail(err)
		return
	}
	w.rotations.Add(1)
}

// dirty reports whether the active page holds unflushed bytes; used by the
// ticker to skip no-op cycles. TryLock keeps the flusher off the appender
// lock; a miss just defers to the next tick.
func (w *WAL) dirty() bool {
	if !w.mu.TryLock() {
		return true // an appender is active; assume there is work
	}
	d := len(w.active) > 0
	w.mu.Unlock()
	return d
}

func (w *WAL) flusher() {
	defer close(w.done)
	tick := time.NewTicker(w.opts.GroupInterval)
	defer tick.Stop()
	for {
		select {
		case p := <-w.pages:
			w.syncPending()
			var frontier uint64
			have, wrote := false, false
			w.writePage(p, &frontier, &have, &wrote)
			// Bounded drain: at most QueuePages more pages before closing the
			// cycle. Under sustained appends the queue refills as fast as it
			// drains; an unbounded drain would postpone the end of the cycle —
			// the group fsync, the durable watermark, segment rotation —
			// indefinitely. FIFO page order makes stopping early safe: the
			// frontier noted covers exactly the pages written.
			for drained := 0; drained < w.opts.QueuePages; drained++ {
				select {
				case p := <-w.pages:
					w.writePage(p, &frontier, &have, &wrote)
					continue
				default:
				}
				break
			}
			w.notePending(frontier, have, wrote)
		case <-tick.C:
			w.syncPending()
			if w.dirty() {
				w.flushCycle(true)
			}
		case reply := <-w.syncc:
			w.flushCycle(true)
			w.syncPending()
			reply <- true
		case <-w.quit:
			w.flushCycle(true)
			w.syncPending()
			if w.file != nil {
				if err := w.file.Close(); err != nil && !w.failed() {
					w.fail(fmt.Errorf("persist: close %s: %w", w.segName, err))
				}
				w.file = nil
			}
			return
		}
	}
}
