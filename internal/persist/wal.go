// The write-ahead log: one appender framing records into in-memory pages, a
// dedicated flusher goroutine owning every file operation on the other side.
package persist

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// walPage is one sealed page handed to the flusher. frontier is the
// append frontier captured at seal time: once this page is on disk, all
// records below frontier are durable. An empty buf still carries a frontier
// (Sync and Flush use that to publish progress when the active page is
// empty).
type walPage struct {
	buf      []byte
	frontier uint64
}

// WAL is an append-only record log with one appender: records arrive in
// log-index order, without gaps, from a single goroutine (NR's log
// follower). Append and Flush never perform file I/O — see the package
// comment. Sync, Close and the token-journal methods may be called from any
// goroutine.
type WAL struct {
	dir  string
	gen  uint64
	opts Options

	// mu guards the append side: active page, frontier and token journal.
	// Pages are sealed (queued for the flusher) only under it, so they reach
	// the flusher in index order whoever seals; the flusher itself never
	// takes it, so a sealer blocked on a full queue while holding mu cannot
	// deadlock against the flusher. Its one regular holder is the appender:
	// Sync and the checkpoint's journal reads are rare.
	mu       sync.Mutex //nr:lockorder walAppend
	active   []byte
	frontier uint64       // one past the last index appended
	tokens   tokenJournal // (index, token) pairs not yet durable or checkpointed
	closed   bool

	// failure is sticky: the first encode or I/O error poisons the WAL. Not
	// under w.mu: the flusher records and checks failures mid-cycle, when a
	// sealer may be holding w.mu blocked on the page queue.
	failure atomic.Pointer[error]

	pages chan walPage
	free  chan []byte    // page buffer recycling
	syncc chan chan bool // Sync requests; reply means "flushed" (errors are sticky)
	quit  chan struct{}
	done  chan struct{}

	durable atomic.Uint64 // published frontier after sync

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
	// of added durability latency, bounded by the appender's Flush cadence
	// (GroupInterval). Sync and Close bypass the pipeline and fsync
	// immediately.
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
		dir:    dir,
		gen:    gen,
		opts:   opts,
		active: make([]byte, 0, opts.PageBytes+4096),
		pages:  make(chan walPage, opts.QueuePages),
		free:   make(chan []byte, opts.QueuePages),
		syncc:  make(chan chan bool),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if err := w.openSegment(0); err != nil {
		return nil, err
	}
	go w.flusher()
	return w, nil
}

// Gen returns the generation this WAL writes.
func (w *WAL) Gen() uint64 { return w.gen }

// GroupInterval returns the cadence at which the appender should call
// Flush (Options.GroupInterval with its default filled in).
func (w *WAL) GroupInterval() time.Duration { return w.opts.GroupInterval }

// Append frames one record for log index idx carrying the op token. enc
// appends the operation's payload encoding to its argument — the active
// page itself, so a record is encoded in place — and returns the extended
// slice; it runs with w.mu held and must not call back into the WAL. Append
// does no file I/O and, when the page fills, hands it to the flusher; it
// blocks only when the flusher is QueuePages behind (backpressure, which
// the appender passes on to the shared log by not advancing its tail).
//
// The token is journaled whatever happens next: even when encoding fails or
// the WAL has already failed, the operation executed in memory, so a later
// checkpoint's snapshot covers it and must carry its token. An encode error
// poisons the WAL: the frontier could never pass the lost record.
//
//nr:hotpath-noio
func (w *WAL) Append(idx, token uint64, enc func([]byte) ([]byte, error)) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrWALClosed
	}
	w.tokens.put(idx, token)
	if w.failed() {
		return w.stickyErr()
	}
	out, err := appendRecord(w.active, idx, token, enc)
	if err != nil {
		werr := fmt.Errorf("persist: encode record %d: %w", idx, err)
		w.fail(werr)
		return werr
	}
	w.active = out
	w.appends.Add(1)
	w.frontier = idx + 1
	if len(w.active) >= w.opts.PageBytes {
		w.sealLocked()
	}
	return nil
}

// Flush is the appender's end-of-batch call, made at least once per
// GroupInterval: it trims the token journal to the durable watermark and
// hands the flusher the partial page — or an empty one while written bytes
// still await their pipelined fsync — so a trickle of appends becomes
// durable within about two intervals. It does nothing on an idle WAL.
//
//nr:hotpath-noio
func (w *WAL) Flush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	// Pairs below the durable watermark are on disk in this generation's
	// segments, where TokensBetween finds them again. A failed WAL's
	// watermark stops, so failure mode keeps every pair from there on.
	durable := w.durable.Load()
	w.tokens.dropBelow(durable)
	if !w.closed && !w.failed() && (len(w.active) > 0 || durable < w.frontier) {
		w.sealLocked()
	}
}

// sealLocked queues the active page for the flusher and installs a fresh
// buffer. Caller holds w.mu; the blocking send (flusher QueuePages behind)
// is the backpressure. It is deadlock-free because the flusher never takes
// w.mu.
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
		w.sealStalls.Add(1)
		w.pages <- p
	}
}

// DurableIndex returns the published durable watermark: every record with
// index below it has been written (and, under FsyncGroup, fsynced).
func (w *WAL) DurableIndex() uint64 { return w.durable.Load() }

// TokensBetween returns the (index, token) pair of every record in
// [from, to) — the set a checkpoint at applied index to folds into its
// snapshot when the previous one covered everything below from — in no
// particular order, or an error when it cannot account for every index in
// the range (each must have been appended, none dropped by
// DropTokensBelow). Pairs still journaled come from memory; those Flush
// already trimmed are read back from this generation's segment files,
// newest first, stopping at the segment that holds from.
func (w *WAL) TokensBetween(from, to uint64) ([]TokenPair, error) {
	w.mu.Lock()
	floor := min(max(w.tokens.floor, from), to)
	out := w.tokens.below(to)
	w.mu.Unlock()
	var segs []segmentFile
	if floor > from { // something to read back
		var err error
		if segs, err = listSegments(w.dir); err != nil {
			return nil, err
		}
	}
	want := len(out) + int(floor-from)
	for k := len(segs) - 1; k >= 0 && len(out) < want; k-- {
		if segs[k].gen != w.gen {
			continue
		}
		recs, _, err := readSegment(filepath.Join(w.dir, segs[k].name))
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			if from <= r.Index && r.Index < floor {
				out = append(out, TokenPair{Idx: r.Index, Tok: r.Token})
			}
		}
	}
	if uint64(len(out)) != to-from {
		return nil, fmt.Errorf("persist: journal and generation %d's segments account for %d of the %d records in [%d, %d)", w.gen, len(out), to-from, from, to)
	}
	return out, nil
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
	if !closed {
		w.sealLocked()
	}
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
	if !already {
		w.sealLocked()
	}
	w.mu.Unlock()
	if !already {
		close(w.quit)
	}
	<-w.done
	return w.stickyErr()
}

// fail records the first failure; later ones are dropped.
func (w *WAL) fail(err error) { w.failure.CompareAndSwap(nil, &err) }

func (w *WAL) failed() bool { return w.failure.Load() != nil }

// stickyErr returns the first recorded failure, nil if none.
func (w *WAL) stickyErr() error {
	if p := w.failure.Load(); p != nil {
		return *p
	}
	return nil
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

// writePage writes one page's bytes, recycles its buffer and notes the
// page's frontier for the pipelined group sync: no fsync happens here;
// syncPending at the start of a later cycle (or a forced Sync/Close) makes
// the bytes durable and publishes the frontier. Pages arrive in index
// order, so the latest frontier is the highest; a page that brings neither
// bytes nor progress leaves nothing to publish.
func (w *WAL) writePage(p walPage) {
	if len(p.buf) > 0 && !w.failed() {
		if _, err := w.file.Write(p.buf); err != nil {
			w.fail(fmt.Errorf("persist: write %s: %w", w.segName, err))
		} else {
			if w.opts.Fsync == FsyncGroup {
				startWriteback(w.file, w.segSize, int64(len(p.buf)))
			}
			w.segSize += int64(len(p.buf))
			w.pagesOut.Add(1)
			w.pendWrote = true
		}
	}
	if w.pendWrote || p.frontier > w.durable.Load() {
		w.pendFrontier, w.pendHave = p.frontier, true
	}
	select {
	case w.free <- p.buf[:0]:
	default:
	}
}

// writeQueued writes up to limit queued pages without waiting for more.
func (w *WAL) writeQueued(limit int) {
	for ; limit > 0; limit-- {
		select {
		case p := <-w.pages:
			w.writePage(p)
		default:
			return
		}
	}
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

// flusher is the WAL's only file writer. It has no timer of its own: the
// appender's Flush paces it, handing over a page (possibly empty) whenever
// there is something to write or a frontier to publish.
func (w *WAL) flusher() {
	defer close(w.done)
	for {
		select {
		case p := <-w.pages:
			w.syncPending()
			w.writePage(p)
			// Bounded drain: at most QueuePages more pages before closing the
			// cycle. Under sustained appends the queue refills as fast as it
			// drains; an unbounded drain would postpone the end of the cycle —
			// the group fsync, the durable watermark, segment rotation —
			// indefinitely. FIFO page order makes stopping early safe: the
			// frontier noted covers exactly the pages written.
			w.writeQueued(w.opts.QueuePages)
		case reply := <-w.syncc:
			// Sync sealed before asking, so everything it covers is queued.
			w.writeQueued(math.MaxInt)
			w.syncPending()
			reply <- true
		case <-w.quit:
			w.writeQueued(math.MaxInt)
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
