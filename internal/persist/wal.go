// The write-ahead log: one appender framing records into an in-memory page
// and writing it to the segment files itself.
package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// WAL is an append-only record log with one appender: records arrive in
// log-index order, without gaps, from a single goroutine (NR's log
// follower), which also does the file I/O: Append writes the page when it
// fills, Flush ends a group cycle. Nothing here is on an operation's path —
// see the package comment. Sync, Close and the token-journal methods may be
// called from any goroutine.
type WAL struct {
	dir  string
	gen  uint64
	opts Options

	// mu guards everything below except the atomics. Its one regular holder
	// is the appender, file I/O included; Sync, Close and the checkpoint's
	// journal reads are rare and wait out a write or an fsync.
	mu       sync.Mutex //nr:lockorder walAppend
	page     []byte
	frontier uint64       // one past the last index appended
	tokens   tokenJournal // (index, token) pairs not yet durable or checkpointed
	closed   bool
	failure  error // sticky: the first encode or I/O error poisons the WAL

	file    *os.File
	segName string
	segSeq  uint64
	segSize int64

	// Pipelined group sync. Bytes written in one cycle are fsynced at the
	// start of the next, after their kernel writeback — initiated at write
	// time by startWriteback — has had a full cycle to complete: the
	// fdatasync then waits on almost nothing instead of on a device-speed
	// flush of everything just written. The price is one cycle of added
	// durability latency, bounded by the appender's Flush cadence
	// (GroupInterval). Sync and Close bypass the pipeline and fsync
	// immediately.
	written uint64 // frontier of the pages written; past durable = unsynced bytes

	durable atomic.Uint64 // published frontier after sync

	appends    atomic.Uint64
	pagesOut   atomic.Uint64
	fsyncs     atomic.Uint64
	fsyncNanos atomic.Uint64
	rotations  atomic.Uint64
}

// Open creates a WAL writing generation gen into dir (created if needed).
// The first segment file is created eagerly so permission problems surface
// here, not mid-run.
func Open(dir string, gen uint64, opts Options) (*WAL, error) {
	opts.fillDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &WAL{
		dir:  dir,
		gen:  gen,
		opts: opts,
		page: make([]byte, 0, opts.PageBytes+4096),
	}
	if err := w.openSegment(0); err != nil {
		return nil, err
	}
	return w, nil
}

// Gen returns the generation this WAL writes.
func (w *WAL) Gen() uint64 { return w.gen }

// GroupInterval returns the cadence at which the appender should call
// Flush (Options.GroupInterval with its default filled in).
func (w *WAL) GroupInterval() time.Duration { return w.opts.GroupInterval }

// Append frames one record for log index idx carrying the op token. enc
// appends the operation's payload encoding to its argument — the page
// itself, so a record is encoded in place — and returns the extended slice;
// it runs with w.mu held and must not call back into the WAL. When the page
// fills, Append writes it to the segment before returning: a slow disk
// holds the appender here, and the appender passes that on to the shared
// log by not advancing its tail.
//
// The token is journaled whatever happens next: even when encoding fails or
// the WAL has already failed, the operation executed in memory, so a later
// checkpoint's snapshot covers it and must carry its token. An encode error
// poisons the WAL: the frontier could never pass the lost record.
func (w *WAL) Append(idx, token uint64, enc func([]byte) ([]byte, error)) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrWALClosed
	}
	w.tokens.put(idx, token)
	if w.failure != nil {
		return w.failure
	}
	out, err := appendRecord(w.page, idx, token, enc)
	if err != nil {
		w.fail(fmt.Errorf("persist: encode record %d: %w", idx, err))
		return w.failure
	}
	w.page = out
	w.appends.Add(1)
	w.frontier = idx + 1
	if len(w.page) >= w.opts.PageBytes {
		w.writePage()
	}
	return nil
}

// Flush is the appender's end-of-batch call, made at least once per
// GroupInterval: it ends the previous group cycle (syncWritten), writes the
// partial page to start the next, and trims the token journal to the
// durable watermark — so a trickle of appends becomes durable within about
// two intervals. It does nothing on an idle WAL, nor on a closed one: Close
// leaves nothing unwritten or unsynced.
func (w *WAL) Flush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.syncWritten()
	w.writePage()
	// Pairs below the durable watermark are on disk in this generation's
	// segments, where TokensBetween finds them again. A failed WAL's
	// watermark stops, so failure mode keeps every pair from there on.
	w.tokens.dropBelow(w.durable.Load())
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

// Sync writes the page, fsyncs (under FsyncGroup) on the caller's
// goroutine, and returns once every record appended before the call is
// durable. It reports the WAL's sticky failure, if any.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		if w.failure != nil {
			return w.failure
		}
		return ErrWALClosed
	}
	w.writePage()
	w.syncWritten()
	return w.failure
}

// Stats returns point-in-time counters.
func (w *WAL) Stats() Stats {
	return Stats{
		Appends:    w.appends.Load(),
		Pages:      w.pagesOut.Load(),
		Fsyncs:     w.fsyncs.Load(),
		FsyncNanos: w.fsyncNanos.Load(),
		Rotations:  w.rotations.Load(),
	}
}

// Close writes the page, fsyncs, and closes the segment. Appends after
// Close fail with ErrWALClosed. Close is idempotent and returns the sticky
// failure, if any.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.closed {
		w.closed = true
		w.writePage()
		w.syncWritten()
		if err := w.file.Close(); err != nil {
			w.fail(fmt.Errorf("persist: close %s: %w", w.segName, err))
		}
	}
	return w.failure
}

// fail records the first failure; later ones are dropped.
func (w *WAL) fail(err error) {
	if w.failure == nil {
		w.failure = err
	}
}

// ---------------------------------------------------------------------------
// File side. Everything below runs with w.mu held (Open excepted).

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

// writePage writes the page's bytes, starts their kernel writeback and
// advances the written frontier: no fsync happens here; syncWritten at the
// start of a later cycle (or a forced Sync/Close) makes the bytes durable
// and publishes the frontier. A failed WAL keeps the page it could not
// write: Append adds nothing to it.
func (w *WAL) writePage() {
	if len(w.page) == 0 || w.failure != nil {
		return
	}
	if _, err := w.file.Write(w.page); err != nil {
		w.fail(fmt.Errorf("persist: write %s: %w", w.segName, err))
		return
	}
	if w.opts.Fsync == FsyncGroup {
		startWriteback(w.file, w.segSize, int64(len(w.page)))
	}
	w.segSize += int64(len(w.page))
	w.pagesOut.Add(1)
	w.written = w.frontier
	w.page = w.page[:0]
}

// syncWritten ends the previous cycle: if it wrote anything, one group
// fsync, publish the durable watermark, report the sync, rotate when the
// segment is over the threshold. Called before this cycle's writes, so the
// fdatasync finds the previous cycle's writeback already complete and
// w.segSize is exactly the durable extent of the segment.
func (w *WAL) syncWritten() {
	if w.written == w.durable.Load() || w.failure != nil {
		return
	}
	if w.opts.Fsync == FsyncGroup {
		start := time.Now()
		if err := syncData(w.file); err != nil {
			w.fail(fmt.Errorf("persist: fsync %s: %w", w.segName, err))
			return
		}
		w.fsyncs.Add(1)
		w.fsyncNanos.Add(uint64(time.Since(start)))
	}
	w.durable.Store(w.written)
	if cb := w.opts.OnSync; cb != nil {
		cb(SyncInfo{DurableIndex: w.written, Segment: w.segName, Offset: w.segSize})
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
