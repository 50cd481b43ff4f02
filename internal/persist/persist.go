// Package persist is NR's durability layer: an append-only log (WAL) of
// the shared log's entries plus atomic replica snapshots, designed so the
// protocol's hot paths never block on I/O.
//
// The shared log (internal/log) is already a redo log: it totally orders
// every update operation. Durability therefore only has to persist that
// order, and it does so by following the log, not by being called from the
// threads that fill it: one appender (NR's log follower, core.Follower)
// reads filled entries in index order and hands each to the WAL — the
// entry's absolute log index, its op token (node|slot|seq, the flight
// recorder's identity for the op), and an opaque payload encoding the
// operation. Records are framed with a CRC and encoded in place into the
// current in-memory page, and the appender does the file I/O itself: it
// writes a full page, or the partial one at each group interval, to
// generation-numbered segment files, starts the kernel writeback
// immediately, and issues one group fdatasync per cycle — pipelined one
// cycle behind the writes, so the sync waits on I/O already in flight
// (NVTraverse's insight applied to a log: only the sync points need
// ordering, not every record). The package starts no goroutine.
//
// Records reach the WAL in log-index order, so the frontier — one past the
// last index appended — is all the bookkeeping a page needs: the WAL
// publishes it as the durable watermark after the fsync that covers the
// page. Recovery replays exactly the contiguous prefix: records beyond the
// first gap are unusable (an un-persisted earlier op would change their
// pre-state) and are dropped, and the reader sorts what it finds, so
// segments written when combiners still appended concurrently, slightly out
// of order, load as before. The durable state after a crash is therefore
// always the longest contiguous durable prefix of the operation history.
//
// Snapshots bound replay: SaveSnapshot atomically (temp file + rename)
// persists a serialized replica at log index I together with the cumulative
// set of op tokens executed before I, so recovery = latest snapshot +
// contiguous WAL suffix, and "did op T execute?" remains answerable for
// every durable op, however old (detectable recovery, after "Tracking in
// Order to Recover").
//
// Generations make recovery itself crash-safe: every segment and snapshot
// file name carries a generation number; recovery writes the recovered
// state as a new-generation snapshot before pruning the old generation, so
// a crash mid-recovery leaves either the old generation intact or the new
// one complete.
package persist

import (
	"errors"
	"fmt"
	"hash/crc32"
	"time"
)

// castagnoli is the CRC32-C table used for all record and snapshot
// checksums (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FsyncMode selects the WAL's sync policy.
type FsyncMode int

const (
	// FsyncGroup (the default) makes the WAL fsync once per flush
	// cycle — many records, one fsync, issued at the start of the next
	// cycle so the previous cycle's writeback has already completed.
	FsyncGroup FsyncMode = iota
	// FsyncNever writes pages without ever fsyncing; the OS decides when
	// bytes reach disk. The durable watermark then only means "handed to
	// the kernel". Useful for benchmarking the write path in isolation.
	FsyncNever
)

// SyncInfo describes one completed sync: everything below DurableIndex is
// on disk, and the current segment file held Offset bytes at the moment of
// the fsync. A harness that later truncates Segment to Offset (and removes
// higher-sequence segments) reconstructs the exact on-disk state a crash at
// this boundary would have left.
type SyncInfo struct {
	DurableIndex uint64 // append frontier covered by this sync
	Segment      string // file name (not path) of the active segment
	Offset       int64  // segment size in bytes at this sync
}

// Options tunes a WAL. The zero value is usable.
type Options struct {
	// SegmentBytes is the rotation threshold (default 8 MiB). A segment
	// may exceed it by up to one flush batch; rotation happens between
	// batches.
	SegmentBytes int
	// PageBytes is the in-memory page size (default 128 KiB): Append writes
	// the page to the segment when it reaches this size. Sized so that one
	// GroupInterval's worth of appends at full throughput usually fits in a
	// single page — then the steady state is one write and one fsync per
	// interval.
	PageBytes int
	// GroupInterval is how often the appender calls Flush, which writes the
	// partial page so a trickle of appends still becomes durable (default
	// 2ms). The WAL keeps no timer: the cadence is the appender's. The
	// group sync trails the writes by one cycle, so end-to-end durability
	// latency is about two intervals; Sync bypasses the pipeline.
	GroupInterval time.Duration
	// Fsync selects the sync policy (default FsyncGroup).
	Fsync FsyncMode
	// OnSync, when non-nil, is called after every completed sync by
	// whichever goroutine completed it: the appender, or the caller of
	// Sync/Close. It runs with the WAL's lock held and must not call back
	// into the WAL.
	OnSync func(SyncInfo)
}

func (o *Options) fillDefaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.PageBytes <= 0 {
		o.PageBytes = 128 << 10
	}
	if o.GroupInterval <= 0 {
		o.GroupInterval = 2 * time.Millisecond
	}
}

// Stats are point-in-time WAL counters.
type Stats struct {
	Appends    uint64 // records handed to the WAL by its appender
	Pages      uint64 // pages written to the segment files
	Fsyncs     uint64 // fsync calls issued
	FsyncNanos uint64 // cumulative wall time inside those fsyncs
	Rotations  uint64 // segment rotations
	SealStalls uint64 // always zero (no page queue); kept because benchmark/traced.go reads it
}

// ErrWALClosed is returned by Append and Sync after Close.
var ErrWALClosed = errors.New("persist: WAL closed")

// Record is one decoded WAL record.
type Record struct {
	Index   uint64 // absolute shared-log index
	Token   uint64 // op token (node|slot|seq)
	Payload []byte // opaque op encoding; aliases the segment read buffer
}

// A corruptError marks data-integrity failures detected while reading.
type corruptError struct{ msg string }

func (e *corruptError) Error() string { return "persist: " + e.msg }

func corruptf(format string, args ...any) error {
	return &corruptError{msg: fmt.Sprintf(format, args...)}
}
