// Package trace is NR's flight recorder: an always-on, lock-free,
// per-thread ring buffer of timestamped protocol events with enough causal
// context (operation token, log position, node id) to reconstruct each
// operation's lifecycle after the fact.
//
// Where internal/obs answers "how is the machine doing on average"
// (histograms, counters), this package answers "what exactly happened to
// THAT operation": an update op's path is
//
//	slot-publish → combiner-pickup → log-reserve → log-fill → replay →
//	execute → respond
//
// and a read op's is
//
//	tail-read → (wait for completedTail) → rlock → execute
//
// — the spans the paper's performance story is made of (§5, §6): time
// waiting in a flat-combining slot, time reserved-but-unfilled in the
// shared log, time replayed by a remote combiner, time blocked behind the
// distributed readers-writer lock.
//
// Design constraints, in order:
//
//   - Zero allocations in steady state. Recording an event is an atomic
//     position fetch-add plus four atomic word stores into a preallocated
//     slot; rings are acquired once, at registration time.
//   - Lock-free and race-clean. A slot is sealed by its atomic meta word
//     (kind, node, absolute position) written last, so a reader that sees
//     a matching seal sees the matching payload; slots a writer lapped
//     during the copy are cut by Snapshot's lap floor. Payload cells are
//     plain words published by the seal (full atomics under -race; see
//     word_norace.go). A snapshot taken mid-flight never yields a
//     frankenstein event.
//   - Overwrite-oldest. Rings are fixed-size power-of-two buffers; the
//     recorder never blocks a writer and never grows.
//
// Events carry an operation token — Token(node, slot, seq) — that ties
// together the submitting thread's events (publish, op-end) with the
// combiner's (pickup, fill, execute, respond) and any replayer's (replay),
// no matter which goroutine emitted them. Reconstruct groups a snapshot
// back into per-operation spans; WriteChromeTrace renders them as Chrome
// trace-event JSON loadable in Perfetto (chrome.go), and WriteSlowReport
// renders a compact top-K-slowest-ops text report (report.go).
//
// The recorder doubles as the black box of the failure model: AutoDump
// persists a snapshot (file and/or callback, rate-limited) when the
// protocol detects a stall, a contained panic, or poisoning, so failures
// ship with their own trace.
//
// Writer waits on the distributed readers-writer lock are not recorded
// here: they reach only the metrics observer (obs.Observer.WriterWait).
package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Kind enumerates recorded protocol events.
type Kind uint8

// Event kinds. The update-path milestones (KSlotPublish .. KRespond) and
// read-path milestones (KTailRead, KRLock) carry an operation token in A;
// KOpEnd closes both kinds of span.
const (
	// KNone marks an empty or torn slot; never returned by Snapshot.
	KNone Kind = iota
	// KSlotPublish: submitter posted its op to its combining slot. A=token.
	KSlotPublish
	// KCombineStart: a combining round began on Node.
	KCombineStart
	// KPickup: the combiner collected one posted slot. A=token.
	KPickup
	// KLogReserve: the combiner reserved log entries. A=start index, B=count.
	KLogReserve
	// KLogFill: one batch op was published into the log. A=token, B=index.
	KLogFill
	// KHoleWait: a replayer spun on a reserved-but-unfilled entry.
	// A=index, B=spins.
	KHoleWait
	// KReplay: a log entry was applied to Node's replica. A=index, B=token
	// of the entry's originating op (0 when the entry carries no response
	// tag).
	KReplay
	// KExecute: the combiner executed a batch op on the §5.2 fast path.
	// A=token, B=log index.
	KExecute
	// KRespond: the response was delivered to the submitter's slot.
	// A=token, B=log index.
	KRespond
	// KCombineEnd: the round finished. A=batch size, B=entries appended.
	KCombineEnd
	// KTailRead: a read op sampled completedTail. A=token, B=the tail read.
	KTailRead
	// KRLock: the read op acquired the reader lock. A=token, B=spins.
	KRLock
	// KOpEnd: the op completed on the submitting thread. A=token,
	// B=class (0 read, 1 update).
	KOpEnd
	// KReaderRefresh: a reader replayed the log itself. Node, A=entries.
	KReaderRefresh
	// KHelp: entries were replayed into another node's replica. Node=the
	// helped replica, A=entries.
	KHelp
	// KLogFull: an appender found the log full and fell back to draining
	// and helping. Node, A=log tail at the failure.
	KLogFull
	// KStall: the watchdog flagged Node's combiner. A=held nanos.
	KStall
	// KPanic: a user Execute panic was contained on Node. A=log index
	// (^uint64(0) for the read path).
	KPanic
	numKinds
)

var kindNames = [numKinds]string{
	KNone:          "none",
	KSlotPublish:   "slot-publish",
	KCombineStart:  "combine-start",
	KPickup:        "combiner-pickup",
	KLogReserve:    "log-reserve",
	KLogFill:       "log-fill",
	KHoleWait:      "hole-wait",
	KReplay:        "replay",
	KExecute:       "execute",
	KRespond:       "respond",
	KCombineEnd:    "combine-end",
	KTailRead:      "tail-read",
	KRLock:         "rlock",
	KOpEnd:         "op-end",
	KReaderRefresh: "reader-refresh",
	KHelp:          "help",
	KLogFull:       "log-full",
	KStall:         "stall",
	KPanic:         "panic",
}

// String names the kind the way exporters print it.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Token packs an operation identity: the submitting handle's (node,
// combining slot) and its per-handle sequence number. Tokens let events
// recorded by different goroutines — submitter, combiner, helper — be
// reassembled into one span. Token is TokenWithLog at log index 0, so
// single-log instances produce exactly the token values they always did.
func Token(node, slot int, seq uint32) uint64 {
	return TokenWithLog(0, node, slot, seq)
}

// TokenWithLog packs an operation identity that additionally carries the
// shared-log index the operation was appended to (multi-log NR): 6 bits of
// log index above 10 bits of node, then slot and sequence as in Token. Log
// index 0 yields the same value as Token, which keeps persisted tokens and
// single-log trace joins stable.
func TokenWithLog(logIdx, node, slot int, seq uint32) uint64 {
	return uint64(logIdx&0x3f)<<58 | uint64(node&0x3ff)<<48 |
		uint64(uint16(slot))<<32 | uint64(seq)
}

// TokenParts unpacks a Token's node, slot and sequence (log-index bits are
// masked off; use TokenLog for the log).
func TokenParts(tok uint64) (node, slot int, seq uint32) {
	return int(tok>>48) & 0x3ff, int(uint16(tok >> 32)), uint32(tok)
}

// TokenLog unpacks the log index a TokenWithLog-packed token carries (0 for
// plain Token values).
func TokenLog(tok uint64) int { return int(tok >> 58) }

// Event is one decoded recorder entry.
type Event struct {
	// Ts is nanoseconds since the recorder was created.
	Ts int64 `json:"ts"`
	// Kind classifies the event; A and B are interpreted per kind.
	Kind Kind `json:"kind"`
	// Node is the NUMA node the event concerns.
	Node int `json:"node"`
	// Ring identifies the recording thread's ring.
	Ring int    `json:"ring"`
	A    uint64 `json:"a"`
	B    uint64 `json:"b"`
}

// eventSlot is one ring entry: three payload words sealed by an atomic
// meta word written last. The payload cells are plain words in normal
// builds and atomics under -race — see word_norace.go for why both are
// sound.
type eventSlot struct {
	meta atomic.Uint64 // kind | node<<8 | (pos+1)<<24; 0 = never written
	ts   word
	a    word
	b    word
}

func metaWord(k Kind, node int, pos uint64) uint64 {
	return uint64(k) | uint64(uint16(node))<<8 | (pos+1)<<24
}

// Ring is one writer's event buffer. A Ring is acquired once (at handle
// registration or background-goroutine start) and written by one goroutine
// in the common case; concurrent writers are tolerated — the position
// fetch-add hands each a distinct slot, and seqlock validation drops the
// rare cross-lap tear.
type Ring struct {
	rec  *Recorder
	id   int32
	mask uint64
	// pos is on a later line than slots (TestRingLayout).
	slots []eventSlot
	_     [40]byte // keep pos off the slots' cache lines
	pos   atomic.Uint64
}

// ID returns the ring's id within its recorder.
func (g *Ring) ID() int {
	if g == nil {
		return -1
	}
	return int(g.id)
}

// Record appends one event. It is safe on a nil Ring (no-op), never
// blocks, and never allocates.
func (g *Ring) Record(k Kind, node int, a, b uint64) {
	if g == nil {
		return
	}
	g.RecordAt(g.rec.Now(), k, node, a, b)
}

// Now reads the recorder clock (0 on a nil Ring). Hot paths that record
// several adjacent events read it once and stamp them via RecordAt, since
// the clock read is a large share of an event's cost.
func (g *Ring) Now() int64 {
	if g == nil {
		return 0
	}
	return g.rec.Now()
}

// At converts a wall/monotonic instant already in hand (e.g. one the
// metrics observer paid for) to the recorder clock — pure arithmetic, no
// clock read. 0 on a nil Ring.
func (g *Ring) At(t time.Time) int64 {
	if g == nil {
		return 0
	}
	return int64(t.Sub(g.rec.start))
}

// RecordAt is Record with a caller-supplied timestamp from (*Ring).Now.
//
// Write order: payload words, then the sealing meta word (which embeds the
// absolute position, so every lap seals differently). A reader that loads
// the seal first therefore sees the matching payload; mid-overwrite slots
// are caught by snapshot's lap floor, not by a per-write invalidation
// store — keeping the hot path at four atomic stores.
func (g *Ring) RecordAt(ts int64, k Kind, node int, a, b uint64) {
	if g == nil {
		return
	}
	pos := g.pos.Add(1) - 1
	s := &g.slots[pos&g.mask]
	s.ts.store(uint64(ts))
	s.a.store(a)
	s.b.store(b)
	s.meta.Store(metaWord(k, node, pos))
}

// Config tunes a Recorder. The zero value is usable: 1024-slot rings, no
// automatic dumps, no profile sampling.
type Config struct {
	// RingSlots is each ring's capacity; rounded up to a power of two
	// (default 1024) and capped at 1<<20 slots. Memory is 32 bytes per
	// slot per ring, so at most 32 MiB.
	RingSlots int
	// DumpDir, when non-empty, makes AutoDump write a Chrome trace JSON
	// file (nrtrace-<reason>-<n>.json) there on stall/panic/poison.
	DumpDir string
	// OnDump, when non-nil, receives every AutoDump snapshot. It runs on
	// the goroutine that detected the failure and must not call back into
	// the instance being traced.
	OnDump func(reason string, snap Snapshot)
	// DumpMinInterval rate-limits AutoDump (default 1s; negative disables
	// the limit). Failures inside the window are dropped, not queued.
	DumpMinInterval time.Duration
	// ProfileSampleRate, when > 0, labels every Nth operation's execution
	// with runtime/pprof labels (nr_node, nr_op) so CPU profiles attribute
	// time to op class and node. Sampled because label attachment
	// allocates; the recorder itself never does.
	ProfileSampleRate int
}

// maxRingSlots caps Config.RingSlots: 32 MiB per ring, and a bound the
// power-of-two round-up below cannot overflow on.
const maxRingSlots = 1 << 20

func (c Config) ringSlots() int {
	n := c.RingSlots
	switch {
	case n <= 0:
		n = 1024
	case n > maxRingSlots:
		n = maxRingSlots
	}
	// Round up to a power of two.
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func (c Config) minInterval() time.Duration {
	switch {
	case c.DumpMinInterval < 0:
		return 0
	case c.DumpMinInterval == 0:
		return time.Second
	}
	return c.DumpMinInterval
}

// Recorder owns the ring set. One Recorder instruments one NR instance;
// rings are handed to each registered handle and to background goroutines
// (dedicated combiners, the watchdog).
type Recorder struct {
	cfg   Config
	start time.Time

	mu    sync.Mutex
	rings []*Ring

	// resetNs hides events recorded before it (SLOWLOG RESET semantics)
	// without touching the rings.
	resetNs atomic.Int64

	dumpSeq  atomic.Uint64
	lastDump atomic.Int64
}

// New builds a Recorder.
func New(cfg Config) *Recorder {
	return &Recorder{cfg: cfg, start: time.Now()}
}

// Now returns the recorder clock: monotonic nanoseconds since New.
func (r *Recorder) Now() int64 { return int64(time.Since(r.start)) }

// Config returns the recorder's configuration.
func (r *Recorder) Config() Config {
	if r == nil {
		return Config{}
	}
	return r.cfg
}

// ProfileSampleRate returns the pprof-label sampling rate (0 = off). Safe
// on a nil Recorder.
func (r *Recorder) ProfileSampleRate() int {
	if r == nil {
		return 0
	}
	return r.cfg.ProfileSampleRate
}

// AcquireRing allocates a new ring. Called at registration time, not on
// the hot path; the ring itself never allocates afterwards.
func (r *Recorder) AcquireRing() *Ring {
	if r == nil {
		return nil
	}
	n := r.cfg.ringSlots()
	r.mu.Lock()
	defer r.mu.Unlock()
	g := &Ring{
		rec:   r,
		id:    int32(len(r.rings)),
		mask:  uint64(n - 1),
		slots: make([]eventSlot, n),
	}
	r.rings = append(r.rings, g)
	return g
}

// Rings returns the number of acquired rings.
func (r *Recorder) Rings() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.rings)
}

// RingSnapshot is one ring's events, oldest first.
type RingSnapshot struct {
	Ring   int     `json:"ring"`
	Events []Event `json:"events"`
}

// Snapshot is a point-in-time copy of the recorder's contents.
type Snapshot struct {
	// TakenNs is the recorder-clock time the snapshot was taken.
	TakenNs int64 `json:"taken_ns"`
	// WallStart is the wall-clock instant of recorder clock zero; exporters
	// use it to stamp dumps. Zero in hand-built fixtures.
	WallStart time.Time      `json:"wall_start,omitzero"`
	Rings     []RingSnapshot `json:"rings"`
}

// Events flattens the snapshot into one slice (ring order, oldest first
// within a ring). Callers that need global time order should sort.
func (s Snapshot) Events() []Event {
	var n int
	for _, g := range s.Rings {
		n += len(g.Events)
	}
	out := make([]Event, 0, n)
	for _, g := range s.Rings {
		out = append(out, g.Events...)
	}
	return out
}

// Snapshot copies every ring's valid events. It is safe concurrently with
// recording: torn slots (being overwritten during the copy) are dropped
// via the meta seqlock, and events older than the last Reset are excluded.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	rings := make([]*Ring, len(r.rings))
	copy(rings, r.rings)
	r.mu.Unlock()
	cut := r.resetNs.Load()
	snap := Snapshot{TakenNs: r.Now(), WallStart: r.start}
	for _, g := range rings {
		snap.Rings = append(snap.Rings, g.snapshot(cut))
	}
	return snap
}

// snapshot copies this ring's sealed, post-reset events, oldest first.
func (g *Ring) snapshot(cutNs int64) RingSnapshot {
	rs := RingSnapshot{Ring: int(g.id)}
	end := g.pos.Load()
	size := uint64(len(g.slots))
	start := uint64(0)
	if end > size {
		start = end - size
	}
	positions := make([]uint64, 0, end-start)
	for pos := start; pos < end; pos++ {
		s := &g.slots[pos&g.mask]
		// Loading the seal first orders the payload loads after the writer's
		// payload stores: a matching seal implies a matching payload, unless
		// a writer lapped this slot during the copy — which the lap floor
		// below catches, since that writer advanced pos past pos+size first.
		meta := s.meta.Load()
		if meta == 0 || meta>>24 != pos+1 {
			continue // empty, overwritten, or not yet sealed
		}
		ev := Event{
			Ts:   int64(s.ts.load()),
			A:    s.a.load(),
			B:    s.b.load(),
			Kind: Kind(meta & 0xff),
			Node: int(int16(meta >> 8)),
			Ring: int(g.id),
		}
		if ev.Ts < cutNs || ev.Kind == KNone || ev.Kind >= numKinds {
			continue
		}
		rs.Events = append(rs.Events, ev)
		positions = append(positions, pos)
	}
	// Lap floor: discard everything a writer may have been overwriting while
	// we copied. Any such writer reserved an absolute position ≥ victim+size
	// before its first store, so re-loading pos bounds the victims exactly.
	floor := uint64(0)
	if p := g.pos.Load(); p > size {
		floor = p - size
	}
	drop := 0
	for drop < len(positions) && positions[drop] < floor {
		drop++
	}
	rs.Events = rs.Events[drop:]
	return rs
}

// Reset hides everything recorded so far from future Snapshots (the
// SLOWLOG RESET semantics). It does not touch the rings, so it is safe
// concurrently with recording.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.resetNs.Store(r.Now())
}

// AutoDump persists a snapshot because the protocol detected a failure
// (reason is "stall", "panic", or "poisoned"). It is rate-limited by
// Config.DumpMinInterval and a no-op when neither DumpDir nor OnDump is
// configured, so hot failure paths can call it unconditionally. File dumps
// are Chrome trace JSON, directly loadable in Perfetto.
//
// AutoDump is the one sanctioned escape from the hot-path contracts: it
// runs only after the protocol has already failed (the op is poisoned or
// the node is stalled), where forensics beat latency. Blocking, allocating,
// and file I/O are all deliberate here, hence the blanket suppressions.
//
//nr:blockok
//nr:iook
func (r *Recorder) AutoDump(reason string) {
	if r == nil || (r.cfg.DumpDir == "" && r.cfg.OnDump == nil) {
		return
	}
	now := time.Now().UnixNano()
	last := r.lastDump.Load()
	if min := r.cfg.minInterval(); min > 0 && now-last < int64(min) {
		return
	}
	if !r.lastDump.CompareAndSwap(last, now) {
		return // another failure path is dumping right now
	}
	snap := r.Snapshot()
	if r.cfg.OnDump != nil {
		r.cfg.OnDump(reason, snap)
	}
	if r.cfg.DumpDir != "" {
		n := r.dumpSeq.Add(1)
		path := filepath.Join(r.cfg.DumpDir, fmt.Sprintf("nrtrace-%s-%d.json", reason, n))
		writeDumpAtomic(path, snap)
	}
}

// writeDumpAtomic writes a dump via temp file + rename so a crash mid-dump
// (the black box is written precisely when the process is dying) never
// leaves a torn nrtrace-*.json for post-mortem tooling to choke on.
func writeDumpAtomic(path string, snap Snapshot) {
	f, err := os.CreateTemp(filepath.Dir(path), ".nrtrace-*.tmp")
	if err != nil {
		return
	}
	if err := WriteChromeTrace(f, snap); err == nil {
		err = f.Close()
		if err == nil {
			err = os.Rename(f.Name(), path)
		}
	} else {
		_ = f.Close()
	}
	if err != nil {
		_ = os.Remove(f.Name())
	}
}
