package chaos

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	nr "github.com/asplos17/nr"
	"github.com/asplos17/nr/internal/persist"
)

// Kill-and-recover tests of the pull model: the WAL follows the shared log
// on its own goroutine, so what an acknowledgement, a SyncWAL and a
// Checkpoint promise has to hold at every cut with the follower anywhere
// behind the combiners.

// syncLog collects the WAL's sync boundaries; gate, when set, makes every
// sync wait on it (a disk that has stopped answering).
type syncLog struct {
	mu   sync.Mutex
	all  []persist.SyncInfo
	gate atomic.Pointer[chan struct{}]
}

func (l *syncLog) hook(info persist.SyncInfo) {
	l.mu.Lock()
	l.all = append(l.all, info)
	l.mu.Unlock()
	if g := l.gate.Load(); g != nil {
		<-*g
	}
}

func (l *syncLog) boundaries() []persist.SyncInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]persist.SyncInfo(nil), l.all...)
}

func followedInstance(t *testing.T, dir string, logEntries int, sl *syncLog, popts ...nr.PersistOption) *nr.Instance[Op, Result] {
	t.Helper()
	popts = append([]nr.PersistOption{walTuning(sl.hook)}, popts...)
	inst, err := nr.New(func() nr.Sequential[Op, Result] { return NewDS() },
		nr.WithNodes(2, 2, 1), nr.WithLogEntries(logEntries),
		nr.WithPersistence(dir, OpCodec{}, popts...))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func recoverDS(t *testing.T, dir string) *nr.Recovered[Op, Result] {
	t.Helper()
	rec, err := nr.Recover(dir, func(data []byte) (nr.Sequential[Op, Result], error) {
		return RestoreDS(data)
	}, OpCodec{}, nr.WithNodes(2, 2, 1))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	t.Cleanup(rec.Close)
	return rec
}

// cutAt copies dir as a crash exactly at sync boundary b would have left it.
func cutAt(t *testing.T, dir string, b persist.SyncInfo) string {
	t.Helper()
	cut := t.TempDir()
	if err := os.CopyFS(cut, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	if err := persist.RollBackTo(cut, b); err != nil {
		t.Fatal(err)
	}
	return cut
}

func fingerprint(inst *nr.Instance[Op, Result]) (fp uint64) {
	inst.Quiesce()
	inst.Inspect(0, func(ds nr.Sequential[Op, Result]) { fp = ds.(*DS).Fingerprint() })
	return fp
}

// (a) The follower's tail gates recycling exactly like a replica's: with the
// disk stopped, the follower stalls inside its group sync, the 64-entry log
// fills and updates wait — never overwriting an entry the follower has not
// read — and everything resumes when the disk answers.
func TestRecoverLogWaitsForSlowFollower(t *testing.T) {
	const (
		logEntries = 64
		threads    = 4
		perThread  = 1500
	)
	dir := t.TempDir()
	var sl syncLog
	inst := followedInstance(t, dir, logEntries, &sl)
	gate := make(chan struct{})
	sl.gate.Store(&gate)

	var acked atomic.Int64
	tokens := make([][]uint64, threads)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		h, err := inst.RegisterOnNode(w % 2)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perThread; k++ {
				h.Execute(Op{Kind: KindAdd, Key: uint16(k % 16), Delta: 1})
				tokens[w] = append(tokens[w], h.LastToken())
				acked.Add(1)
			}
		}()
	}
	// The log never runs more than its size ahead of what the follower has
	// handed to the WAL (tail read first: the bound only gets looser).
	checkWindow := func() {
		tail := inst.Metrics().Log.Tail
		if ws, _ := inst.WALStats(); tail > ws.Appends+logEntries {
			t.Errorf("log tail %d is more than %d entries past the follower (%d records appended)", tail, logEntries, ws.Appends)
		}
	}
	// Wait for the stall: acknowledgements stop short of the total.
	deadline := time.Now().Add(20 * time.Second)
	for last, still := int64(-1), 0; still < 5; {
		if time.Now().After(deadline) {
			t.Fatal("updates never stalled behind the stopped disk")
		}
		time.Sleep(10 * time.Millisecond)
		checkWindow()
		if now := acked.Load(); now == last {
			still++
		} else {
			last, still = now, 0
		}
	}
	if got := acked.Load(); got >= threads*perThread {
		t.Fatalf("all %d updates were acknowledged with the disk stopped: the log did not wait for the follower", got)
	}
	checkWindow()
	sl.gate.Store(nil)
	close(gate)
	wg.Wait()
	checkWindow()
	live := fingerprint(inst)
	if err := inst.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	inst.Close()

	rec := recoverDS(t, dir)
	if rec.ReplayedOps() != threads*perThread || rec.DroppedRecords() != 0 {
		t.Fatalf("replayed %d, dropped %d, want %d and 0", rec.ReplayedOps(), rec.DroppedRecords(), threads*perThread)
	}
	for w := range tokens {
		for k, tok := range tokens[w] {
			if !rec.WasExecuted(tok) {
				t.Fatalf("thread %d op %d (token %#x) acknowledged but not recovered", w, k, tok)
			}
		}
	}
	if got := fingerprint(rec.Instance); got != live {
		t.Fatalf("recovered fingerprint %#x, live %#x", got, live)
	}
}

// (b) ack → SyncWAL → crash: at every sync boundary from the barrier on,
// every token acknowledged before the SyncWAL is WasExecuted, and what is
// replayed is exactly the durable prefix.
func TestRecoverAckedSurvivesEveryCutAfterSyncWAL(t *testing.T) {
	dir := t.TempDir()
	var sl syncLog
	inst := followedInstance(t, dir, 128, &sl)
	var acked, all []uint64
	run := func(h *nr.Handle[Op, Result], n int, into *[]uint64) {
		for k := 0; k < n; k++ {
			h.Execute(Op{Kind: KindAdd, Key: uint16(k % 8), Delta: 2})
			*into = append(*into, h.LastToken())
		}
	}
	h0, _ := inst.RegisterOnNode(0)
	h1, _ := inst.RegisterOnNode(1)
	run(h0, 150, &acked)
	run(h1, 150, &acked)
	run(h0, 20, &acked)
	if err := inst.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	barrier, _ := inst.DurableIndex()
	if barrier != uint64(len(acked)) {
		t.Fatalf("durable index %d after SyncWAL, want the %d ops acknowledged before it", barrier, len(acked))
	}
	all = append(all, acked...)
	for round := 0; round < 6; round++ {
		run(h1, 40, &all)
		time.Sleep(time.Millisecond) // let a tick put a boundary inside the tail
	}
	inst.Close()

	cuts := 0
	for _, b := range sl.boundaries() {
		if b.DurableIndex < barrier {
			continue
		}
		cuts++
		rec := recoverDS(t, cutAt(t, dir, b))
		if uint64(rec.ReplayedOps()) != b.DurableIndex || rec.DroppedRecords() != 0 {
			t.Fatalf("cut %+v: replayed %d, dropped %d, want the contiguous prefix %d and 0", b, rec.ReplayedOps(), rec.DroppedRecords(), b.DurableIndex)
		}
		for k, tok := range acked {
			if !rec.WasExecuted(tok) {
				t.Fatalf("cut %+v: op %d (token %#x) acknowledged before SyncWAL but not recovered", b, k, tok)
			}
		}
		executed := uint64(0)
		for _, tok := range all {
			if rec.WasExecuted(tok) {
				executed++
			}
		}
		if executed != b.DurableIndex {
			t.Fatalf("cut %+v: %d tokens answer executed, want %d", b, executed, b.DurableIndex)
		}
		rec.Close()
	}
	if cuts < 2 {
		t.Fatalf("only %d sync boundaries at or after the barrier; the tail was never cut", cuts)
	}
}

// (c) The token journal keeps only the durable lag, so a checkpoint over
// more than two chunks of updates reads most of its tokens back from the
// segment files; a later cut must still answer for every one of them, and
// for no op beyond the cut.
func TestRecoverCheckpointReadsTrimmedTokensBack(t *testing.T) {
	dir := t.TempDir()
	var sl syncLog
	inst := followedInstance(t, dir, 1024, &sl)
	h0, _ := inst.RegisterOnNode(0)
	h1, err := inst.RegisterOnNode(1)
	if err != nil {
		t.Fatal(err)
	}
	const perThread = 4300 // 8600 updates: more than two 4032-entry journal chunks
	var acked [2][]uint64
	var wg sync.WaitGroup
	for w, h := range []*nr.Handle[Op, Result]{h0, h1} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perThread; k++ {
				h.Execute(Op{Kind: KindAdd, Key: uint16(k % 32), Delta: 1})
				acked[w] = append(acked[w], h.LastToken())
			}
		}()
	}
	wg.Wait()
	if err := inst.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // a few ticks: the follower trims to the watermark
	if err := inst.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// One thread from here on, so op k of the tail sits at log index base+k.
	base := inst.Metrics().Log.Tail
	if base != 2*perThread {
		t.Fatalf("log tail %d after %d updates", base, 2*perThread)
	}
	var tail []uint64
	for k := 0; k < 600; k++ {
		h0.Execute(Op{Kind: KindAdd, Key: uint16(k % 32), Delta: 3})
		tail = append(tail, h0.LastToken())
		if k == 299 {
			if err := inst.SyncWAL(); err != nil {
				t.Fatal(err)
			}
		}
		if k%100 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	if err := inst.Checkpoint(); err != nil { // the second one starts where the first ended
		t.Fatalf("second Checkpoint: %v", err)
	}
	inst.Close()

	var cut persist.SyncInfo
	for _, b := range sl.boundaries() {
		if b.DurableIndex >= base+300 && b.DurableIndex < base+600 {
			cut = b
		}
	}
	if cut.Segment == "" {
		t.Skip("no sync boundary fell inside the unsynced tail on this run")
	}
	// The second checkpoint's snapshot is newer than the cut; a crash at the
	// cut would not have written it.
	dirCut := cutAt(t, dir, cut)
	snaps, _ := filepath.Glob(filepath.Join(dirCut, "snap-*.snap")) // sorted: names order by index
	if len(snaps) != 2 {
		t.Fatalf("snapshots in the cut dir: %v, want the two checkpoints", snaps)
	}
	if err := os.Remove(snaps[1]); err != nil {
		t.Fatal(err)
	}
	rec := recoverDS(t, dirCut)
	if rec.SnapshotIndex() != base {
		t.Fatalf("recovered from snapshot index %d, want the first checkpoint's %d", rec.SnapshotIndex(), base)
	}
	for w := range acked {
		for k, tok := range acked[w] {
			if !rec.WasExecuted(tok) {
				t.Fatalf("thread %d op %d (token %#x): covered by the checkpoint, read back from a segment, but not answered", w, k, tok)
			}
		}
	}
	for k, tok := range tail {
		if want := base+uint64(k) < cut.DurableIndex; rec.WasExecuted(tok) != want {
			t.Fatalf("tail op %d (log index %d, cut at %d): WasExecuted = %v", k, base+uint64(k), cut.DurableIndex, !want)
		}
	}

	// The uncut directory recovers from the second checkpoint, whose token
	// range began at the first one's applied index.
	full := recoverDS(t, dir)
	if full.SnapshotIndex() != base+600 || full.ReplayedOps() != 0 {
		t.Fatalf("full recovery: snapshot index %d, replayed %d, want %d and 0", full.SnapshotIndex(), full.ReplayedOps(), base+600)
	}
	for _, toks := range [][]uint64{acked[0], acked[1], tail} {
		for _, tok := range toks {
			if !full.WasExecuted(tok) {
				t.Fatalf("token %#x lost across two checkpoints", tok)
			}
		}
	}
}

// (d) A dead disk stops the watermark, not the instance: the follower keeps
// reading (so the log never fills), the journal keeps every pair from the
// watermark on, and a Checkpoint taken afterwards still carries the token
// of every op its snapshot covers.
func TestRecoverCheckpointAfterWALFailure(t *testing.T) {
	dir := t.TempDir()
	var sl syncLog
	inst := followedInstance(t, dir, 64, &sl, func(o *persist.Options) { o.SegmentBytes = 4 << 10 })
	// The WAL opens segment 1 with O_EXCL when segment 0 passes 4 KiB;
	// a file already under that name makes the rotation fail.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*-00000000.wal"))
	if len(segs) != 1 {
		t.Fatalf("segments at start: %v", segs)
	}
	blocker := strings.Replace(segs[0], "-00000000.wal", "-00000001.wal", 1)
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := inst.RegisterOnNode(0)
	if err != nil {
		t.Fatal(err)
	}
	var tokens []uint64
	for k := 0; k < 2000; k++ { // many laps of the 64-entry log past the failure
		h.Execute(Op{Kind: KindAdd, Key: uint16(k % 16), Delta: 1})
		tokens = append(tokens, h.LastToken())
	}
	if err := inst.SyncWAL(); err == nil {
		t.Fatal("SyncWAL reported success on a WAL whose rotation failed")
	}
	durable, _ := inst.DurableIndex()
	if durable == 0 || durable >= uint64(len(tokens)) {
		t.Fatalf("durable index %d: the failure was to hit mid-run", durable)
	}
	live := fingerprint(inst)
	if err := inst.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint on a failed WAL: %v", err)
	}
	inst.Close()

	rec := recoverDS(t, dir)
	if rec.SnapshotIndex() != uint64(len(tokens)) {
		t.Fatalf("snapshot index %d, want %d", rec.SnapshotIndex(), len(tokens))
	}
	for k, tok := range tokens {
		if !rec.WasExecuted(tok) {
			t.Fatalf("op %d (token %#x, durable watermark %d) is in the snapshot's state but not in its token set", k, tok, durable)
		}
	}
	if got := fingerprint(rec.Instance); got != live {
		t.Fatalf("recovered fingerprint %#x, live %#x", got, live)
	}
}
