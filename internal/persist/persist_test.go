package persist

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// encU64 is the test payload codec: one u64, little-endian.
func encU64(v uint64) func([]byte) ([]byte, error) {
	return func(dst []byte) ([]byte, error) {
		return binary.LittleEndian.AppendUint64(dst, v), nil
	}
}

func decU64(t *testing.T, p []byte) uint64 {
	t.Helper()
	if len(p) != 8 {
		t.Fatalf("payload length = %d, want 8", len(p))
	}
	return binary.LittleEndian.Uint64(p)
}

func openTestWAL(t *testing.T, dir string, opts Options) *WAL {
	t.Helper()
	w, err := Open(dir, 1, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return w
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, Options{})
	const n = 1000
	for i := uint64(0); i < n; i++ {
		if err := w.Append(i, 1000+i, encU64(i*7)); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if got := w.DurableIndex(); got != n {
		t.Fatalf("DurableIndex = %d, want %d", got, n)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if st.Gen != 1 || st.HaveSnapshot || st.SnapshotIndex != 0 {
		t.Fatalf("state = gen %d snapshot %v index %d", st.Gen, st.HaveSnapshot, st.SnapshotIndex)
	}
	if len(st.Records) != n {
		t.Fatalf("records = %d, want %d", len(st.Records), n)
	}
	for i, r := range st.Records {
		if r.Index != uint64(i) || r.Token != 1000+uint64(i) || decU64(t, r.Payload) != uint64(i)*7 {
			t.Fatalf("record %d = {%d %d %d}", i, r.Index, r.Token, decU64(t, r.Payload))
		}
	}
}

// Segments written before the WAL became single-writer hold records slightly
// out of index order (combiners on different nodes appended concurrently);
// the loader still sorts them and stops at the first gap.
func TestLoadToleratesOutOfOrderRecords(t *testing.T) {
	dir := t.TempDir()
	seg := segmentHeader(1, 0)
	for _, idx := range []uint64{1, 0, 3, 2, 5} { // a gap at index 4
		var err error
		if seg, err = appendRecord(seg, idx, idx, encU64(idx)); err != nil {
			t.Fatalf("appendRecord(%d): %v", idx, err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(1, 0)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(st.Records) != 4 {
		t.Fatalf("contiguous records = %d, want 4 (record 5 is beyond the gap)", len(st.Records))
	}
	for i, r := range st.Records {
		if r.Index != uint64(i) {
			t.Fatalf("record %d has index %d", i, r.Index)
		}
	}
	if st.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", st.Dropped)
	}
}

func TestWALRotation(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, Options{SegmentBytes: 2048, PageBytes: 512})
	const n = 500
	for i := uint64(0); i < n; i++ {
		if err := w.Append(i, i, encU64(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatalf("listSegments: %v", err)
	}
	if len(segs) < 2 {
		t.Fatalf("segments = %d, want rotation to have produced several", len(segs))
	}
	st, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(st.Records) != n {
		t.Fatalf("records across segments = %d, want %d", len(st.Records), n)
	}
}

func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, Options{})
	for i := uint64(0); i < 10; i++ {
		if err := w.Append(i, i, encU64(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, _ := listSegments(dir)
	if len(segs) != 1 {
		t.Fatalf("segments = %d, want 1", len(segs))
	}
	path := filepath.Join(dir, segs[0].name)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	// Tear the last record in half.
	if err := os.Truncate(path, info.Size()-(recHeaderSize+8)/2); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	st, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(st.Records) != 9 {
		t.Fatalf("records after torn tail = %d, want 9", len(st.Records))
	}
	if st.TornSegments != 1 {
		t.Fatalf("torn segments = %d, want 1", st.TornSegments)
	}
}

func TestCorruptRecordStopsScan(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, Options{})
	for i := uint64(0); i < 10; i++ {
		if err := w.Append(i, i, encU64(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[0].name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	// Flip a payload byte in the 6th record (records are fixed-size here).
	recSize := recHeaderSize + 8
	off := segHeaderSize + 5*recSize + recHeaderSize
	data[off] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	st, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(st.Records) != 5 {
		t.Fatalf("records before corruption = %d, want 5", len(st.Records))
	}
	if st.TornSegments != 1 {
		t.Fatalf("torn segments = %d, want 1", st.TornSegments)
	}
}

func TestSnapshotRoundTripAndRecovery(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, Options{})
	for i := uint64(0); i < 20; i++ {
		if err := w.Append(i, 100+i, encU64(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// Snapshot at index 12: replay must resume exactly there.
	err := SaveSnapshot(dir, Snapshot{
		Gen: 1, Index: 12,
		Tokens:  []uint64{100, 101, 102},
		Payload: []byte("replica-state"),
	})
	if err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !st.HaveSnapshot || st.SnapshotIndex != 12 {
		t.Fatalf("snapshot = %v index %d, want index 12", st.HaveSnapshot, st.SnapshotIndex)
	}
	if string(st.SnapshotPayload) != "replica-state" {
		t.Fatalf("payload = %q", st.SnapshotPayload)
	}
	if len(st.Tokens) != 3 {
		t.Fatalf("tokens = %d, want 3", len(st.Tokens))
	}
	if len(st.Records) != 8 {
		t.Fatalf("replay records = %d, want 8 (indices 12..19)", len(st.Records))
	}
	if st.Records[0].Index != 12 || st.Records[7].Index != 19 {
		t.Fatalf("replay range = [%d, %d]", st.Records[0].Index, st.Records[7].Index)
	}
	if st.Dropped != 12 {
		t.Fatalf("dropped = %d, want 12 (below snapshot)", st.Dropped)
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, Options{})
	for i := uint64(0); i < 10; i++ {
		if err := w.Append(i, i, encU64(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := SaveSnapshot(dir, Snapshot{Gen: 1, Index: 4, Payload: []byte("good")}); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	if err := SaveSnapshot(dir, Snapshot{Gen: 1, Index: 8, Payload: []byte("newer")}); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	// Corrupt the newer snapshot; Load must fall back to the older one and
	// extend the replay suffix accordingly.
	newer := filepath.Join(dir, snapshotName(1, 8))
	data, err := os.ReadFile(newer)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	data[len(data)-10] ^= 0xff
	if err := os.WriteFile(newer, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	st, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !st.HaveSnapshot || st.SnapshotIndex != 4 || string(st.SnapshotPayload) != "good" {
		t.Fatalf("fallback = %v index %d payload %q", st.HaveSnapshot, st.SnapshotIndex, st.SnapshotPayload)
	}
	if len(st.Records) != 6 {
		t.Fatalf("replay records = %d, want 6", len(st.Records))
	}
}

func TestGenerationsAndPrune(t *testing.T) {
	dir := t.TempDir()
	w1 := openTestWAL(t, dir, Options{})
	for i := uint64(0); i < 5; i++ {
		if err := w1.Append(i, i, encU64(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A new-generation snapshot (what Recover writes) supersedes gen 1
	// even while gen 1 files are still present.
	if err := SaveSnapshot(dir, Snapshot{Gen: 2, Index: 0, Tokens: []uint64{7}, Payload: []byte("recovered")}); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	st, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if st.Gen != 2 || string(st.SnapshotPayload) != "recovered" || len(st.Records) != 0 {
		t.Fatalf("state = gen %d payload %q records %d", st.Gen, st.SnapshotPayload, len(st.Records))
	}
	PruneBelowGen(dir, 2)
	segs, _ := listSegments(dir)
	if len(segs) != 0 {
		t.Fatalf("gen-1 segments survived prune: %d", len(segs))
	}
	snaps, _ := listSnapshots(dir)
	if len(snaps) != 1 || snaps[0].gen != 2 {
		t.Fatalf("snapshots after prune = %+v", snaps)
	}
}

func TestHasState(t *testing.T) {
	dir := t.TempDir()
	has, err := HasState(dir)
	if err != nil || has {
		t.Fatalf("fresh dir: has=%v err=%v", has, err)
	}
	has, err = HasState(filepath.Join(dir, "missing"))
	if err != nil || has {
		t.Fatalf("missing dir: has=%v err=%v", has, err)
	}
	w := openTestWAL(t, dir, Options{})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	has, err = HasState(dir)
	if err != nil || !has {
		t.Fatalf("after WAL: has=%v err=%v", has, err)
	}
}

// TestSyncBoundaryTruncation is the crash-point property the chaos harness
// relies on: rolling the directory back to any captured SyncInfo (truncate
// the segment, drop later segments) must yield exactly the records below
// that boundary's DurableIndex.
func TestSyncBoundaryTruncation(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var boundaries []SyncInfo
	w, err := Open(dir, 1, Options{
		SegmentBytes: 4096, PageBytes: 512,
		OnSync: func(si SyncInfo) {
			mu.Lock()
			boundaries = append(boundaries, si)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 300
	for i := uint64(0); i < n; i++ {
		if err := w.Append(i, i, encU64(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if i%37 == 0 {
			if err := w.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	mu.Lock()
	all := append([]SyncInfo(nil), boundaries...)
	mu.Unlock()
	if len(all) < 3 {
		t.Fatalf("boundaries = %d, want several", len(all))
	}
	// Pick a middle boundary with a nonzero watermark and roll back to it.
	b := all[len(all)/2]
	if b.DurableIndex == 0 || b.DurableIndex == n {
		for _, cand := range all {
			if cand.DurableIndex > 0 && cand.DurableIndex < n {
				b = cand
				break
			}
		}
	}
	if err := RollBackTo(dir, b); err != nil {
		t.Fatalf("RollBackTo: %v", err)
	}
	st, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if uint64(len(st.Records)) != b.DurableIndex {
		t.Fatalf("records after rollback = %d, want exactly DurableIndex %d", len(st.Records), b.DurableIndex)
	}
	for i, r := range st.Records {
		if r.Index != uint64(i) {
			t.Fatalf("record %d has index %d", i, r.Index)
		}
	}
}

func TestWALSyncTimelyWithoutExplicitSync(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, Options{GroupInterval: time.Millisecond})
	if err := w.Append(0, 0, encU64(0)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// The appender's Flush cadence, not a Sync, is what makes it durable:
	// one Flush hands the page over, the next one's empty page completes the
	// pipelined fsync.
	deadline := time.Now().Add(5 * time.Second)
	for w.DurableIndex() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("flushing every group interval never made the record durable")
		}
		w.Flush()
		time.Sleep(w.GroupInterval())
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, Options{})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := w.Append(0, 0, encU64(0)); err != ErrWALClosed {
		t.Fatalf("Append after close = %v, want ErrWALClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestEncodeErrorPoisons(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, Options{})
	boom := fmt.Errorf("boom")
	if err := w.Append(0, 0, func(dst []byte) ([]byte, error) { return dst, boom }); err == nil {
		t.Fatalf("Append with failing encoder succeeded")
	}
	if err := w.Append(1, 1, encU64(1)); err == nil {
		t.Fatalf("Append after encode failure succeeded; want sticky error")
	}
	if err := w.Sync(); err == nil {
		t.Fatalf("Sync after encode failure reported success")
	}
	w.Close()
}
