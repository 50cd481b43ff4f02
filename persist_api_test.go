package nr_test

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	nr "github.com/asplos17/nr"
	"github.com/asplos17/nr/internal/persist"
	"github.com/asplos17/nr/internal/waittest"
)

// kvOp is the test operation: add Delta to Key, or read Key.
type kvOp struct {
	Key   uint64
	Delta uint64
	Read  bool
}

// kvDS is a snapshot-capable accumulator map.
type kvDS struct {
	m map[uint64]uint64
}

func newKV() nr.Sequential[kvOp, uint64] { return &kvDS{m: make(map[uint64]uint64)} }

func (d *kvDS) Execute(op kvOp) uint64 {
	if op.Read {
		return d.m[op.Key]
	}
	d.m[op.Key] += op.Delta
	return d.m[op.Key]
}

func (d *kvDS) IsReadOnly(op kvOp) bool { return op.Read }

func (d *kvDS) SnapshotBytes() ([]byte, error) {
	keys := make([]uint64, 0, len(d.m))
	for k := range d.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := binary.LittleEndian.AppendUint64(nil, uint64(len(keys)))
	for _, k := range keys {
		out = binary.LittleEndian.AppendUint64(out, k)
		out = binary.LittleEndian.AppendUint64(out, d.m[k])
	}
	return out, nil
}

func restoreKV(data []byte) (nr.Sequential[kvOp, uint64], error) {
	d := &kvDS{m: make(map[uint64]uint64)}
	if data == nil {
		return d, nil
	}
	if len(data) < 8 {
		return nil, fmt.Errorf("kv snapshot too short: %d bytes", len(data))
	}
	n := binary.LittleEndian.Uint64(data)
	data = data[8:]
	if uint64(len(data)) != n*16 {
		return nil, fmt.Errorf("kv snapshot length mismatch: %d entries, %d bytes", n, len(data))
	}
	for i := uint64(0); i < n; i++ {
		k := binary.LittleEndian.Uint64(data[i*16:])
		v := binary.LittleEndian.Uint64(data[i*16+8:])
		d.m[k] = v
	}
	return d, nil
}

// kvCodec is a hand-rolled fixed-width codec for kvOp updates (reads are
// never persisted).
type kvCodec struct{}

func (kvCodec) AppendEncode(dst []byte, op kvOp) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint64(dst, op.Key)
	dst = binary.LittleEndian.AppendUint64(dst, op.Delta)
	return dst, nil
}

func (kvCodec) Decode(data []byte) (kvOp, error) {
	if len(data) != 16 {
		return kvOp{}, fmt.Errorf("kv record is %d bytes, want 16", len(data))
	}
	return kvOp{
		Key:   binary.LittleEndian.Uint64(data),
		Delta: binary.LittleEndian.Uint64(data[8:]),
	}, nil
}

// groupInterval and syncHook set the WAL knobs that only this module's
// tests turn: a shorter group interval, and a callback after every sync.
func groupInterval(d time.Duration) nr.PersistOption {
	return func(o *persist.Options) { o.GroupInterval = d }
}

func syncHook(fn func(persist.SyncInfo)) nr.PersistOption {
	return func(o *persist.Options) { o.OnSync = fn }
}

func smallPersistent(t *testing.T, dir string, popts ...nr.PersistOption) *nr.Instance[kvOp, uint64] {
	t.Helper()
	popts = append([]nr.PersistOption{groupInterval(time.Millisecond)}, popts...)
	inst, err := nr.New(newKV,
		nr.WithNodes(2, 2, 1),
		nr.WithPersistence(dir, kvCodec{}, popts...),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return inst
}

func readKey(t *testing.T, h *nr.Handle[kvOp, uint64], key uint64) uint64 {
	t.Helper()
	return h.Execute(kvOp{Key: key, Read: true})
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	inst := smallPersistent(t, dir)
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	tokens := make([]uint64, 0, n)
	for i := uint64(0); i < n; i++ {
		h.Execute(kvOp{Key: i % 7, Delta: i})
		tokens = append(tokens, h.LastToken())
	}
	if err := inst.SyncWAL(); err != nil {
		t.Fatalf("SyncWAL: %v", err)
	}
	if d, ok := inst.DurableIndex(); !ok || d < n {
		t.Fatalf("DurableIndex = %d, %v; want >= %d", d, ok, n)
	}
	want := make(map[uint64]uint64)
	for i := uint64(0); i < n; i++ {
		want[i%7] += i
	}
	inst.Close()

	rec, err := nr.Recover(dir, restoreKV, kvCodec{}, nr.WithNodes(2, 2, 1))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rec.Close()
	if rec.ReplayedOps() != n {
		t.Errorf("ReplayedOps = %d, want %d", rec.ReplayedOps(), n)
	}
	if rec.DroppedRecords() != 0 {
		t.Errorf("DroppedRecords = %d, want 0", rec.DroppedRecords())
	}
	h2, err := rec.Register()
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		if got := readKey(t, h2, k); got != v {
			t.Errorf("key %d = %d after recovery, want %d", k, got, v)
		}
	}
	for _, tok := range tokens {
		if !rec.WasExecuted(tok) {
			t.Errorf("WasExecuted(%#x) = false for a synced op", tok)
		}
	}
	if rec.WasExecuted(0xffff_ffff_ffff_fff0) {
		t.Error("WasExecuted true for a token that never existed")
	}
}

func TestCheckpointThenReplaySuffix(t *testing.T) {
	dir := t.TempDir()
	inst := smallPersistent(t, dir)
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	const pre, post = 64, 16
	preTokens := make([]uint64, 0, pre)
	for i := uint64(0); i < pre; i++ {
		h.Execute(kvOp{Key: 1, Delta: 1})
		preTokens = append(preTokens, h.LastToken())
	}
	if err := inst.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if inst.LastSave().IsZero() {
		t.Error("LastSave still zero after Checkpoint")
	}
	for i := uint64(0); i < post; i++ {
		h.Execute(kvOp{Key: 2, Delta: 1})
	}
	if err := inst.SyncWAL(); err != nil {
		t.Fatalf("SyncWAL: %v", err)
	}
	inst.Close()

	rec, err := nr.Recover(dir, restoreKV, kvCodec{}, nr.WithNodes(2, 2, 1))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rec.Close()
	if rec.SnapshotIndex() < pre {
		t.Errorf("SnapshotIndex = %d, want >= %d", rec.SnapshotIndex(), pre)
	}
	if rec.ReplayedOps() > post {
		t.Errorf("ReplayedOps = %d, want <= %d (snapshot should cover the prefix)", rec.ReplayedOps(), post)
	}
	h2, err := rec.Register()
	if err != nil {
		t.Fatal(err)
	}
	if got := readKey(t, h2, 1); got != pre {
		t.Errorf("key 1 = %d, want %d", got, pre)
	}
	if got := readKey(t, h2, 2); got != post {
		t.Errorf("key 2 = %d, want %d", got, post)
	}
	// Detectability must reach through the snapshot: pre-checkpoint ops are
	// not in the WAL suffix, only in the snapshot's token set.
	for _, tok := range preTokens {
		if !rec.WasExecuted(tok) {
			t.Errorf("WasExecuted(%#x) = false for a checkpointed op", tok)
		}
	}
}

func TestRecoverIsOpenOrCreate(t *testing.T) {
	dir := t.TempDir()
	rec, err := nr.Recover(dir, restoreKV, kvCodec{},
		nr.WithNodes(1, 2, 1),
		nr.WithPersistenceOptions(groupInterval(time.Millisecond)),
	)
	if err != nil {
		t.Fatalf("Recover on empty dir: %v", err)
	}
	if rec.ReplayedOps() != 0 || rec.SnapshotIndex() != 0 {
		t.Errorf("fresh dir: replayed %d from snapshot index %d, want 0/0",
			rec.ReplayedOps(), rec.SnapshotIndex())
	}
	h, err := rec.Register()
	if err != nil {
		t.Fatal(err)
	}
	h.Execute(kvOp{Key: 9, Delta: 41})
	h.Execute(kvOp{Key: 9, Delta: 1})
	tok := h.LastToken()
	if err := rec.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	rec.Close()

	rec2, err := nr.Recover(dir, restoreKV, kvCodec{}, nr.WithNodes(1, 2, 1))
	if err != nil {
		t.Fatalf("second Recover: %v", err)
	}
	defer rec2.Close()
	h2, err := rec2.Register()
	if err != nil {
		t.Fatal(err)
	}
	if got := readKey(t, h2, 9); got != 42 {
		t.Errorf("key 9 = %d, want 42", got)
	}
	if !rec2.WasExecuted(tok) {
		t.Error("token from first incarnation not executed after second recovery")
	}
}

func TestNewRefusesExistingState(t *testing.T) {
	dir := t.TempDir()
	inst := smallPersistent(t, dir)
	h, _ := inst.Register()
	h.Execute(kvOp{Key: 1, Delta: 1})
	if err := inst.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	inst.Close()

	_, err := nr.New(newKV, nr.WithNodes(2, 2, 1), nr.WithPersistence(dir, kvCodec{}))
	if err == nil {
		t.Fatal("New over existing durable state succeeded; want refusal directing to Recover")
	}
}

// TestLogsRefusePersistence: persistence × WithLogs(m > 1) is refused by
// the constructor, citing the missing cross-log recovery barrier, before
// anything is written to the directory.
func TestLogsRefusePersistence(t *testing.T) {
	dir := t.TempDir()
	inst, err := nr.New(newKV, nr.WithNodes(1, 2, 1),
		nr.WithLogs(2, nr.KeyMapper(2, func(op kvOp) (uint64, bool) { return op.Key, true })),
		nr.WithPersistence[kvOp](dir, kvCodec{}))
	if err == nil {
		inst.Close()
		t.Fatal("New accepted WithLogs(2) with WithPersistence")
	}
	if !strings.Contains(err.Error(), "cannot be combined with persistence") ||
		!strings.Contains(err.Error(), "ROADMAP item 5") {
		t.Errorf("error = %q, want the persistence refusal citing ROADMAP item 5", err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("refused constructor left %d entries in the directory", len(left))
	}
}

func TestPersistenceRequiresSnapshotter(t *testing.T) {
	_, err := nr.New(func() nr.Sequential[plainOp, int] { return plainDS{} },
		nr.WithNodes(1, 1, 1),
		nr.WithPersistence(t.TempDir(), nr.NewGobCodec[plainOp]()),
	)
	if err == nil {
		t.Fatal("New accepted a structure without SnapshotBytes")
	}
}

type plainOp struct{ V int }

type plainDS struct{}

func (plainDS) Execute(op plainOp) int     { return op.V }
func (plainDS) IsReadOnly(op plainOp) bool { return false }

func TestGobCodecWithPersistence(t *testing.T) {
	dir := t.TempDir()
	codec := nr.NewGobCodec[kvOp]()
	inst, err := nr.New(newKV,
		nr.WithNodes(1, 2, 1),
		nr.WithPersistence(dir, codec, groupInterval(time.Millisecond)),
	)
	if err != nil {
		t.Fatal(err)
	}
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50; i++ {
		h.Execute(kvOp{Key: 3, Delta: 2})
	}
	if err := inst.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	inst.Close()

	rec, err := nr.Recover(dir, restoreKV, nr.NewGobCodec[kvOp](), nr.WithNodes(1, 2, 1))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rec.Close()
	h2, err := rec.Register()
	if err != nil {
		t.Fatal(err)
	}
	if got := readKey(t, h2, 3); got != 100 {
		t.Errorf("key 3 = %d, want 100", got)
	}
}

func TestWALStats(t *testing.T) {
	dir := t.TempDir()
	inst := smallPersistent(t, dir)
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 120; i++ {
		h.Execute(kvOp{Key: i, Delta: 1})
	}
	if err := inst.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	stats, ok := inst.WALStats()
	if !ok {
		t.Fatal("WALStats not ok on persistent instance")
	}
	if stats.Appends != 120 {
		t.Errorf("Appends = %d, want 120", stats.Appends)
	}
	if stats.Fsyncs == 0 {
		t.Error("Fsyncs = 0 after SyncWAL")
	}
	inst.Close()
}

func TestNoPersistenceErrors(t *testing.T) {
	inst, err := nr.New(newKV, nr.WithNodes(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if err := inst.SyncWAL(); err != nr.ErrNoPersistence {
		t.Errorf("SyncWAL = %v, want ErrNoPersistence", err)
	}
	if err := inst.Checkpoint(); err != nr.ErrNoPersistence {
		t.Errorf("Checkpoint = %v, want ErrNoPersistence", err)
	}
	if _, ok := inst.DurableIndex(); ok {
		t.Error("DurableIndex ok on non-persistent instance")
	}
	if _, ok := inst.WALStats(); ok {
		t.Error("WALStats ok on non-persistent instance")
	}
	if !inst.LastSave().IsZero() {
		t.Error("LastSave non-zero on non-persistent instance")
	}
}

// Durability costs the submitting and combining threads nothing: the WAL
// follows the shared log on its own goroutine, and that goroutine encodes in
// place into the WAL's one page and writes it itself. AllocsPerRun counts
// the whole process, so the follower's steady state is held to zero as well.
func TestDurableUpdateAllocatesNothing(t *testing.T) {
	inst := smallPersistent(t, t.TempDir())
	defer inst.Close()
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 2000; i++ { // fill the map's buckets and the WAL's page pool
		h.Execute(kvOp{Key: i % 7, Delta: 1})
	}
	if err := inst.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	i := uint64(0)
	if n := testing.AllocsPerRun(2000, func() {
		h.Execute(kvOp{Key: i % 7, Delta: 1})
		i++
	}); n != 0 {
		t.Errorf("update with persistence attached: %v allocs/op, want 0", n)
	}
	if err := inst.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if ws, _ := inst.WALStats(); ws.Appends < 4000 {
		t.Fatalf("WAL appends = %d: the measured updates were not persisted", ws.Appends)
	}
}

// TestDurableLogFullDoesNotAllocate pins the durable path's backpressure
// loop: with the follower held inside its sync hook, a 16-entry log fills,
// and the appender waits in reserveConsuming, kicking the follower on every
// spin. Over about 10 000 spins (waittest.Window: GOMAXPROCS 1, one spin per
// yield of this goroutine) fewer than one allocation per 100 spins is
// allowed, and the appender must yield on every turn and never park: a
// Kick that waited for the parked follower would.
func TestDurableLogFullDoesNotAllocate(t *testing.T) {
	var stall atomic.Bool
	entered, gate := make(chan struct{}, 1), make(chan struct{})
	hook := func(persist.SyncInfo) {
		if stall.Load() {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-gate
		}
	}
	inst, err := nr.New(newKV, nr.WithNodes(2, 2, 1), nr.WithLogEntries(16),
		nr.WithPersistence(t.TempDir(), kvCodec{}, groupInterval(time.Millisecond), syncHook(hook)))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer inst.Close()
	defer close(gate)
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 2000; i++ { // fill the map's buckets and the WAL's page pool
		h.Execute(kvOp{Key: i % 7, Delta: 1})
	}
	// Park the follower in its next sync, caught up first so that the log
	// is not already full when it parks.
	if err := inst.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	stall.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for parked := false; !parked; {
		h.Execute(kvOp{Key: 1, Delta: 1})
		select {
		case <-entered:
			parked = true
		case <-time.After(time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("the follower never synced")
			}
		}
	}

	n := waittest.Window(t, func() {
		for i := uint64(0); i < 32; i++ { // more than the log holds
			h.Execute(kvOp{Key: i % 7, Delta: 1})
		}
	}, func() {
		stall.Store(false)
		gate <- struct{}{}
	})
	if n >= waittest.Yields/100 {
		t.Errorf("%d mallocs over about %d spins on a full log, want fewer than one per 100 spins", n, waittest.Yields)
	}
}
