package miniredis

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/asplos17/nr/internal/topology"
)

func TestStoreCodecRoundTrip(t *testing.T) {
	ops := []StoreOp{
		{Cmd: CmdPing},
		{Cmd: CmdSet, Key: "k", Member: "hello world"},
		{Cmd: CmdZAdd, Key: "lb", Member: "alice", Score: 4.25},
		{Cmd: CmdZIncrBy, Key: "lb", Member: "bob", Score: -1.5},
		{Cmd: CmdZRange, Key: "lb", Start: -3, Stop: -1, WithScores: true},
		{Cmd: CmdFlushAll},
		{Cmd: CmdSet, Key: "", Member: ""},
		{Cmd: CmdZAdd, Key: strings.Repeat("k", 300), Member: "m", Score: math.Inf(1)},
	}
	c := StoreCodec{}
	for _, op := range ops {
		enc, err := c.AppendEncode(nil, op)
		if err != nil {
			t.Fatalf("%+v: encode: %v", op, err)
		}
		got, err := c.Decode(enc)
		if err != nil {
			t.Fatalf("%+v: decode: %v", op, err)
		}
		if got != op {
			t.Errorf("round trip: got %+v, want %+v", got, op)
		}
	}
	if _, err := c.Decode([]byte{1}); err == nil {
		t.Error("decoding a truncated record succeeded")
	}
}

func TestStoreSnapshotRoundTrip(t *testing.T) {
	st := NewStore(99)
	st.Execute(StoreOp{Cmd: CmdSet, Key: "greeting", Member: "hi"})
	for i := 0; i < 50; i++ {
		st.Execute(StoreOp{Cmd: CmdZAdd, Key: "lb", Member: fmt.Sprintf("user%02d", i), Score: float64(i) * 1.5})
	}
	st.Execute(StoreOp{Cmd: CmdZAdd, Key: "other", Member: "x", Score: -3})

	data, err := st.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := RestoreStore(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.seed != 99 {
		t.Errorf("restored seed %d, want 99", got.seed)
	}
	if got.Len() != st.Len() {
		t.Fatalf("restored %d keys, want %d", got.Len(), st.Len())
	}
	if r := got.Execute(StoreOp{Cmd: CmdGet, Key: "greeting"}); r.Str != "hi" {
		t.Errorf("greeting = %q", r.Str)
	}
	if r := got.Execute(StoreOp{Cmd: CmdZScore, Key: "lb", Member: "user31"}); r.Score != 31*1.5 {
		t.Errorf("user31 score = %v", r.Score)
	}
	if r := got.Execute(StoreOp{Cmd: CmdZRank, Key: "lb", Member: "user00"}); r.Int != 0 || !r.OK {
		t.Errorf("user00 rank = %v ok=%v", r.Int, r.OK)
	}
	// Canonical encoding: re-snapshotting the restored store is bit-identical.
	again, err := got.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Error("snapshot encoding is not canonical across restore")
	}

	// Fresh-dir path: nil data uses the fallback seed.
	fresh, err := RestoreStore(nil, 123)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.seed != 123 || fresh.Len() != 0 {
		t.Errorf("fresh store seed %d len %d, want 123/0", fresh.seed, fresh.Len())
	}
}

// A snapshot written before ZREM deleted a set's key with its last member
// can hold an empty set; restoring drops it.
func TestRestoreStoreDropsEmptySet(t *testing.T) {
	data := binary.LittleEndian.AppendUint64(nil, 7) // seed
	data = binary.LittleEndian.AppendUint64(data, 1) // one key
	data = binary.LittleEndian.AppendUint32(data, 1)
	data = append(data, 'z', 1)                      // "z", a sorted set
	data = binary.LittleEndian.AppendUint64(data, 0) // of no members
	st, err := RestoreStore(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r := st.Execute(StoreOp{Cmd: CmdDBSize}); r.Int != 0 {
		t.Errorf("DBSIZE = %+v, want 0", r)
	}
	if r := st.Execute(StoreOp{Cmd: CmdGet, Key: "z"}); r.OK || r.Err != "" {
		t.Errorf("GET z = %+v, want nil", r)
	}
}

// snapshotOf builds a snapshot by hand: seed 7, then each record, which is
// a key, a type byte and its payload (appendString / appendMember).
func snapshotOf(records ...[]byte) []byte {
	data := binary.LittleEndian.AppendUint64(nil, 7)
	data = binary.LittleEndian.AppendUint64(data, uint64(len(records)))
	for _, r := range records {
		data = append(data, r...)
	}
	return data
}

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func stringRecord(key, val string) []byte {
	return appendString(append(appendString(nil, key), 0), val)
}

func zsetRecord(key string, members ...string) []byte {
	b := binary.LittleEndian.AppendUint64(append(appendString(nil, key), 1), uint64(len(members)))
	for i, m := range members {
		b = binary.LittleEndian.AppendUint64(appendString(b, m), math.Float64bits(float64(i)))
	}
	return b
}

// A snapshot SnapshotBytes cannot have written is refused, not half
// restored: a string record "k" followed by a sorted-set record "k" used to
// dereference the nil set zsetFor answers for a string key.
func TestRestoreStoreRefusesRepeatedKeysAndMembers(t *testing.T) {
	nan := binary.LittleEndian.AppendUint64(append(appendString(nil, "z"), 1), 1)
	nan = binary.LittleEndian.AppendUint64(appendString(nan, "m"), math.Float64bits(math.NaN()))
	for name, data := range map[string][]byte{
		"string-then-zset": snapshotOf(stringRecord("k", "v"), zsetRecord("k", "m")),
		"zset-then-zset":   snapshotOf(zsetRecord("k", "a"), zsetRecord("k", "b")),
		"string-twice":     snapshotOf(stringRecord("k", "v"), stringRecord("k", "w")),
		"member-twice":     snapshotOf(zsetRecord("k", "m", "m")),
		"nan-score":        snapshotOf(nan),
	} {
		if st, err := RestoreStore(data, 0); err == nil {
			t.Errorf("%s: restored %d keys, want an error", name, st.Len())
		}
	}
}

// FuzzRestoreStore: RestoreStore never panics, and a snapshot it accepts
// restores to a keyspace whose own snapshot is a fixed point of restoring
// and snapshotting again.
func FuzzRestoreStore(f *testing.F) {
	f.Add(snapshotOf(stringRecord("k", "v"), zsetRecord("k", "m")))
	f.Add(snapshotOf(stringRecord("a", "v"), zsetRecord("b", "x", "y"), zsetRecord("c")))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := RestoreStore(data, 1)
		if err != nil {
			return
		}
		once, err := st.SnapshotBytes()
		if err != nil {
			t.Fatal(err)
		}
		again, err := RestoreStore(once, 1)
		if err != nil {
			t.Fatalf("restoring a snapshot of a restored store: %v", err)
		}
		twice, err := again.SnapshotBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("snapshot is not a fixed point:\n%x\n%x", once, twice)
		}
	})
}

func TestPersistentServerSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	topo := topology.New(2, 4, 1)

	boot := func() (*Server, *Persistence, net.Addr) {
		shared, p, err := NewNRShared(topo, 7, dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(shared, 4, WithPersistence(p))
		if err != nil {
			t.Fatal(err)
		}
		addrCh := make(chan net.Addr, 1)
		go func() {
			if err := srv.Serve("127.0.0.1:0", func(a net.Addr) { addrCh <- a }); err != nil {
				t.Errorf("Serve: %v", err)
			}
		}()
		return srv, p, <-addrCh
	}

	srv, p, addr := boot()
	c := dial(t, addr)
	if got := c.cmd(t, "ZADD", "lb", "4.5", "alice"); got != ":1" {
		t.Fatalf("ZADD = %q", got)
	}
	if got := c.cmd(t, "ZINCRBY", "lb", "2", "alice"); got != "6.5" {
		t.Fatalf("ZINCRBY = %q", got)
	}
	if got := c.cmd(t, "SET", "greeting", "hello"); got != "+OK" {
		t.Fatalf("SET = %q", got)
	}
	if got := c.cmd(t, "LASTSAVE"); got != ":0" {
		t.Fatalf("LASTSAVE before any save = %q", got)
	}
	if got := c.cmd(t, "BGSAVE"); got != "+Background saving started" {
		t.Fatalf("BGSAVE = %q", got)
	}
	deadline := time.Now().Add(2 * time.Second)
	for p.LastSave().IsZero() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if p.LastSave().IsZero() {
		t.Fatal("background save never completed")
	}
	if got := c.cmd(t, "LASTSAVE"); got == ":0" {
		t.Fatal("LASTSAVE still 0 after a completed save")
	}
	if got := c.cmd(t, "ZADD", "lb", "1", "bob"); got != ":1" {
		t.Fatalf("post-save ZADD = %q", got)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	p.Close()

	// Restart over the same dir: snapshot + WAL suffix must rebuild the
	// keyspace.
	srv2, p2, addr2 := boot()
	defer func() { srv2.Close(); p2.Close() }()
	// The 3 pre-BGSAVE updates are superseded by the snapshot (dropped as
	// below-snapshot records); bob's post-save ZADD must replay from the WAL.
	if p2.Recovered.Replayed < 1 {
		t.Errorf("recovery replayed %d WAL records, want >= 1 (post-save ZADD)", p2.Recovered.Replayed)
	}
	if p2.Recovered.Dropped > 3 {
		t.Errorf("recovery dropped %d records, want <= 3 (the snapshotted prefix)", p2.Recovered.Dropped)
	}
	c2 := dial(t, addr2)
	if got := c2.cmd(t, "ZSCORE", "lb", "alice"); got != "6.5" {
		t.Errorf("alice after restart = %q, want 6.5", got)
	}
	if got := c2.cmd(t, "ZSCORE", "lb", "bob"); got != "1" {
		t.Errorf("bob after restart = %q, want 1", got)
	}
	if got := c2.cmd(t, "GET", "greeting"); got != "hello" {
		t.Errorf("greeting after restart = %q", got)
	}
	if got := c2.cmd(t, "DBSIZE"); got != ":2" {
		t.Errorf("DBSIZE after restart = %q, want :2", got)
	}
}

func TestBgSaveCommandsWithoutPersistence(t *testing.T) {
	_, addr := startServer(t, MethodNR)
	c := dial(t, addr)
	if got := c.cmd(t, "BGSAVE"); !strings.HasPrefix(got, "-ERR persistence not enabled") {
		t.Errorf("BGSAVE without persistence = %q", got)
	}
	if got := c.cmd(t, "LASTSAVE"); !strings.HasPrefix(got, "-ERR persistence not enabled") {
		t.Errorf("LASTSAVE without persistence = %q", got)
	}
}

// flakyListener fails Accept with a transient error a set number of times
// before handing out real connections from the wrapped listener.
type flakyListener struct {
	net.Listener
	failures atomic.Int64 // remaining failures; negative = fail forever
	attempts atomic.Int64
}

type tempErr struct{}

func (tempErr) Error() string   { return "accept: resource temporarily unavailable" }
func (tempErr) Timeout() bool   { return false }
func (tempErr) Temporary() bool { return true }

func (l *flakyListener) Accept() (net.Conn, error) {
	l.attempts.Add(1)
	for {
		n := l.failures.Load()
		if n == 0 {
			return l.Listener.Accept()
		}
		if n < 0 {
			return nil, tempErr{}
		}
		if l.failures.CompareAndSwap(n, n-1) {
			return nil, tempErr{}
		}
	}
}

func TestServeRetriesTransientAcceptErrors(t *testing.T) {
	shared, err := NewShared(MethodSL, topology.New(1, 2, 1), 7)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(shared, 1)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: inner}
	fl.failures.Store(3)
	go func() {
		if err := srv.ServeListener(fl, nil); err != nil {
			t.Errorf("ServeListener: %v", err)
		}
	}()
	t.Cleanup(srv.Close)
	// The server must ride out the 3 transient failures and then serve.
	c := dial(t, inner.Addr())
	if got := c.cmd(t, "PING"); got != "+PONG" {
		t.Fatalf("PING after transient accept errors = %q", got)
	}
	if got := fl.attempts.Load(); got < 4 {
		t.Errorf("accept attempts = %d, want >= 4 (3 failures + success)", got)
	}
}

func TestServeGivesUpAfterBoundedRetries(t *testing.T) {
	shared, err := NewShared(MethodSL, topology.New(1, 2, 1), 7)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(shared, 1)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: inner}
	fl.failures.Store(-1) // fail forever
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ServeListener(fl, nil) }()
	select {
	case err := <-errCh:
		if err == nil || !errors.As(err, new(tempErr)) && !strings.Contains(err.Error(), "accept failed") {
			t.Fatalf("ServeListener = %v, want bounded-retry failure", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("ServeListener retried forever on a permanently failing listener")
	}
	if got := fl.attempts.Load(); got != acceptRetryMax+1 {
		t.Errorf("accept attempts = %d, want %d", got, acceptRetryMax+1)
	}
	srv.Close()
}
