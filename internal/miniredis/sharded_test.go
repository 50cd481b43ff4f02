package miniredis

import (
	"fmt"
	"testing"

	"github.com/asplos17/nr/internal/topology"
)

// TestShardedKeyspace drives keyed and keyless commands through the sharded
// adapter: keyed ops behave exactly like the flat store, DBSIZE sums across
// shards, FLUSHALL clears every shard.
func TestShardedKeyspace(t *testing.T) {
	shared, _, err := NewNRShared(topology.New(2, 2, 1), 1, 4, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := shared.Register()
	if err != nil {
		t.Fatal(err)
	}

	const keys = 40 // enough that all 4 shards get traffic w.h.p.
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%d", i)
		if r := ex.Execute(StoreOp{Cmd: CmdSet, Key: k, Member: k + "-v"}); !r.OK {
			t.Fatalf("SET %s: %+v", k, r)
		}
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%d", i)
		if r := ex.Execute(StoreOp{Cmd: CmdGet, Key: k}); !r.OK || r.Str != k+"-v" {
			t.Fatalf("GET %s = %+v", k, r)
		}
	}
	if r := ex.Execute(StoreOp{Cmd: CmdDBSize}); r.Int != keys {
		t.Errorf("DBSIZE = %d, want %d (fan-out sum)", r.Int, keys)
	}
	if r := ex.Execute(StoreOp{Cmd: CmdZIncrBy, Key: "board", Member: "alice", Score: 3}); !r.OK || r.Score != 3 {
		t.Errorf("ZINCRBY = %+v", r)
	}
	if r := ex.Execute(StoreOp{Cmd: CmdGet, Key: "board"}); r.Err == "" {
		t.Errorf("GET on zset key: want WRONGTYPE, got %+v", r)
	}
	if r := ex.Execute(StoreOp{Cmd: CmdPing}); !r.OK || r.Str != "PONG" {
		t.Errorf("PING = %+v", r)
	}
	if r := ex.Execute(StoreOp{Cmd: CmdFlushAll}); !r.OK {
		t.Errorf("FLUSHALL = %+v", r)
	}
	if r := ex.Execute(StoreOp{Cmd: CmdDBSize}); r.Int != 0 {
		t.Errorf("DBSIZE after FLUSHALL = %d, want 0 on every shard", r.Int)
	}

	// The adapter reports aggregate NR metrics: every op above counted once.
	ms, ok := shared.(MetricsSource)
	if !ok {
		t.Fatal("sharded keyspace does not implement MetricsSource")
	}
	s := ms.Metrics().Stats
	if s.ReadOps == 0 || s.UpdateOps == 0 {
		t.Errorf("aggregate stats missing traffic: %+v", s)
	}
}
