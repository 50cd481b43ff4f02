// Sharded keyspace: the NR store hash-partitioned over S independent
// instances (nr.NewSharded). Keyed commands route by key hash and keep
// single-key linearizability; the keyless commands fan out — DBSIZE sums
// the shard sizes, FLUSHALL flushes every shard — with per-shard
// linearizable semantics (DESIGN.md §11). PING, read-only and keyless, is
// answered by shard 0.
package miniredis

import (
	nr "github.com/asplos17/nr"
	"github.com/asplos17/nr/internal/topology"
	"github.com/asplos17/nr/internal/trace"
)

// NewShardedShared builds an NR keyspace partitioned over shards instances
// (shards >= 2; use NewSharedTraced for the single-log deployment). Only
// the NR method shards — the point is splitting NR's shared log — and the
// recorder, when non-nil, is shared across shards so SLOWLOG and
// /debug/trace cover the whole keyspace. Extra nr options (telemetry, SLOs)
// apply to every shard alike.
func NewShardedShared(topo topology.Topology, seed uint64, shards int, rec *trace.Recorder, extra ...nr.Option) (Shared, error) {
	options := []nr.Option{
		nr.WithNodes(topo.Nodes(), topo.CoresPerNode(), topo.SMT()),
		nr.WithMetrics(),
	}
	if rec != nil {
		options = append(options, nr.WithFlightRecorderInstance(rec))
	}
	options = append(options, extra...)
	inst, err := nr.NewSharded(
		func() nr.Sequential[StoreOp, StoreResult] { return NewStore(seed) },
		shards,
		func(op StoreOp) int {
			switch op.Cmd {
			case CmdPing, CmdDBSize, CmdFlushAll:
				return 0 // keyless; DBSIZE and FLUSHALL fan out before routing
			}
			return int(hashKey(op.Key) % uint64(shards))
		},
		options...)
	if err != nil {
		return nil, err
	}
	return &nrShared{exec: inst}, nil
}
