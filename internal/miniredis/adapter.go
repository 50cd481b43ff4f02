// NR keyspace adapter: the bridge from an *nr.Instance — plain, sharded or
// durable, all the one type — to the server's Shared interface.
package miniredis

import (
	"fmt"

	nr "github.com/asplos17/nr"
	"github.com/asplos17/nr/internal/baseline"
	"github.com/asplos17/nr/internal/core"
	"github.com/asplos17/nr/internal/obs/tsdb"
	"github.com/asplos17/nr/internal/topology"
	"github.com/asplos17/nr/internal/trace"
)

// keyless reports the commands that name no key: PING, DBSIZE, FLUSHALL.
func keyless(op StoreOp) bool {
	return op.Cmd == CmdPing || op.Cmd == CmdDBSize || op.Cmd == CmdFlushAll
}

// NewNRShared builds the NR keyspace: hash-partitioned over shards private
// replica sets (nr.NewSharded; 1 is the single-log deployment) and, when
// dir is not empty, durable — recovered (or created) from dir, every update
// appended to dir's append-only log, checkpoints exposed via the returned
// Persistence, which the caller closes on shutdown to flush the log (nil
// without dir). Keyed commands run on the shard owning the key and keep
// single-key linearizability; the keyless ones run on every shard, DBSIZE
// summed, with per-shard linearizable semantics (DESIGN.md §11). The
// metrics observer feeds INFO's latency section and /metrics; the recorder,
// when non-nil, is shared across shards so SLOWLOG and /debug/trace cover
// the whole keyspace. Extra nr options apply to every shard alike.
func NewNRShared(topo topology.Topology, seed uint64, shards int, dir string, rec *trace.Recorder, extra ...nr.Option) (Shared, *Persistence, error) {
	options := []nr.Option{
		nr.WithNodes(topo.Nodes(), topo.CoresPerNode(), topo.SMT()),
		nr.WithMetrics(),
	}
	if rec != nil {
		options = append(options, nr.WithFlightRecorderInstance(rec))
	}
	options = append(options, extra...)
	if dir != "" && shards == 1 {
		recovered, err := nr.Recover(dir, func(data []byte) (nr.Sequential[StoreOp, StoreResult], error) {
			return RestoreStore(data, seed)
		}, StoreCodec{}, options...)
		if err != nil {
			return nil, nil, fmt.Errorf("miniredis: recovering keyspace from %q: %w", dir, err)
		}
		p := &Persistence{inst: recovered.Instance}
		p.Recovered.Replayed = recovered.ReplayedOps()
		p.Recovered.Dropped = recovered.DroppedRecords()
		return &nrShared{inst: recovered.Instance}, p, nil
	}
	if dir != "" {
		// There is no sharded recovery: nr refuses the composition, and its
		// error is the one place that says why.
		options = append(options, nr.WithPersistence(dir, StoreCodec{}))
	}
	inst, err := nr.NewSharded(
		func() nr.Sequential[StoreOp, StoreResult] { return NewStore(seed) },
		shards,
		nr.LogMapperFunc[StoreOp](func(op StoreOp) int {
			if keyless(op) {
				return nr.CrossLog
			}
			return int(hashKey(op.Key) % uint64(shards))
		}),
		options...)
	if err != nil {
		return nil, nil, err
	}
	return &nrShared{inst: inst}, nil, nil
}

// nrShared adapts an NR keyspace to Shared.
type nrShared struct {
	inst *nr.Instance[StoreOp, StoreResult]
}

// Register binds a worker goroutine.
func (s *nrShared) Register() (baseline.Executor[StoreOp, StoreResult], error) {
	h, err := s.inst.Register()
	if err != nil {
		return nil, err
	}
	return nrExecutor{h}, nil
}

// nrExecutor is one worker's front over its handle: a keyed command runs on
// the shard owning the key, a keyless one on every private replica set
// (one, unless the keyspace is sharded), answering with the first response
// and the summed counts.
type nrExecutor struct {
	h *nr.Handle[StoreOp, StoreResult]
}

func (e nrExecutor) Execute(op StoreOp) StoreResult {
	if !keyless(op) {
		return e.h.Execute(op)
	}
	rs := e.h.ExecuteAll(op)
	res := rs[0]
	for _, r := range rs[1:] {
		res.Int += r.Int
	}
	return res
}

// Metrics implements MetricsSource for INFO and /metrics: the unified
// snapshot, folded when sharded (Observed is nil there — per-shard latency
// histograms do not merge — so INFO's latency section is absent for sharded
// keyspaces).
func (s *nrShared) Metrics() core.Metrics { return s.inst.Metrics() }

// Telemetry implements TelemetrySource: the windowed collector attached by
// nr.WithTelemetry, nil otherwise.
func (s *nrShared) Telemetry() *tsdb.Collector { return s.inst.Telemetry() }

// ShardStats implements ShardStatsSource: per-shard counters, nil unless
// the keyspace is sharded. nrtop derives per-shard throughput from them
// across polls.
func (s *nrShared) ShardStats() []core.Stats {
	if s.inst.Shards() == 1 {
		return nil
	}
	shards := s.inst.ShardMetrics()
	out := make([]core.Stats, len(shards))
	for i := range shards {
		out[i] = shards[i].Stats
	}
	return out
}
