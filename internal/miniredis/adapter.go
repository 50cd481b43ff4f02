// NR keyspace adapter: the bridge from an *nr.Instance — plain or durable,
// the one type — to the server's Shared interface.
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

// NewNRShared builds the NR keyspace, one replicated Store per node. When
// dir is not empty it is durable — recovered (or created) from dir, every
// update appended to dir's append-only log, checkpoints exposed via the
// returned Persistence, which the caller closes on shutdown to flush the
// log (nil without dir). The metrics observer feeds INFO's latency section
// and /metrics; the recorder, when non-nil, lets SLOWLOG and /debug/trace
// cover the keyspace. Extra nr options are appended to the keyspace's own.
func NewNRShared(topo topology.Topology, seed uint64, dir string, rec *trace.Recorder, extra ...nr.Option) (Shared, *Persistence, error) {
	options := []nr.Option{
		nr.WithNodes(topo.Nodes(), topo.CoresPerNode(), topo.SMT()),
		nr.WithMetrics(),
	}
	if rec != nil {
		options = append(options, nr.WithFlightRecorderInstance(rec))
	}
	options = append(options, extra...)
	if dir != "" {
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
	inst, err := nr.New(func() nr.Sequential[StoreOp, StoreResult] { return NewStore(seed) }, options...)
	if err != nil {
		return nil, nil, err
	}
	return &nrShared{inst: inst}, nil, nil
}

// nrShared adapts an NR keyspace to Shared.
type nrShared struct {
	inst *nr.Instance[StoreOp, StoreResult]
}

// Register binds a worker goroutine: its executor is the handle itself.
func (s *nrShared) Register() (baseline.Executor[StoreOp, StoreResult], error) {
	h, err := s.inst.Register()
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Metrics implements MetricsSource for INFO and /metrics: the unified
// snapshot, Observed included.
func (s *nrShared) Metrics() core.Metrics { return s.inst.Metrics() }

// Telemetry implements TelemetrySource: the windowed collector attached by
// nr.WithTelemetry, nil otherwise.
func (s *nrShared) Telemetry() *tsdb.Collector { return s.inst.Telemetry() }
