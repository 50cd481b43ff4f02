// Sharded chaos runs: the same seeded fault schedules driven through
// nr.NewSharded, so fault containment is exercised across shard
// boundaries. The interesting invariant beyond the plain harness is
// isolation: a panic or stall injected into one shard must be contained by
// that shard's machinery without perturbing the others' convergence.
package chaos

import (
	"fmt"
	"time"

	nr "github.com/asplos17/nr"
)

// ShardedReport is a Report plus per-shard detail. The embedded Report's
// Fingerprints hold one combined digest per node — the sum of that node's
// per-shard replica fingerprints, which is the fingerprint of the node's
// union state because shards partition the key space and Fingerprint is a
// commutative per-entry sum — so Report.Check's convergence invariant
// applies unchanged.
type ShardedReport struct {
	Report
	// ShardFingerprints[s][n] is shard s's replica fingerprint on node n,
	// for pinpointing which shard diverged when the combined check fails.
	ShardFingerprints [][]uint64
}

// CheckSharded runs the plain invariants plus per-shard convergence.
func (r *ShardedReport) CheckSharded() []error {
	errs := r.Check()
	for s, fps := range r.ShardFingerprints {
		for n := 1; n < len(fps); n++ {
			if fps[n] != fps[0] {
				errs = append(errs, fmt.Errorf(
					"shard %d: replica %d fingerprint %x != replica 0 fingerprint %x (divergence)",
					s, n, fps[n], fps[0]))
			}
		}
	}
	return errs
}

// RunSharded executes the schedule against a fresh sharded instance: keyed
// ops route by Key mod shards, Sum fans out with TryExecuteAll and returns
// the cross-shard total. Faults ride the keyed ops, so each injected panic
// or stall lands on a single shard while traffic keeps flowing to the rest.
func RunSharded(s Schedule, shards int) (*ShardedReport, error) {
	s.fillDefaults()
	if s.AbandonEveryN > 0 {
		return nil, fmt.Errorf("chaos: sharded runs do not support abandonment schedules")
	}
	rec, dumps := s.recorder()
	opts := []nr.Option{
		nr.WithNodes(s.Nodes, s.CoresPerNode, 1),
		nr.WithLogEntries(s.LogEntries),
		nr.WithStallThreshold(s.StallThreshold),
	}
	if s.DedicatedCombiners {
		opts = append(opts, nr.WithDedicatedCombiners())
	}
	if rec != nil {
		opts = append(opts, nr.WithFlightRecorderInstance(rec))
	}
	newDS := s.newDS()
	inst, err := nr.NewSharded(
		func() nr.Sequential[Op, Result] { return newDS() },
		shards,
		nr.LogMapperFunc[Op](func(op Op) int {
			if op.Kind == KindSum {
				return nr.CrossLog
			}
			return int(op.Key) % shards
		}),
		opts...)
	if err != nil {
		return nil, fmt.Errorf("chaos: building sharded instance: %w", err)
	}
	defer inst.Close()

	start := time.Now()
	// The shared driver sees that the handle can fan out and spreads Sum
	// across shards; everything else routes by key as usual.
	all, err := runWorkers(s,
		func() (chaosWorker, error) {
			h, err := inst.Register()
			if err != nil {
				return nil, err
			}
			return h, nil
		},
		func(node int) (chaosWorker, error) {
			h, err := inst.RegisterOnNode(node)
			if err != nil {
				return nil, err
			}
			return h, nil
		},
		func() string { return fmt.Sprintf("stats %+v health %+v", inst.Stats(), inst.Health()) })
	if err != nil {
		return nil, err
	}
	inst.Quiesce()

	rep := &ShardedReport{Report: Report{Schedule: s, Elapsed: time.Since(start), Outcomes: all}}
	rep.Fingerprints = make([]uint64, inst.Replicas())
	rep.ShardFingerprints = make([][]uint64, shards)
	for n := range rep.Fingerprints {
		si := 0
		inst.Inspect(n, func(ds nr.Sequential[Op, Result]) { // once per shard, in shard order
			fp := ds.(fingerprinter).Fingerprint()
			rep.ShardFingerprints[si] = append(rep.ShardFingerprints[si], fp)
			rep.Fingerprints[n] += fp
			si++
		})
	}
	rep.Stats = inst.Stats()
	rep.Health = inst.Health()
	if rec != nil {
		rep.TraceDumps = dumps()
		rep.TraceEvents = len(rec.Snapshot().Events())
	}
	return rep, nil
}
