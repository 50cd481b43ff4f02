package nr_test

import (
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	nr "github.com/asplos17/nr"
	"github.com/asplos17/nr/internal/ds"
)

// byKey is the tests' key function for nr.KeyMapper: every mapOp has a key.
func byKey(op mapOp) (string, bool) { return op.key, true }

// TestShardedQuickstart exercises the public sharded surface the way a
// downstream user would: KeyMapper over the op's key, concurrent writers,
// per-key reads routed to the owning shard.
func TestShardedQuickstart(t *testing.T) {
	mapper := nr.KeyMapper(4, byKey)
	inst, err := nr.NewSharded(newSeqMap, 4, mapper,
		nr.WithNodes(2, 3, 1), nr.WithLogEntries(256))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if inst.Shards() != 4 {
		t.Errorf("Shards = %d, want 4", inst.Shards())
	}
	if inst.Replicas() != 2 {
		t.Errorf("Replicas = %d, want 2", inst.Replicas())
	}

	const threads, perThread = 4, 300
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			h, err := inst.Register()
			if err != nil {
				t.Errorf("Register: %v", err)
				return
			}
			for i := 0; i < perThread; i++ {
				key := "k" + strconv.Itoa(i%32)
				h.Execute(mapOp{key: key, val: tid*perThread + i})
				if got := h.Execute(mapOp{get: true, key: key}); !got.ok {
					t.Errorf("read back %q: missing", key)
					return
				}
			}
		}(tid)
	}
	wg.Wait()

	h, err := inst.RegisterOnNode(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		key := "k" + strconv.Itoa(i)
		if got := h.Execute(mapOp{get: true, key: key}); !got.ok {
			t.Errorf("final read %q: missing", key)
		}
		// The mapper is a pure function of the key: a read and a write of one
		// key are one class.
		if a, b := mapper.LogIndex(mapOp{key: key}), mapper.LogIndex(mapOp{get: true, key: key}); a != b {
			t.Errorf("mapper unstable for %q: %d vs %d", key, a, b)
		}
	}
}

// TestShardedExecuteAll checks the documented fan-out semantics: one
// response per shard, in shard order.
func TestShardedExecuteAll(t *testing.T) {
	mapper := nr.KeyMapper(3, byKey)
	inst, err := nr.NewSharded(newSeqMap, 3, mapper,
		nr.WithNodes(1, 2, 1), nr.WithLogEntries(128))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	h.Execute(mapOp{key: "solo", val: 7})
	owner := mapper.LogIndex(mapOp{key: "solo"})

	resps := h.ExecuteAll(mapOp{get: true, key: "solo"})
	if len(resps) != 3 {
		t.Fatalf("ExecuteAll returned %d responses, want 3", len(resps))
	}
	for i, r := range resps {
		if r.ok != (i == owner) {
			t.Errorf("shard %d: ok=%v, want %v (owner %d)", i, r.ok, i == owner, owner)
		}
	}
	if _, err := h.TryExecuteAll(mapOp{key: "solo", val: 8}); err != nil {
		t.Errorf("TryExecuteAll on healthy shards: %v", err)
	}
}

// TestShardedMetricsAndTrace checks that WithMetrics gives every shard its
// own observer folded into one aggregate, and that a shared flight recorder
// yields a single snapshot covering ops routed to different shards.
func TestShardedMetricsAndTrace(t *testing.T) {
	inst, err := nr.NewSharded(newSeqMap, 2, nr.KeyMapper(2, byKey),
		nr.WithNodes(1, 2, 1), nr.WithLogEntries(128),
		nr.WithMetrics(), nr.WithFlightRecorder(nr.TraceConfig{RingSlots: 256}))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	const ops = 64
	var reads int
	for i := 0; i < ops; i++ {
		key := "k" + strconv.Itoa(i%16)
		if i%2 == 0 {
			h.Execute(mapOp{key: key, val: i})
		} else {
			h.Execute(mapOp{get: true, key: key})
			reads++
		}
	}

	shards := inst.ShardMetrics()
	if len(shards) != 2 {
		t.Fatalf("ShardMetrics has %d entries, want 2", len(shards))
	}
	agg := inst.Metrics()
	if agg.Observed != nil {
		t.Errorf("folded Observed = %v, want nil (percentiles do not merge)", agg.Observed)
	}
	s := agg.Stats
	if got := s.ReadOps + s.UpdateOps; got != ops {
		t.Errorf("aggregate ReadOps+UpdateOps = %d, want %d", got, ops)
	}
	if s.ReadOps != uint64(reads) {
		t.Errorf("aggregate ReadOps = %d, want %d", s.ReadOps, reads)
	}
	// Per-shard observers are distinct: each shard observed only its own
	// routed traffic, and the observations sum to the whole.
	var obsOps uint64
	for i, ms := range shards {
		if ms.Observed == nil {
			t.Fatalf("shard %d: Observed is nil, want per-shard metrics", i)
		}
		obsOps += ms.Observed.Read.Count + ms.Observed.Update.Count
	}
	if obsOps != ops {
		t.Errorf("per-shard observed ops sum = %d, want %d", obsOps, ops)
	}
	if h := inst.Health(); h.Poisoned {
		t.Errorf("aggregate Health poisoned: %+v", h)
	}

	snap := inst.TraceSnapshot()
	if len(snap.Rings) == 0 {
		t.Fatal("TraceSnapshot has no rings; recorder not shared across shards?")
	}
	spans := nr.ReconstructSpans(snap)
	if len(spans) == 0 {
		t.Fatal("no spans reconstructed from sharded trace")
	}
	if inst.FlightRecorder() == nil {
		t.Error("FlightRecorder() = nil with WithFlightRecorder set")
	}
}

// TestShardedValidation covers constructor error paths.
func TestShardedValidation(t *testing.T) {
	mapper := nr.KeyMapper(2, byKey)
	if _, err := nr.NewSharded[mapOp, mapResp](nil, 2, mapper); err == nil {
		t.Error("nil create accepted")
	}
	if _, err := nr.NewSharded(newSeqMap, 2, nil); err == nil {
		t.Error("nil mapper accepted for two shards")
	}
	if _, err := nr.NewSharded(newSeqMap, 0, mapper); err == nil {
		t.Error("zero shards accepted")
	}
	// One shard is nr.New: no classes to tell apart, so no mapper needed.
	inst, err := nr.NewSharded(newSeqMap, 1, nil, nr.WithNodes(1, 1, 1))
	if err != nil {
		t.Fatalf("one shard, nil mapper: %v", err)
	}
	inst.Close()
}

// TestShardedRefusesPersistence: persistence × shards is refused by the
// constructor (next to persistence × logs) instead of yielding an instance
// that silently writes nothing, and the refusal touches no file.
func TestShardedRefusesPersistence(t *testing.T) {
	dir := t.TempDir()
	inst, err := nr.NewSharded(newKV, 2,
		nr.KeyMapper(2, func(op kvOp) (uint64, bool) { return op.Key, true }),
		nr.WithNodes(1, 2, 1), nr.WithPersistence[kvOp](dir, kvCodec{}))
	if err == nil {
		inst.Close()
		t.Fatal("NewSharded accepted WithPersistence; acknowledged updates would not be durable")
	}
	if !strings.Contains(err.Error(), "cannot be combined with persistence") ||
		!strings.Contains(err.Error(), "ROADMAP item 5") {
		t.Errorf("error = %q, want the persistence refusal citing ROADMAP item 5", err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("refused constructor left %d entries in the directory", len(left))
	}
}

// TestCrossLogOnShardedFailsClosed: an operation the mapper classifies
// CrossLog belongs to no single shard, so Execute / TryExecute refuse it and
// name the call that serves it.
func TestCrossLogOnShardedFailsClosed(t *testing.T) {
	inst := newDict(t, 2, 1, nil)
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	length := ds.DictOp{Kind: ds.DictLen}
	if _, err := h.TryExecute(length); err == nil || !strings.Contains(err.Error(), "ExecuteAll") {
		t.Errorf("TryExecute(CrossLog op) error = %v, want one naming ExecuteAll", err)
	}
	func() {
		defer func() {
			if r, _ := recover().(error); r == nil || !strings.Contains(r.Error(), "ExecuteAll") {
				t.Errorf("Execute(CrossLog op) panicked with %v, want an error naming ExecuteAll", r)
			}
		}()
		h.Execute(length)
	}()
	if got := len(h.ExecuteAll(length)); got != 2 {
		t.Errorf("ExecuteAll returned %d responses, want 2", got)
	}
}

// TestShardedPostAndAbandonRoutes: an abandoned op is posted on the shard
// that owns its class, not on the shard the handle last used.
func TestShardedPostAndAbandonRoutes(t *testing.T) {
	inst := newDict(t, 2, 1, nil) // shard = key mod 2
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	h.Execute(ds.DictOp{Kind: ds.DictInsert, Key: 0, Value: 1})        // shard 0
	h.PostAndAbandon(ds.DictOp{Kind: ds.DictInsert, Key: 1, Value: 2}) // shard 1
	h2, err := inst.RegisterOnNode(h.Node())
	if err != nil {
		t.Fatal(err)
	}
	h2.Execute(ds.DictOp{Kind: ds.DictInsert, Key: 3, Value: 3}) // shard 1's combiner collects the orphan
	got := h2.ExecuteAll(ds.DictOp{Kind: ds.DictLookup, Key: 1})
	if got[0].OK || !got[1].OK || got[1].Value != 2 {
		t.Errorf("abandoned insert of key 1 found on shards %+v, want shard 1 only", got)
	}
}

// newDict builds a partitioned skip-list dictionary over shards private
// replica sets of logs logs each, 2 nodes × 3 threads. Key k belongs to log
// class k mod logs and to shard (k / logs) mod shards, so every shard uses
// every one of its logs; DictLen is CrossLog for both. skew, when non-nil,
// distorts every class the two mappers return (given the class and the
// class count) to play a mapper that breaks the range contract.
func newDict(t *testing.T, shards, logs int, skew func(c, m int) int) *nr.Instance[ds.DictOp, ds.DictResult] {
	t.Helper()
	classOf := func(m, div int) nr.LogMapper[ds.DictOp] {
		return nr.LogMapperFunc[ds.DictOp](func(op ds.DictOp) int {
			if op.Kind == ds.DictLen {
				return nr.CrossLog
			}
			c := int(uint64(op.Key) / uint64(div) % uint64(m))
			if skew != nil {
				c = skew(c, m)
			}
			return c
		})
	}
	inst, err := nr.NewSharded(
		func() nr.Sequential[ds.DictOp, ds.DictResult] { return ds.NewPartitionedDict(logs, 42) },
		shards, classOf(shards, logs),
		nr.WithNodes(2, 3, 1), nr.WithLogEntries(256), nr.WithLogs(logs, classOf(logs, 1)))
	if err != nil {
		t.Fatalf("NewSharded(shards=%d, logs=%d): %v", shards, logs, err)
	}
	t.Cleanup(inst.Close)
	return inst
}

// checkDictAgainstModel is the differential check of the one instance type:
// four goroutines drive inserts, deletes and lookups over disjoint key
// ranges, so every response is determined and is compared with a sequential
// dictionary's; afterwards a fresh handle on the other node must read the
// models' union, the cross-class call must count it, and every node must
// hold each surviving key on exactly one shard.
func checkDictAgainstModel(t *testing.T, inst *nr.Instance[ds.DictOp, ds.DictResult]) {
	t.Helper()
	const threads, perThread, keysPerThread = 4, 400, 16
	models := make([]*ds.SkipListDict, threads)
	var wg sync.WaitGroup
	for tid := range models {
		h, err := inst.Register()
		if err != nil {
			t.Fatalf("Register: %v", err)
		}
		models[tid] = ds.NewSkipListDict(1)
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := uint64(tid)*2654435761 + 1
			for i := 0; i < perThread; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				op := ds.DictOp{
					Kind:  ds.DictOpKind(rng >> 8 % 3), // insert, delete, lookup
					Key:   int64(tid*keysPerThread) + int64(rng%keysPerThread),
					Value: rng,
				}
				if got, want := h.Execute(op), models[tid].Execute(op); got != want {
					t.Errorf("thread %d op %d %+v = %+v, sequential model says %+v", tid, i, op, got, want)
					return
				}
			}
		}(tid)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	h, err := inst.RegisterOnNode(1)
	if err != nil {
		t.Fatal(err)
	}
	var size uint64
	for tid, model := range models {
		size += uint64(model.Len())
		for k := int64(tid * keysPerThread); k < int64((tid+1)*keysPerThread); k++ {
			lookup := ds.DictOp{Kind: ds.DictLookup, Key: k}
			want := model.Execute(lookup)
			if got := h.Execute(lookup); got != want {
				t.Errorf("final lookup(%d) = %+v, model says %+v", k, got, want)
			}
			for node := 0; node < inst.Replicas(); node++ {
				holders := 0
				inst.Inspect(node, func(d nr.Sequential[ds.DictOp, ds.DictResult]) {
					if d.Execute(lookup).OK {
						holders++
					}
				})
				if want.OK != (holders == 1) || holders > 1 {
					t.Errorf("key %d on node %d: held by %d shards, present in model: %v", k, node, holders, want.OK)
				}
			}
		}
	}
	counts := h.ExecuteAll(ds.DictOp{Kind: ds.DictLen})
	if len(counts) != inst.Shards() {
		t.Fatalf("ExecuteAll returned %d responses, want one per shard (%d)", len(counts), inst.Shards())
	}
	var total uint64
	for _, c := range counts {
		total += c.Value
	}
	if total != size {
		t.Errorf("ExecuteAll(len) sums to %d, models hold %d", total, size)
	}
}

// shapes is the product the unified type is checked over: one shard is
// nr.New, one log the classic instance.
var shapes = []struct{ shards, logs int }{{1, 1}, {1, 4}, {4, 1}, {4, 4}}

// TestRoutedOpsMatchSequentialModel runs the differential check over every
// shape with honest mappers.
func TestRoutedOpsMatchSequentialModel(t *testing.T) {
	for _, sh := range shapes {
		t.Run("shards="+strconv.Itoa(sh.shards)+"/logs="+strconv.Itoa(sh.logs), func(t *testing.T) {
			checkDictAgainstModel(t, newDict(t, sh.shards, sh.logs, nil))
		})
	}
}

// TestOutOfRangeClassFolds pins the one policy for a mapper that returns a
// class outside [0, m): both engines fold it as ((c % m) + m) % m. The
// mappers here return the right class displaced by a multiple of m, above
// the range for even classes and below it (past CrossLog) for odd ones; the
// fold lands every op where the honest mapper would have, so the
// differential check must pass unchanged.
func TestOutOfRangeClassFolds(t *testing.T) {
	skew := func(c, m int) int {
		if c%2 == 0 {
			return c + 3*m
		}
		return c - 2*m
	}
	for _, sh := range shapes {
		t.Run("shards="+strconv.Itoa(sh.shards)+"/logs="+strconv.Itoa(sh.logs), func(t *testing.T) {
			checkDictAgainstModel(t, newDict(t, sh.shards, sh.logs, skew))
		})
	}
}

// TestRegistrationMirrorsNodeAcrossShards checks that a handle takes a slot
// on the same node of every shard, for both fill and explicit placement:
// per-node occupancy, read per shard, stays identical until the topology is
// full on every shard at once.
func TestRegistrationMirrorsNodeAcrossShards(t *testing.T) {
	inst := newDict(t, 3, 1, nil) // 2 nodes × 3 slots
	he, err := inst.RegisterOnNode(1)
	if err != nil {
		t.Fatalf("RegisterOnNode: %v", err)
	}
	if he.Node() != 1 {
		t.Fatalf("explicit handle on node %d, want 1", he.Node())
	}
	want := []int{0, 1}
	for i := 0; i < 5; i++ { // fill placement: uses the remaining slots
		h, err := inst.Register()
		if err != nil {
			t.Fatalf("Register #%d: %v", i, err)
		}
		want[h.Node()]++
		if got := h.ExecuteAll(ds.DictOp{Kind: ds.DictLookup, Key: int64(i)}); len(got) != 3 {
			t.Fatalf("handle #%d reaches %d shards, want 3", i, len(got))
		}
	}
	for s, m := range inst.ShardMetrics() {
		for _, r := range m.Replicas {
			if r.Registered != want[r.Node] {
				t.Errorf("shard %d node %d: %d handles registered, want %d (occupancy drifted)", s, r.Node, r.Registered, want[r.Node])
			}
		}
	}
	if _, err := inst.Register(); err == nil {
		t.Error("Register succeeded on a full topology")
	}
}

// TestExecuteAllFansOutPerShard checks the cross-class call on every shape:
// one response per private replica set, and a lookup run through it is
// answered by the owning shard alone.
func TestExecuteAllFansOutPerShard(t *testing.T) {
	for _, sh := range shapes {
		inst := newDict(t, sh.shards, sh.logs, nil)
		h, err := inst.Register()
		if err != nil {
			t.Fatalf("Register: %v", err)
		}
		h.Execute(ds.DictOp{Kind: ds.DictInsert, Key: 6, Value: 99})
		resps := h.ExecuteAll(ds.DictOp{Kind: ds.DictLookup, Key: 6})
		if len(resps) != sh.shards {
			t.Fatalf("%+v: ExecuteAll returned %d responses, want %d", sh, len(resps), sh.shards)
		}
		owner := 6 / sh.logs % sh.shards
		for i, r := range resps {
			if r.OK != (i == owner) {
				t.Errorf("%+v: shard %d: lookup.OK = %v, want %v", sh, i, r.OK, i == owner)
			}
		}
	}
}

// TestAggregateStatsSumShards checks the metrics fold: every Stats counter
// of the aggregate, found by reflection so a new one cannot be forgotten,
// equals the per-shard sum, as do the per-node lock-acquisition gauges, and
// every executed op is counted exactly once.
func TestAggregateStatsSumShards(t *testing.T) {
	const ops = 400
	// Two shards by key, two logs each; deletes are classified CrossLog (always
	// allowed: a cross op is ordered against every class) so that the
	// cross-log counter moves.
	inst, err := nr.NewSharded(
		func() nr.Sequential[ds.DictOp, ds.DictResult] { return ds.NewPartitionedDict(2, 42) },
		2, nr.LogMapperFunc[ds.DictOp](func(op ds.DictOp) int { return int(op.Key / 2 % 2) }),
		nr.WithNodes(2, 1, 1), nr.WithLogEntries(256),
		nr.WithLogs(2, nr.LogMapperFunc[ds.DictOp](func(op ds.DictOp) int {
			if op.Kind == ds.DictDelete {
				return nr.CrossLog
			}
			return int(op.Key % 2)
		})))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	h, err := inst.Register()
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	for i := 0; i < ops; i++ {
		k := int64(i % 16)
		switch {
		case i%8 == 0:
			h.Execute(ds.DictOp{Kind: ds.DictDelete, Key: k})
		case i%4 == 0:
			h.Execute(ds.DictOp{Kind: ds.DictLookup, Key: k})
		default:
			h.Execute(ds.DictOp{Kind: ds.DictInsert, Key: k, Value: uint64(i)})
		}
	}
	shards := inst.ShardMetrics()
	agg := inst.Metrics()
	if len(shards) != 2 {
		t.Fatalf("ShardMetrics has %d entries, want 2", len(shards))
	}
	got := reflect.ValueOf(agg.Stats)
	for f := 0; f < got.NumField(); f++ {
		name := got.Type().Field(f).Name
		var sum uint64
		for _, ms := range shards {
			sum += reflect.ValueOf(ms.Stats).Field(f).Uint()
		}
		if got.Field(f).Uint() != sum {
			t.Errorf("aggregate Stats.%s = %d, want the per-shard sum %d", name, got.Field(f).Uint(), sum)
		}
	}
	if agg.Stats.WriterAcquires == 0 || agg.Stats.CrossOps == 0 {
		t.Errorf("aggregate WriterAcquires = %d, CrossOps = %d after updates and cross-log ops, want both > 0",
			agg.Stats.WriterAcquires, agg.Stats.CrossOps)
	}
	if total := agg.Stats.ReadOps + agg.Stats.UpdateOps; total != ops {
		t.Errorf("ReadOps+UpdateOps = %d, want %d (each op counted once)", total, ops)
	}
	for _, r := range agg.Replicas {
		var readers, writers uint64
		for _, ms := range shards {
			readers += ms.Replicas[r.Node].ReaderAcquires
			writers += ms.Replicas[r.Node].WriterAcquires
		}
		if r.ReaderAcquires != readers || r.WriterAcquires != writers {
			t.Errorf("node %d: folded reader/writer acquires %d/%d, want per-shard sums %d/%d",
				r.Node, r.ReaderAcquires, r.WriterAcquires, readers, writers)
		}
	}
}
