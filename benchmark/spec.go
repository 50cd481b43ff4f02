package main

// The names in this file are the benchmark's contract: BENCHMARK.json lists
// exactly these workloads and metrics (spec_test.go compares the two), and
// later issues cite them.

// Data set shared by every workload (paper §8.3).
const (
	zsetKey  = "bench:zset"
	zsetSize = 10000
	// epilogueOps is the fixed update count of the lib-durable recovery
	// epilogue: an exact count, so bytes per op and recovery time compare
	// across commits.
	epilogueOps = 200000
)

type workloadKind uint8

const (
	kindLib workloadKind = iota
	kindObserved
	kindDurable
	kindWire
)

// workloadSpec is one named traffic mix.
type workloadSpec struct {
	name           string
	why            string
	kind           workloadKind
	updatePermille int // share of ZINCRBY among the ops, the rest are ZRANK
	depth          int // commands per flush on the wire workloads
	// groupFsync runs a durable instance at the WAL's default 2ms group
	// fsync. The lib-durable workload itself leaves it off and only a short
	// comparison phase of its traced run turns it on: on the virtual disk
	// this runs on, fdatasync takes 3 to 11 ms from one second to the next
	// and sustained writes depress the CPU for the runs that follow, so the
	// same commit read 43k to 304k ops/s with it on.
	groupFsync bool
}

var workloads = []workloadSpec{
	{
		name:           "lib-mixed",
		why:            "in-process Handle.Execute, 90/10 ZRANK/ZINCRBY, default options: core, rwlock, log and replay with no wire, WAL or observability attached",
		kind:           kindLib,
		updatePermille: 100,
	},
	{
		name:           "lib-observed",
		why:            "the lib-mixed op stream on the keyspace nrredis builds (metrics observer, flight recorder, telemetry): prices obs and trace on identical ops",
		kind:           kindObserved,
		updatePermille: 100,
	},
	{
		name:           "lib-durable",
		why:            "in-process, 100% ZINCRBY with the WAL attached (pages written, fsync left to the traced run): every op pays combiner, log, replay on both replicas and a WAL append",
		kind:           kindDurable,
		updatePermille: 1000,
	},
	{
		name:           "wire-sync",
		why:            "nrredis child process, pipeline depth 1, 90/10: per-request socket, conn-to-worker handoff and flush dominate, core does little",
		kind:           kindWire,
		updatePermille: 100,
		depth:          1,
	},
	{
		name:           "wire-pipelined",
		why:            "same server, pipeline depth 16, 50/50: commands arrive already buffered, so per-command handoff and flush is what batching can remove",
		kind:           kindWire,
		updatePermille: 500,
		depth:          16,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricSpec names one metric. bound is the share of the parent's median by
// which an end-to-end metric may worsen; per-layer metrics carry none.
type metricSpec struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd lists what a caller of the system sees; every workload reports
// every one of them with tracing off.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"mem_mb", "MB", "lower", 0.25},
}

// perLayer lists the traced run's numbers, layer = module name. A metric
// whose layer the workload does not cross reads 0 on that workload.
var perLayer = []metricSpec{
	{name: "env.loopback_rtt_us", unit: "us", better: "lower"},
	{name: "env.spin_ns", unit: "ns", better: "lower"},
	{name: "env.build_s", unit: "s", better: "lower"},
	{name: "workload.gen_ns", unit: "ns", better: "lower"},
	{name: "client.encode_ns", unit: "ns", better: "lower"},
	{name: "client.read_p50_us", unit: "us", better: "lower"},
	{name: "client.read_p99_us", unit: "us", better: "lower"},
	{name: "client.update_p50_us", unit: "us", better: "lower"},
	{name: "client.update_p99_us", unit: "us", better: "lower"},
	{name: "client.req_p50_us", unit: "us", better: "lower"},
	{name: "client.req_p99_us", unit: "us", better: "lower"},
	{name: "client.req_p999_us", unit: "us", better: "lower"},
	{name: "client.req_max_us", unit: "us", better: "lower"},
	{name: "store.read_ns", unit: "ns", better: "lower"},
	{name: "store.update_ns", unit: "ns", better: "lower"},
	{name: "store.execs_per_update", unit: "count", better: "lower"},
	{name: "resp.parse_ns", unit: "ns", better: "lower"},
	{name: "resp.reply_ns", unit: "ns", better: "lower"},
	{name: "resp.allocs_per_cmd", unit: "count", better: "lower"},
	{name: "server.direct_ns", unit: "ns", better: "lower"},
	{name: "server.writes_per_req", unit: "count", better: "lower"},
	{name: "server.reads_per_req", unit: "count", better: "lower"},
	{name: "server.write_us", unit: "us", better: "lower"},
	{name: "server.read_wait_us", unit: "us", better: "lower"},
	{name: "server.handoff_us", unit: "us", better: "lower"},
	{name: "server.rss_mb", unit: "MB", better: "lower"},
	{name: "server.batch_mean", unit: "count", better: "higher"},
	{name: "core.read_ns", unit: "ns", better: "lower"},
	{name: "core.update_ns", unit: "ns", better: "lower"},
	{name: "core.read_self_ns", unit: "ns", better: "lower"},
	{name: "core.update_self_ns", unit: "ns", better: "lower"},
	{name: "core.batch_mean", unit: "count", better: "higher"},
	{name: "core.helped_per_update", unit: "count", better: "lower"},
	{name: "core.reader_refresh_share", unit: "ratio", better: "lower"},
	{name: "core.combine_busy_share", unit: "ratio", better: "lower"},
	{name: "core.allocs_per_op", unit: "count", better: "lower"},
	{name: "core.mem_mb", unit: "MB", better: "lower"},
	{name: "log.append_ns", unit: "ns", better: "lower"},
	{name: "log.tail_retries_per_update", unit: "count", better: "lower"},
	{name: "rwlock.rlock_ns", unit: "ns", better: "lower"},
	{name: "rwlock.wlock_ns", unit: "ns", better: "lower"},
	{name: "rwlock.writer_wait_share", unit: "ratio", better: "lower"},
	{name: "persist.append_self_ns", unit: "ns", better: "lower"},
	{name: "persist.encode_ns", unit: "ns", better: "lower"},
	{name: "persist.fsync_overhead_pct", unit: "%", better: "lower"},
	{name: "persist.ops_per_fsync", unit: "count", better: "higher"},
	{name: "persist.fsync_ms_mean", unit: "ms", better: "lower"},
	{name: "persist.seal_stalls", unit: "count", better: "lower"},
	{name: "persist.durable_lag_ops", unit: "count", better: "lower"},
	{name: "persist.wal_bytes_per_op", unit: "B", better: "lower"},
	{name: "persist.recover_s", unit: "s", better: "lower"},
	{name: "persist.recover_us_per_op", unit: "us", better: "lower"},
	{name: "obs.overhead_pct", unit: "%", better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
}
