package prom

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/asplos17/nr/internal/core"
	"github.com/asplos17/nr/internal/obs"
	"github.com/asplos17/nr/internal/obs/prom/promtest"
	"github.com/asplos17/nr/internal/obs/tsdb"
)

var update = flag.Bool("update", false, "rewrite the golden exposition file")

// buildExposition renders a fully-populated exposition: server families,
// the unified snapshot with WAL gauges, distribution histograms, and SLO
// status — every family the live /metrics endpoint can emit.
func buildExposition() *Exposition {
	e := New()
	e.Gauge("nrredis_uptime_seconds", "Seconds since the server started.", 125)
	e.Gauge("nrredis_connected_clients", "Currently connected clients.", 3)
	e.Counter("nrredis_connections_total", "Connections accepted since start.", 17)
	e.Counter("nrredis_commands_total", "Commands processed since start.", 1234567)

	m := core.Metrics{
		Stats: core.Stats{
			ReadOps: 1100000, UpdateOps: 140000, Combines: 9000, CombinedOps: 131000,
			ReaderRefreshes: 2500, HelpedEntries: 1200,
			ReaderAcquires: 180000, Panics: 1,
			CrossOps: 450, WriterAcquires: 12000,
		},
		Log: core.LogGauges{Tail: 5000, Completed: 4990, MinTail: 4800, Size: 65536, Occupancy: 0.003},
		Logs: []core.LogGauges{
			{Tail: 3000, Completed: 2995, MinTail: 2900, Size: 32768, Occupancy: 0.003},
			{Tail: 2000, Completed: 1995, MinTail: 1900, Size: 32768, Occupancy: 0.002},
		},
		Replicas: []core.ReplicaGauges{
			{Node: 0, LocalTail: 4995, CompletedLag: 2, Registered: 4, ReaderAcquires: 95000,
				WriterAcquires: 6500, Logs: []core.ReplicaLogGauges{
					{Log: 0, LocalTail: 2998, CompletedLag: 1},
					{Log: 1, LocalTail: 1997, CompletedLag: 1},
				}},
			{Node: 1, LocalTail: 4983, CompletedLag: 7, Registered: 4, ReaderAcquires: 85000,
				WriterAcquires: 5500, Logs: []core.ReplicaLogGauges{
					{Log: 0, LocalTail: 2990, CompletedLag: 5},
					{Log: 1, LocalTail: 1993, CompletedLag: 2},
				}},
		},
		Persist: &core.PersistGauges{
			Appends: 140000, Pages: 3000, Fsyncs: 321, FsyncNanos: 640000000,
			Rotations: 2, DurableIndex: 4978, DurableLag: 12,
		},
	}
	AppendMetrics(e, &m)

	// Distributions through the real observer so bucket placement matches
	// production exactly.
	om := obs.NewMetrics(2)
	for i := 0; i < 900; i++ {
		om.OpDone(0, obs.OpRead, 800*time.Nanosecond)
	}
	for i := 0; i < 90; i++ {
		om.OpDone(1, obs.OpRead, 40*time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		om.OpDone(0, obs.OpRead, 3*time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		om.OpDone(0, obs.OpUpdate, 9*time.Microsecond)
	}
	for i := 0; i < 50; i++ {
		om.CombineEnd(0, 8, 8, time.Microsecond)
		om.CombineEnd(1, 31, 31, 2*time.Microsecond)
	}
	var cum obs.Cum
	om.ReadCum(&cum)
	AppendCum(e, &cum)

	AppendSLO(e, []tsdb.SLOStatus{
		{
			Class: "read", P99Ns: 10000, P999Ns: 100000,
			CurrentP99Ns: 12400, CurrentP999Ns: 93000,
			Breached: true, BreachedWindows: 3, TotalWindows: 60, BudgetBurn: 5,
		},
		{
			Class: "update", P99Ns: 1000000,
			CurrentP99Ns:    51000,
			BreachedWindows: 0, TotalWindows: 60, BudgetBurn: 0,
		},
	})
	return e
}

// TestGoldenExposition pins the full exposition byte-for-byte: metric names
// are a public contract (dashboards reference them), so any drift must be a
// conscious golden update (-update), not an accident.
func TestGoldenExposition(t *testing.T) {
	var b strings.Builder
	if _, err := buildExposition().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden (run with -update if intentional)\ngot:\n%s", got)
	}

	// The golden output must itself satisfy the lint the CI endpoint check
	// uses.
	if err := promtest.Lint(got); err != nil {
		t.Errorf("golden exposition fails lint: %v", err)
	}
}

// TestExpositionCoversSnapshot walks the unified snapshot's field names and
// verifies each surfaced family appears in the exposition — the acceptance
// gate that the endpoint serves every counter/gauge/histogram in the
// unified snapshot.
func TestExpositionCoversSnapshot(t *testing.T) {
	var b strings.Builder
	_, _ = buildExposition().WriteTo(&b)
	text := b.String()
	for _, family := range []string{
		// Stats counters.
		"nr_read_ops_total", "nr_update_ops_total", "nr_combines_total",
		"nr_combined_ops_total", "nr_reader_refreshes_total", "nr_helped_entries_total",
		"nr_reader_acquires_total", "nr_panics_total",
		// Log and health gauges.
		"nr_log_tail", "nr_log_completed", "nr_log_min_tail", "nr_log_size",
		"nr_log_occupancy", "nr_poisoned",
		// Per-replica gauges.
		"nr_replica_local_tail", "nr_replica_completed_lag", "nr_replica_registered",
		"nr_replica_reader_acquires",
		// WAL durability.
		"nr_wal_appends_total", "nr_wal_pages_total", "nr_wal_fsyncs_total",
		"nr_wal_fsync_seconds_total", "nr_wal_rotations_total",
		"nr_wal_durable_index", "nr_wal_durable_lag",
		// Distributions.
		"nr_op_latency_seconds_bucket", "nr_op_latency_seconds_sum", "nr_op_latency_seconds_count",
		"nr_combiner_batch_size_bucket",
		// SLOs.
		"nr_slo_target_p99_seconds", "nr_slo_current_p99_seconds", "nr_slo_breached",
		"nr_slo_breached_windows_total", "nr_slo_windows_total", "nr_slo_budget_burn",
	} {
		if !strings.Contains(text, "\n"+family) && !strings.HasPrefix(text, family) {
			t.Errorf("exposition missing family %s", family)
		}
	}
	if !strings.Contains(text, `nr_op_latency_seconds_bucket{class="read",le="+Inf"} 1000`) {
		t.Errorf("read latency +Inf bucket should count all 1000 observations:\n%s", text)
	}
	if !strings.Contains(text, `nr_replica_completed_lag{node="1"} 7`) {
		t.Errorf("per-node gauge with node label missing")
	}
}

// TestBatchBucketsCountNoRoundBelowItsSize: a round is never counted under
// an `le` bound more than 1.25× below its size. Rounds of 31 ops belong
// under le="32", not le="16"; rounds of 5–7 ops under le="8", not le="4".
func TestBatchBucketsCountNoRoundBelowItsSize(t *testing.T) {
	om := obs.NewMetrics(1)
	for i := 0; i < 10; i++ {
		om.CombineEnd(0, 31, 31, time.Microsecond)
		om.CombineEnd(0, 5+i%3, 5+i%3, time.Microsecond)
	}
	var cum obs.Cum
	om.ReadCum(&cum)
	e := New()
	AppendCum(e, &cum)
	var b strings.Builder
	if _, err := e.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`nr_combiner_batch_size_bucket{le="4"} 0`,
		`nr_combiner_batch_size_bucket{le="8"} 10`,
		`nr_combiner_batch_size_bucket{le="16"} 10`,
		`nr_combiner_batch_size_bucket{le="32"} 20`,
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("exposition lacks %s:\n%s", want, b.String())
		}
	}
}
