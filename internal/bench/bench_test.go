package bench

import (
	"strings"
	"testing"

	"github.com/asplos17/nr/internal/sim"
	"github.com/asplos17/nr/internal/topology"
)

// fastConfig shrinks runs so the whole registry stays testable.
func fastConfig() Config {
	return Config{
		Topo:         topology.New(2, 2, 1),
		OpsPerThread: 60,
		Threads:      []int{1, 4},
	}
}

func TestRegistryCoversEveryPaperExperiment(t *testing.T) {
	figs := Figures()
	want := []string{
		"5a", "5b", "5c", "5d", "5e", "5f",
		"6a", "6b", "6c",
		"7a", "7b", "7c", "7d", "7e",
		"8", "9a", "9b", "10a", "10b", "size",
		"11a", "11b", "11c", "12a", "12b", "12c",
		"14", "ext-queue",
	}
	for _, id := range want {
		if _, ok := figs[id]; !ok {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if len(figs) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(figs), len(want))
	}
	ids := IDs()
	if len(ids) != len(figs) {
		t.Errorf("IDs() returned %d ids, want %d", len(ids), len(figs))
	}
}

func TestThreadSweepFiguresProduceSeries(t *testing.T) {
	cfg := fastConfig()
	for _, id := range []string{"5b", "6a", "7c", "8", "9b"} {
		f := Figures()[id]
		series := f.Run(cfg)
		if len(series) == 0 {
			t.Fatalf("figure %s produced no series", id)
		}
		for _, s := range series {
			if len(s.Points) != len(cfg.Threads) {
				t.Errorf("figure %s series %s has %d points, want %d",
					id, s.Method, len(s.Points), len(cfg.Threads))
			}
			for _, p := range s.Points {
				if p.OpsPerUs <= 0 {
					t.Errorf("figure %s series %s: non-positive throughput at x=%d", id, s.Method, p.X)
				}
			}
		}
	}
}

func TestSweepFigures(t *testing.T) {
	cfg := fastConfig()
	// Figure 5e sweeps e; Figure 10 sweeps c; "size" sweeps n. They ignore
	// cfg.Threads (always max threads) but honor the small topology.
	for _, id := range []string{"5e", "10a", "size"} {
		series := Figures()[id].Run(cfg)
		if len(series) == 0 {
			t.Fatalf("figure %s produced no series", id)
		}
		for _, s := range series {
			if len(s.Points) == 0 {
				t.Errorf("figure %s series %s empty", id, s.Method)
			}
		}
	}
}

func TestAblationFigureReportsLosses(t *testing.T) {
	series := Figures()["14"].Run(fastConfig())
	if len(series) != 6 {
		t.Fatalf("ablation produced %d rows, want 6 (full + 5 techniques)", len(series))
	}
	if series[0].Method != "full NR" {
		t.Errorf("first row = %q, want full NR", series[0].Method)
	}
	for _, s := range series {
		if len(s.Points) != 2 {
			t.Errorf("%s has %d points, want 2 (10%% and 100%% updates)", s.Method, len(s.Points))
		}
	}
}

func TestMemoryFigureMeasuresRealImplementation(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates 200K-element replicas")
	}
	series := Figures()["5f"].Run(Config{Topo: topology.New(2, 2, 1)})
	if len(series) != 2 {
		t.Fatalf("memory table has %d rows, want 2", len(series))
	}
	nrMB := series[0].Points[0].OpsPerUs
	otherMB := series[1].Points[0].OpsPerUs
	if nrMB <= otherMB {
		t.Errorf("NR memory (%f MB) not above single-copy (%f MB)", nrMB, otherMB)
	}
	// With 2 replicas plus the log, expect between 2x and 8x.
	if ratio := nrMB / otherMB; ratio < 1.5 || ratio > 10 {
		t.Errorf("NR/single memory ratio %.1f implausible", ratio)
	}
}

func TestPrintAndSummarize(t *testing.T) {
	series := []Series{
		{Method: "NR", Points: []Point{{X: 1, OpsPerUs: 2}, {X: 8, OpsPerUs: 10}}},
		{Method: "SL", Points: []Point{{X: 1, OpsPerUs: 3}, {X: 8, OpsPerUs: 2}}},
	}
	var sb strings.Builder
	Print(&sb, "threads", series)
	out := sb.String()
	for _, want := range []string{"threads", "NR", "SL", "10.00", "2.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("Print output missing %q:\n%s", want, out)
		}
	}
	sum := Summarize(Figure{XLabel: "threads", Unit: "ops/us"}, series)
	if !strings.Contains(sum, "NR=10.00") || !strings.Contains(sum, "5.0x vs SL") {
		t.Errorf("Summarize = %q", sum)
	}
	if Summarize(Figure{}, nil) != "" {
		t.Error("Summarize(nil) non-empty")
	}
	Print(&sb, "x", nil) // must not panic
}

// TestSummarizeLabelsXAndUnit: the summary names the figure's x axis and
// unit, not threads and ops/us whatever the figure plots.
func TestSummarizeLabelsXAndUnit(t *testing.T) {
	figs := Figures()
	cases := []struct {
		id     string
		series []Series
		want   string
	}{
		{"5f", []Series{
			{Method: "NR", Points: []Point{{X: 200000, OpsPerUs: 44}}},
			{Method: "others", Points: []Point{{X: 200000, OpsPerUs: 11}}},
		}, "at items=200000: NR=44.00 MB, 4.0x vs others"},
		{"5c", []Series{
			{Method: "NR", Points: []Point{{X: 1, OpsPerUs: 1}, {X: 112, OpsPerUs: 6}}},
			{Method: "SL", Points: []Point{{X: 1, OpsPerUs: 2}, {X: 112, OpsPerUs: 3}}},
		}, "at threads=112: NR=6.00 ops/us, 2.0x vs SL"},
	}
	for _, c := range cases {
		if got := Summarize(figs[c.id], c.series); got != c.want {
			t.Errorf("Summarize(%s) = %q, want %q", c.id, got, c.want)
		}
	}
}

func TestDefaultSweepHitsNodeBoundaries(t *testing.T) {
	topo := topology.Intel4x14x2()
	sweep := defaultSweep(topo)
	has := func(v int) bool {
		for _, x := range sweep {
			if x == v {
				return true
			}
		}
		return false
	}
	for _, boundary := range []int{1, 28, 56, 84, 112} {
		if !has(boundary) {
			t.Errorf("default sweep %v missing boundary %d", sweep, boundary)
		}
	}
	for i := 1; i < len(sweep); i++ {
		if sweep[i-1] >= sweep[i] {
			t.Errorf("sweep not sorted: %v", sweep)
		}
	}
}

func TestMethodSetUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown method accepted")
		}
	}()
	methodSet("XYZ")
}

// TestSizeShape_NRLeadsBeyondL3 pins §8.2.3's size sweep at its last point:
// at n = 1M lines a shared structure no longer fits one node's L3 while
// NR's per-node replica still pays only its own share, so NR stays on top.
// FC is the best of the others there (results/nrbench_all.txt).
func TestSizeShape_NRLeadsBeyondL3(t *testing.T) {
	cfg := Config{}.withDefaults()
	r := sim.Run{Threads: cfg.Topo.TotalThreads(), OpsPerThread: 100, UpdatePermille: 1000}
	var got [2]float64
	for k, m := range methodSet("NR", "FC") {
		got[k] = m.run(sim.New(cfg.Topo, cfg.Cost), Synthetic(1000000, 8), r).OpsPerUs()
	}
	if got[0] <= got[1] {
		t.Errorf("n=1M: NR %.2f ops/us, FC %.2f; want NR ahead", got[0], got[1])
	}
}
