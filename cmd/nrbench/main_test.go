package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSweepsSmoke runs the measured mode end to end at its smallest useful
// size and checks the -json document's shape: both sweeps under their keys,
// one point per requested count in order, every point a median of
// sweepRounds rounds that did work.
func TestSweepsSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweeps.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-shards", "1,2", "-logs", "1,2", "-threads", "2", "-dur", "30ms", "-json", path}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d\nstdout:\n%s\nstderr:\n%s", args, code, &stdout, &stderr)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("%v\n%s", err, buf)
	}
	for key, countKey := range map[string]string{"shard_sweep": "shards", "log_sweep": "logs"} {
		raw, ok := doc[key]
		if !ok {
			t.Errorf("document has no %q key:\n%s", key, buf)
			continue
		}
		var rep struct {
			Rounds    int              `json:"rounds"`
			ReadPct   int              `json:"read_pct"`
			Points    []map[string]any `json:"points"`
			Speedup4x *float64         `json:"speedup_4x"`
		}
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if rep.Rounds != sweepRounds || rep.ReadPct != sweepReadPct {
			t.Errorf("%s: rounds=%d read_pct=%d, want %d and %d", key, rep.Rounds, rep.ReadPct, sweepRounds, sweepReadPct)
		}
		if rep.Speedup4x == nil {
			t.Errorf("%s: no speedup_4x key", key)
		} else if *rep.Speedup4x != 0 {
			t.Errorf("%s: speedup_4x = %v with no count 4 in the list, want 0", key, *rep.Speedup4x)
		}
		if len(rep.Points) != 2 {
			t.Fatalf("%s: %d points, want 2", key, len(rep.Points))
		}
		for i, pt := range rep.Points {
			if got, _ := pt[countKey].(float64); int(got) != i+1 {
				t.Errorf("%s point %d: %s = %v, want %d", key, i, countKey, pt[countKey], i+1)
			}
			if ops, _ := pt["total_ops"].(float64); ops <= 0 {
				t.Errorf("%s point %d: total_ops = %v, want > 0", key, i, pt["total_ops"])
			}
			if tput, _ := pt["throughput_ops_per_sec"].(float64); tput <= 0 {
				t.Errorf("%s point %d: throughput_ops_per_sec = %v, want > 0", key, i, pt["throughput_ops_per_sec"])
			}
		}
	}
}

// TestSpeedup4x: with counts 1 and 4 both in the list the report carries
// their throughput ratio.
func TestSpeedup4x(t *testing.T) {
	var out bytes.Buffer
	rep, err := logSweep.run(&out, []int{4, 1}, 2, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	want := rep.Points[0].ThroughputOpsS / rep.Points[1].ThroughputOpsS
	if rep.Speedup4x != want || want <= 0 {
		t.Errorf("speedup_4x = %v, want %v (4-log over 1-log throughput)", rep.Speedup4x, want)
	}
}

func TestParseCounts(t *testing.T) {
	got, err := parseCounts("shards", "1, 2,8")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 8 {
		t.Errorf(`parseCounts("1, 2,8") = %v, %v, want [1 2 8]`, got, err)
	}
	if got, err := parseCounts("shards", ""); err != nil || got != nil {
		t.Errorf(`parseCounts("") = %v, %v, want no counts`, got, err)
	}
	for _, bad := range []string{"0", "-1", "x", "1,,2", "1,", "1.5"} {
		if got, err := parseCounts("logs", bad); err == nil || !strings.Contains(err.Error(), "-logs") {
			t.Errorf("parseCounts(%q) = %v, %v, want an error naming -logs", bad, got, err)
		}
	}
}

// TestRetiredFlags: the flags of the real-implementation arms that
// benchmark/ replaced are gone, not silently accepted.
func TestRetiredFlags(t *testing.T) {
	for _, name := range []string{"real", "tracecmp", "persistcmp", "obscmp", "readpct"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-" + name}, &stdout, &stderr); code != 2 {
			t.Errorf("nrbench -%s: exit %d, want 2", name, code)
		}
		if want := "flag provided but not defined: -" + name; !strings.Contains(stderr.String(), want) {
			t.Errorf("nrbench -%s: stderr %q does not contain %q", name, &stderr, want)
		}
	}
}

// TestUsageErrors: a bad list, duration or experiment id is refused before
// anything runs.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-shards 1,0", `bad count "0" in -shards`},
		{"-logs x", `bad count "x" in -logs`},
		{"-shards 1 -dur 0s", "-dur must be positive"},
		{"-fig nope", `unknown experiment "nope"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(tc.args), &stdout, &stderr); code != 2 {
			t.Errorf("nrbench %s: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("nrbench %s: stderr %q does not contain %q", tc.args, &stderr, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("nrbench %s: wrote to stdout: %q", tc.args, &stdout)
		}
	}
}

// TestFigureMode: the simulator path still lists and runs an experiment.
func TestFigureMode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "5b ") {
		t.Fatalf("-list: exit %d, stdout %q, stderr %q", code, &stdout, &stderr)
	}
	stdout.Reset()
	if code := run([]string{"-fig", "5b", "-ops", "50"}, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "=== Figure 5b:") {
		t.Fatalf("-fig 5b: exit %d, stdout %q, stderr %q", code, &stdout, &stderr)
	}
}
