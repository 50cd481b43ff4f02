package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenSnapshot is a fixed snapshot (deterministic timestamps, zero
// WallStart so no volatile metadata) used for the exporter golden test.
func goldenSnapshot() Snapshot {
	rec := New(Config{RingSlots: 64})
	buildSpanFixture(rec)
	g := rec.AcquireRing() // ring 2: instants
	g.RecordAt(210, KHoleWait, 1, 11, 3)
	snap := rec.Snapshot()
	snap.TakenNs = 0
	snap.WallStart = time.Time{}
	return snap
}

func TestWriteChromeTraceGolden(t *testing.T) {
	snap := goldenSnapshot()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, snap); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Chrome export drifted from golden file (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestChromeTraceSchema validates the export against the trace-event
// format's structural requirements, so a Perfetto load cannot fail on
// shape: a top-level traceEvents array whose entries all carry name/ph/pid,
// complete ("X") events a ts and a dur, metadata ("M") events an args.name.
func TestChromeTraceSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("traceEvents empty")
	}
	if doc.Unit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.Unit)
	}
	var spans, metas, instants int
	for i, e := range doc.TraceEvents {
		ph, _ := e["ph"].(string)
		if _, ok := e["name"].(string); !ok {
			t.Fatalf("event %d has no name: %v", i, e)
		}
		if _, ok := e["pid"].(float64); !ok {
			t.Fatalf("event %d has no pid: %v", i, e)
		}
		switch ph {
		case "X":
			spans++
			if _, ok := e["ts"].(float64); !ok {
				t.Fatalf("X event %d has no ts: %v", i, e)
			}
			if _, ok := e["dur"].(float64); !ok {
				t.Fatalf("X event %d has no dur: %v", i, e)
			}
		case "M":
			metas++
			args, ok := e["args"].(map[string]any)
			if !ok {
				t.Fatalf("M event %d has no args: %v", i, e)
			}
			if _, ok := args["name"].(string); !ok {
				t.Fatalf("M event %d args lack a name: %v", i, e)
			}
		case "i":
			instants++
			if s, _ := e["s"].(string); s == "" {
				t.Fatalf("instant %d has no scope: %v", i, e)
			}
		default:
			t.Fatalf("event %d has unexpected ph %q", i, ph)
		}
	}
	if spans == 0 || metas == 0 || instants == 0 {
		t.Fatalf("export missing a section: %d spans, %d metadata, %d instants", spans, metas, instants)
	}
}
