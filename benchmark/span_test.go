package main

import (
	"bytes"
	"strings"
	"testing"
)

// A layer's self time is its spans' duration minus what the spans it
// caused cover, wherever those child spans were logged.
func TestSpanSelfTime(t *testing.T) {
	client, replica := newSpanLog(), newSpanLog()
	// Two reads of 100ns, each running its own Store.Execute for 30ns; one
	// of them also refreshes the replica with a 20ns update.
	client.add(spanHandleRead, spanNone, 1, 0, 100)
	client.add(spanStoreRead, spanHandleRead, 1, 10, 40)
	client.add(spanHandleRead, spanNone, 2, 100, 200)
	client.add(spanStoreRead, spanHandleRead, 2, 110, 140)
	replica.add(spanStoreUpdate, spanHandleRead, 2, 150, 170)
	// One update of 500ns combining two ops of 100ns each.
	client.add(spanHandleUpdate, spanNone, 3, 200, 700)
	replica.add(spanStoreUpdate, spanHandleUpdate, 3, 300, 400)
	replica.add(spanStoreUpdate, spanHandleUpdate, 3, 400, 500)
	// A helper from the other node: no span on this node caused it.
	replica.add(spanStoreUpdate, spanNone, 0, 800, 850)
	logs := []*spanLog{client, replica}

	if got := selfNsPerSpan(logs, spanHandleRead); got != 60 {
		t.Errorf("read self = %v ns, want (200-60-20)/2 = 60", got)
	}
	if got := selfNsPerSpan(logs, spanHandleUpdate); got != 300 {
		t.Errorf("update self = %v ns, want 500-200 = 300", got)
	}
	if got := meanNsPerSpan(logs, spanHandleUpdate); got != 500 {
		t.Errorf("update mean = %v ns, want 500", got)
	}
	if n, ns := spanTotals(logs, spanStoreUpdate); n != 4 || ns != 270 {
		t.Errorf("store update totals = %d spans, %d ns, want 4 and 270", n, ns)
	}
	if got := selfNsPerSpan(logs, spanRequest); got != 0 {
		t.Errorf("self time of a kind never recorded = %v", got)
	}
}

// The ring keeps only the latest spans; the totals keep counting.
func TestSpanRingOverwritesTotalsDoNot(t *testing.T) {
	l := newSpanLog()
	const n = spanRingSize + 10
	for i := int64(0); i < n; i++ {
		l.add(spanRequest, spanNone, uint64(2)<<48|uint64(i), i, i+2)
	}
	if count, ns := spanTotals([]*spanLog{l}, spanRequest); count != n || ns != 2*n {
		t.Fatalf("totals = %d spans, %d ns, want %d and %d", count, ns, n, 2*n)
	}
	var buf bytes.Buffer
	if err := writeSpans(&buf, []*spanLog{l}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != spanRingSize {
		t.Fatalf("dumped %d spans, want the ring's %d", len(lines), spanRingSize)
	}
	if !strings.Contains(lines[0], `"seq":10,`) || !strings.Contains(lines[0], `"thread":2`) ||
		!strings.Contains(lines[0], `"name":"client.request"`) {
		t.Fatalf("oldest retained span = %s, want seq 10 of thread 2", lines[0])
	}
}
