package main

import (
	"encoding/json"
	"io"
	"time"
)

// Spans are recorded from the benchmark's own files around calls into each
// layer's public functions; spans inside the program are a later issue.
// A span names its layer boundary, its start and end, the kind of span that
// caused it, and the request it belongs to (thread and per-thread sequence
// number), so the spans of one request share an identifier.

type spanKind uint8

const (
	spanNone         spanKind = iota
	spanHandleRead            // around Handle.Execute of a ZRANK
	spanHandleUpdate          // around Handle.Execute of a ZINCRBY
	spanStoreRead             // inside the Sequential wrapper: Store.Execute of a read op
	spanStoreUpdate           // inside the Sequential wrapper: Store.Execute of an update op
	spanRequest               // wire client: request sent to last reply validated
	spanServerRead            // server side of a connection: inside conn.Read
	spanServerWrite           // server side of a connection: inside conn.Write
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"", "core.Handle.Execute[read]", "core.Handle.Execute[update]",
	"miniredis.Store.Execute[read]", "miniredis.Store.Execute[update]",
	"client.request", "miniredis.Server conn.Read", "miniredis.Server conn.Write",
}

type span struct {
	kind, parent spanKind
	request      uint64 // thread<<48 | sequence number
	start, end   int64  // ns since the benchmark's epoch
}

// spanLog belongs to one goroutine (or to one replica, whose writers are
// exclusive): a ring of the most recent spans plus exact totals per
// (kind, parent kind), so a long traced run stays in bounded memory.
type spanLog struct {
	ring  []span
	next  int
	count [numSpanKinds][numSpanKinds]int64
	ns    [numSpanKinds][numSpanKinds]int64
	_     [64]byte // logs sit in a slice; keep neighbours off this line
}

const spanRingSize = 1 << 14

func newSpanLog() *spanLog { return &spanLog{ring: make([]span, spanRingSize)} }

func (l *spanLog) add(kind, parent spanKind, request uint64, start, end int64) {
	l.ring[l.next&(spanRingSize-1)] = span{kind, parent, request, start, end}
	l.next++
	l.count[kind][parent]++
	l.ns[kind][parent] += end - start
}

// epoch anchors span timestamps; time.Since on it reads the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// spanTotals sums a kind over every log: how many spans and their time.
func spanTotals(logs []*spanLog, kind spanKind) (count, ns int64) {
	for _, l := range logs {
		for p := range l.count[kind] {
			count += l.count[kind][p]
			ns += l.ns[kind][p]
		}
	}
	return count, ns
}

// childNs is the part of kind's spans that spans it caused cover.
func childNs(logs []*spanLog, kind spanKind) int64 {
	var ns int64
	for _, l := range logs {
		for k := range l.ns {
			ns += l.ns[k][kind]
		}
	}
	return ns
}

// selfNsPerSpan is a layer's self time: its spans' duration minus what its
// child spans cover, per span of that kind.
func selfNsPerSpan(logs []*spanLog, kind spanKind) float64 {
	count, total := spanTotals(logs, kind)
	if count == 0 {
		return 0
	}
	return float64(total-childNs(logs, kind)) / float64(count)
}

func meanNsPerSpan(logs []*spanLog, kind spanKind) float64 {
	count, total := spanTotals(logs, kind)
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}

// writeSpans dumps the retained spans as JSON lines, oldest first per log.
func writeSpans(w io.Writer, logs []*spanLog) error {
	enc := json.NewEncoder(w)
	for li, l := range logs {
		first := max(0, l.next-spanRingSize)
		for i := first; i < l.next; i++ {
			s := l.ring[i&(spanRingSize-1)]
			err := enc.Encode(map[string]any{
				"log": li, "name": spanNames[s.kind], "caused_by": spanNames[s.parent],
				"thread": s.request >> 48, "seq": s.request & (1<<48 - 1),
				"start_ns": s.start, "end_ns": s.end,
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}
