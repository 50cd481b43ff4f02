package core

import (
	"strconv"
	"testing"
	"unsafe"
)

// TestSlotLayout pins the combining slot's cache-line discipline (§5.2) at
// the layout the hand-computed pad was sized for: the protocol word (state)
// and the response word (resp) on distinct 64-byte lines, with exact
// offsets on 64-bit targets so any field insertion or resize shows up as a
// diff, not a mystery slowdown.
func TestSlotLayout(t *testing.T) {
	var s slot[int64, int64]
	stateOff := unsafe.Offsetof(s.state)
	respOff := unsafe.Offsetof(s.resp)
	if stateOff/64 == respOff/64 {
		t.Errorf("slot.state (offset %d) and slot.resp (offset %d) share a 64-byte cache line", stateOff, respOff)
	}
	if strconv.IntSize != 64 {
		return
	}
	if stateOff != 16 {
		t.Errorf("slot.state offset = %d, want 16 (op 0-8, seq 8-12, class 12-16)", stateOff)
	}
	if respOff != 72 {
		t.Errorf("slot.resp offset = %d, want 72 (state's line padded out at 20-72)", respOff)
	}
	if size := unsafe.Sizeof(s); size != 96 {
		t.Errorf("slot[int64,int64] size = %d, want 96 (resp 72-80, err 80-96)", size)
	}
}

// TestReplicaCountersLayout pins the node-local op counters (opCounters) to
// one cache line of their own inside the replica: a full line of padding on
// either side, so no field every node reads can share their line whatever
// the struct's base alignment.
func TestReplicaCountersLayout(t *testing.T) {
	var r replica[int64, int64]
	if size := unsafe.Sizeof(r.counters); size != 64 {
		t.Errorf("opCounters size = %d, want 64", size)
	}
	off := unsafe.Offsetof(r.counters)
	if before := unsafe.Offsetof(r.registered) + unsafe.Sizeof(r.registered); off < before+64 {
		t.Errorf("replica.counters at offset %d, less than a line after registered (ends at %d)", off, before)
	}
	if end := off + unsafe.Sizeof(r.counters); unsafe.Sizeof(r) < end+64 {
		t.Errorf("replica ends %d bytes after its counters, want >= 64", unsafe.Sizeof(r)-end)
	}
}
