package log

import (
	"testing"
	"unsafe"
)

// TestEntryLayout pins one log cell to exactly one cache line at int64, so
// concurrent Fill/Get on adjacent entries never false-share.
func TestEntryLayout(t *testing.T) {
	if size := unsafe.Sizeof(entry[int64]{}); size != 64 {
		t.Errorf("entry[int64] size = %d, want 64 (one cache line per log cell)", size)
	}
}

// TestLogLayout pins the three shared counters every node's combiner and
// replayers hammer (§5.1, §5.3, §5.6) to distinct 64-byte lines, and keeps
// the replica list off the last of them.
func TestLogLayout(t *testing.T) {
	var l Log[int64]
	line := func(off uintptr) uintptr { return off / 64 }
	tail, completed, min := unsafe.Offsetof(l.tail), unsafe.Offsetof(l.completed), unsafe.Offsetof(l.min)
	if line(tail) == line(completed) || line(completed) == line(min) || line(tail) == line(min) {
		t.Errorf("Log.tail (offset %d), completed (%d) and min (%d) do not sit on three distinct 64-byte lines", tail, completed, min)
	}
	if lt := unsafe.Offsetof(l.localTails); line(lt) <= line(min) {
		t.Errorf("Log.localTails (offset %d) is not on a later 64-byte line than min (%d)", lt, min)
	}
}
