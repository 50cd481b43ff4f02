package log

import (
	"testing"
	"unsafe"
)

// TestEntryLayout pins a log cell at its natural size, the op plus the
// 8-byte marker with no pad (see entry for why). The cell NR really logs,
// core's entry with its tag word, is pinned by core's TestEntryLogCell.
func TestEntryLayout(t *testing.T) {
	if size := unsafe.Sizeof(entry[int64]{}); size != 16 {
		t.Errorf("entry[int64] size = %d, want 16 (op 8 + marker 8, unpadded)", size)
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
