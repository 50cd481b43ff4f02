package rwlock

import (
	"testing"
	"unsafe"
)

// TestPaddedLayout pins the per-reader flag at exactly one cache line so a
// []padded strides whole lines (§5.5), the writer flag on a line of its
// own ahead of them, and a line of padding before the writer flag.
func TestPaddedLayout(t *testing.T) {
	if size := unsafe.Sizeof(padded{}); size != 64 {
		t.Errorf("padded size = %d, want 64 (one cache line per reader flag)", size)
	}
	var l Distributed
	if off := unsafe.Offsetof(l.writerAcq); off != 64 {
		t.Errorf("Distributed.writerAcq offset = %d, want 64 (line 0 is padding)", off)
	}
	if off := unsafe.Offsetof(l.readers); off != 128 {
		t.Errorf("Distributed.readers offset = %d, want 128 (writer flag owns line 1)", off)
	}
}

// TestSpinMutexLayout pins the spinlock at one cache line: arrays of
// per-node combiner locks must not false-share.
func TestSpinMutexLayout(t *testing.T) {
	if size := unsafe.Sizeof(SpinMutex{}); size != 64 {
		t.Errorf("SpinMutex size = %d, want 64", size)
	}
}
