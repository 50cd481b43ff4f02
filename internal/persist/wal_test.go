package persist

import (
	"runtime"
	"sync"
	"testing"
)

// The WAL is a plain object its appender drives: opening one starts nothing,
// and a page write, a group fsync and a forced Sync all happen on the
// caller's goroutine. (Not more, rather than the same: an earlier test's
// goroutine may still be on its way out.)
func TestWALStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	w := openTestWAL(t, t.TempDir(), Options{PageBytes: 4096, SegmentBytes: 64 << 10})
	for i := uint64(0); i < 10000; i++ {
		if err := w.Append(i, i, encU64(i)); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	w.Flush()
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutines with a WAL open = %d, want the %d from before Open", got, before)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutines after Close = %d, want %d", got, before)
	}
}

// Sync is a barrier from any goroutine while the appender keeps appending:
// every record appended before the call is durable when it returns.
func TestWALSyncFromAnotherGoroutine(t *testing.T) {
	w := openTestWAL(t, t.TempDir(), Options{PageBytes: 1024, SegmentBytes: 32 << 10})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := w.Append(i, i, encU64(i)); err != nil {
				t.Errorf("Append(%d): %v", i, err)
				return
			}
			if i%64 == 0 {
				w.Flush()
			}
		}
	}()
	for k := 0; k < 100; k++ {
		appended := w.Stats().Appends
		if err := w.Sync(); err != nil {
			t.Fatalf("Sync %d: %v", k, err)
		}
		if got := w.DurableIndex(); got < appended {
			t.Fatalf("Sync %d returned with DurableIndex %d below the %d records appended before it", k, got, appended)
		}
	}
	close(stop)
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
