package waittest

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// recorder is a testing.TB that keeps Window's failures instead of
// reporting them.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// TestWindowTellsYieldingFromParked pins both verdicts of Window's
// snapshot: a waiter that yields passes, one that sleeps fails.
func TestWindowTellsYieldingFromParked(t *testing.T) {
	for _, tc := range []struct {
		name  string
		yield func()
		fails bool
	}{
		{"yields", runtime.Gosched, false},
		{"sleeps", func() { time.Sleep(time.Microsecond) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var held atomic.Bool
			held.Store(true)
			r := &recorder{TB: t}
			Window(r, func() {
				for held.Load() {
					tc.yield()
				}
			}, func() { held.Store(false) })
			if failed := len(r.errs) > 0; failed != tc.fails {
				t.Errorf("Window failed = %v, want %v: %q", failed, tc.fails, r.errs)
			}
		})
	}
}
