// Package spinloop holds fixtures for the spinloop analyzer: yield-free
// busy-waits, yield-free continues, and stop-channel discipline for infinite
// background loops.
package spinloop

import (
	"runtime"
	"sync/atomic"
	"time"
)

type flag struct{ v atomic.Uint32 }

//nr:spin
func badSpin(f *flag) {
	for f.v.Load() == 0 { // want "busy-wait loop in //nr:spin function badSpin may spin"
	}
}

//nr:spin
func goodSpin(f *flag) {
	for f.v.Load() == 0 {
		runtime.Gosched()
	}
}

//nr:spin
func badBranch(f *flag) {
	for { // want "busy-wait loop in //nr:spin function badBranch may spin"
		if f.v.Load() != 0 {
			return
		}
	}
}

//nr:spin
func goodBranch(f *flag) {
	for {
		if f.v.Load() != 0 {
			return
		}
		time.Sleep(time.Microsecond)
	}
}

//nr:spin
func badContinue(f *flag) {
	for {
		if f.v.Load() == 0 {
			continue // want "continue reaches the spin-loop head without yielding"
		}
		return
	}
}

func doWork(*worker) {}

type worker struct {
	stop chan struct{}
	v    atomic.Uint64
}

//nr:spin
func (w *worker) runForever() {
	for { // want "infinite loop in //nr:spin method runForever neither checks"
		doWork(w)
	}
}

//nr:spin
func (w *worker) runStoppable() {
	for {
		select {
		case <-w.stop:
			return
		default:
			doWork(w)
		}
	}
}

//nr:spin
func goodChannelWait(f *flag, ch chan struct{}) {
	for f.v.Load() == 0 {
		<-ch
	}
}

// Bounded waits: a thread polling a deadline is spinning on the clock.
// time.Now/Before/Since are spin reads, not work.

//nr:spin
func badDeadline(f *flag, deadline time.Time) {
	for time.Now().Before(deadline) { // want "busy-wait loop in //nr:spin function badDeadline may spin"
		if f.v.Load() != 0 {
			return
		}
	}
}

//nr:spin
func goodDeadline(f *flag, deadline time.Time) {
	for time.Now().Before(deadline) {
		if f.v.Load() != 0 {
			return
		}
		runtime.Gosched()
	}
}

//nr:spin
func badSinceWindow(f *flag, start time.Time, window time.Duration) {
	for time.Since(start) < window { // want "busy-wait loop in //nr:spin function badSinceWindow may spin"
		_ = f.v.Load()
	}
}

//nr:spin
func goodAfterWait(f *flag) {
	for f.v.Load() == 0 {
		<-time.After(time.Microsecond) // the receive yields, not the call
	}
}

func unannotated(f *flag) {
	for f.v.Load() == 0 {
		// not annotated: not checked
	}
}
