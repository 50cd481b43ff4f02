// Package waittest holds what the tests of NR's waits share: the spin
// window that pins a wait loop (it yields, never blocks, and does not
// allocate) and a deadline that turns a deadlocked test into a named
// failure with every goroutine's stack.
//
// NR's liveness rests on two rules that Go does not check. A spin wait
// yields on every turn and never parks (§5.2, §5.3): at GOMAXPROCS 1 a wait
// that does not yield keeps the thread it waits on from running until the
// scheduler preempts it, and one that sleeps or blocks on a channel stalls
// every thread behind it. And no path takes a replica's writer lock while
// holding it, or takes a lock out of the order of §5.5 (core.replicaLog):
// such a path deadlocks. Window checks the first rule at each wait loop;
// Deadline makes the tests that reach the second fail at once.
package waittest

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// Yields is how many times a window's holder yields while the waiter waits
// on what it holds. At GOMAXPROCS 1 each yield hands the waiter one turn of
// its wait loop, so the waiter spins about this many times.
const Yields = 10000

// Budget bounds a window's wall time. When the waiter yields, a window
// takes a few milliseconds (under -race too); one that never yields gets
// preempted only every 10 ms or so, and its window would take minutes.
const Budget = 3 * time.Second

// snapshots is how many times a window records every goroutine's state,
// evenly over its yields.
const snapshots = 3

// dumpBytes is the room for one snapshot of every goroutine's stack.
const dumpBytes = 1 << 20

// Window runs wait on a second goroutine at GOMAXPROCS 1 while the caller
// holds what it waits for, yields Yields times, calls release, and returns
// the mallocs of the whole window once wait has returned. It fails t when
// the waiter is not a spin wait:
//   - the waiter is parked — asleep, on a channel, a mutex or a system
//     call — rather than runnable at one of the window's snapshots;
//   - the window outlasts Budget, about 1000 times its length when the
//     waiter yields. Past the budget the holder stops yielding and
//     releases, so a waiter that never yields fails in seconds.
func Window(t testing.TB, wait, release func()) uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var dumps [snapshots][]byte
	for k := range dumps {
		dumps[k] = make([]byte, dumpBytes)
	}
	done := make(chan struct{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	go func() {
		wait()
		close(done)
	}()
	taken, overran := 0, false
	for n := range Yields {
		if taken < snapshots && n == (2*taken+1)*Yields/(2*snapshots) {
			dumps[taken] = dumps[taken][:runtime.Stack(dumps[taken], true)]
			taken++
		}
		if time.Since(start) > Budget {
			overran = true
			break
		}
		runtime.Gosched()
	}
	release()
	select {
	case <-done:
	case <-time.After(Budget):
		t.Errorf("the waiter had not returned %v after its release", Budget)
		return 0
	}
	runtime.ReadMemStats(&after)
	if overran {
		t.Errorf("the waiter held the processor for %v, over the %v budget, before the holder's %d yields were done: a spin wait must yield on every turn", time.Since(start).Round(time.Millisecond), Budget, Yields)
	}
	for _, d := range dumps[:taken] {
		if state, stack := waiter(d); state != "runnable" && state != "running" && state != "preempted" {
			t.Errorf("the waiter was %q during the window, want runnable: a spin wait yields, it never parks\n%s", state, stack)
			break
		}
	}
	return after.Mallocs - before.Mallocs
}

// waiter finds the goroutine Window started in a runtime.Stack dump of all
// goroutines and returns its scheduler state and stack ("" and the whole
// dump when the dump does not hold it).
func waiter(dump []byte) (state string, stack []byte) {
	for _, g := range bytes.Split(dump, []byte("\n\n")) {
		if !bytes.Contains(g, []byte("created by github.com/asplos17/nr/internal/waittest.Window")) {
			continue
		}
		// The header reads "goroutine N [state]:" or "goroutine N [state, 2 minutes]:".
		open, end := bytes.IndexByte(g, '['), bytes.IndexAny(g, ",]")
		if open < 0 || end < open {
			break
		}
		return string(g[open+1 : end]), g
	}
	return "", dump
}

// DeadlineAfter is how long a test under Deadline may run: the slowest
// such test takes well under a second, under -race too.
const DeadlineAfter = 20 * time.Second

// Deadline fails the test binary if t has not finished within
// DeadlineAfter: it panics with t's name and every goroutine's stack. A
// deadlock in t — a lock taken twice or out of order — is then reported
// under t in seconds, not by go test's ten-minute timeout.
func Deadline(t testing.TB) {
	name := t.Name()
	timer := time.AfterFunc(DeadlineAfter, func() {
		buf := make([]byte, 8<<20)
		buf = buf[:runtime.Stack(buf, true)]
		panic(fmt.Sprintf("%s: still running after %v, deadlocked?\n\n%s", name, DeadlineAfter, buf))
	})
	t.Cleanup(func() { timer.Stop() })
}
