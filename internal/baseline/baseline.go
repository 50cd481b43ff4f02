// Package baseline implements the comparison methods of Fig. 4, each turning
// one shared sequential structure into a concurrent one:
//
//	SL   — one big spinlock
//	RWL  — one big readers-writer lock (the paper uses the same distributed
//	       lock as NR §5.5)
//	FC   — flat combining [30]: one global combiner serves everyone
//	FC+  — flat combining for updates plus a readers-writer lock so
//	       read-only operations run in parallel on the structure
//
// All methods implement the same Shared interface, so nrredis (-method
// sl|rwl|fc|fc+) drives any of them where it would drive NR.
package baseline

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/asplos17/nr/internal/core"
	"github.com/asplos17/nr/internal/rwlock"
)

// Executor runs operations on behalf of one registered thread. Executors
// must not be shared between goroutines.
type Executor[O, R any] interface {
	Execute(op O) R //nr:opaque black-box boundary (benchmarked structure)
}

// Shared is a concurrent data structure that threads register with.
type Shared[O, R any] interface {
	Register() (Executor[O, R], error) //nr:opaque
}

// SpinLocked is SL: every operation takes one global spinlock.
type SpinLocked[O, R any] struct {
	mu rwlock.SpinMutex
	ds core.Sequential[O, R]
}

// NewSpinLocked wraps ds behind a single spinlock.
func NewSpinLocked[O, R any](ds core.Sequential[O, R]) *SpinLocked[O, R] {
	return &SpinLocked[O, R]{ds: ds}
}

// Register returns an executor; SL has no per-thread state.
func (s *SpinLocked[O, R]) Register() (Executor[O, R], error) { return s, nil }

// Execute runs op under the global lock.
func (s *SpinLocked[O, R]) Execute(op O) R {
	s.mu.Lock()
	resp := s.ds.Execute(op)
	s.mu.Unlock()
	return resp
}

// RWLocked is RWL: one big readers-writer lock; read-only operations share
// the lock, updates take it exclusively.
type RWLocked[O, R any] struct {
	mu       sync.Mutex // guards registration
	nextSlot int
	lock     *rwlock.Distributed
	ds       core.Sequential[O, R]
}

// NewRWLocked wraps ds behind one distributed readers-writer lock with the
// given number of reader slots (one per thread).
func NewRWLocked[O, R any](ds core.Sequential[O, R], maxThreads int) *RWLocked[O, R] {
	return &RWLocked[O, R]{lock: rwlock.NewDistributed(maxThreads), ds: ds}
}

type rwlExecutor[O, R any] struct {
	parent *RWLocked[O, R]
	slot   int
}

// Register assigns the caller a reader slot.
func (r *RWLocked[O, R]) Register() (Executor[O, R], error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nextSlot >= r.lock.Slots() {
		return nil, fmt.Errorf("baseline: all %d RWL slots registered", r.lock.Slots())
	}
	e := &rwlExecutor[O, R]{parent: r, slot: r.nextSlot}
	r.nextSlot++
	return e, nil
}

// Execute runs op under the lock in the appropriate mode.
func (e *rwlExecutor[O, R]) Execute(op O) R {
	p := e.parent
	if p.ds.IsReadOnly(op) {
		p.lock.RLock(e.slot)
		resp := p.ds.Execute(op)
		p.lock.RUnlock(e.slot)
		return resp
	}
	p.lock.Lock()
	resp := p.ds.Execute(op)
	p.lock.Unlock()
	return resp
}

// slot states shared by the flat-combining variants.
const (
	fcEmpty uint32 = iota
	fcPosted
	fcTaken
	fcDone
)

type fcSlot[O, R any] struct {
	op    O
	state atomic.Uint32
	_     [60]byte
	resp  R
}

// FlatCombining is FC: one publication slot per thread and a single global
// combiner that executes everyone's operations, reads included [30].
type FlatCombining[O, R any] struct {
	mu       sync.Mutex // guards registration
	nextSlot int
	lock     rwlock.SpinMutex
	slots    []fcSlot[O, R]
	ds       core.Sequential[O, R]

	combines    atomic.Uint64
	combinedOps atomic.Uint64
}

// NewFlatCombining wraps ds with flat combining for up to maxThreads threads.
func NewFlatCombining[O, R any](ds core.Sequential[O, R], maxThreads int) *FlatCombining[O, R] {
	if maxThreads < 1 {
		maxThreads = 1
	}
	return &FlatCombining[O, R]{slots: make([]fcSlot[O, R], maxThreads), ds: ds}
}

type fcExecutor[O, R any] struct {
	parent *FlatCombining[O, R]
	slot   int
}

// Register assigns the caller a publication slot.
func (f *FlatCombining[O, R]) Register() (Executor[O, R], error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.nextSlot >= len(f.slots) {
		return nil, errors.New("baseline: all FC slots registered")
	}
	e := &fcExecutor[O, R]{parent: f, slot: f.nextSlot}
	f.nextSlot++
	return e, nil
}

// Stats returns (combining rounds, operations combined).
func (f *FlatCombining[O, R]) Stats() (combines, ops uint64) {
	return f.combines.Load(), f.combinedOps.Load()
}

// Execute posts op and waits for a combiner (possibly itself) to run it.
func (e *fcExecutor[O, R]) Execute(op O) R {
	f := e.parent
	s := &f.slots[e.slot]
	s.op = op
	s.state.Store(fcPosted)
	for {
		if s.state.Load() == fcDone {
			resp := s.resp
			s.state.Store(fcEmpty)
			return resp
		}
		if f.lock.TryLock() {
			if s.state.Load() != fcDone {
				f.combineRound()
			}
			f.lock.Unlock()
			resp := s.resp
			s.state.Store(fcEmpty)
			return resp
		}
		runtime.Gosched()
	}
}

// combineRound serves every posted slot. Caller holds the combiner lock.
func (f *FlatCombining[O, R]) combineRound() {
	served := uint64(0)
	for i := range f.slots {
		s := &f.slots[i]
		if s.state.Load() == fcPosted && s.state.CompareAndSwap(fcPosted, fcTaken) {
			s.resp = f.ds.Execute(s.op)
			s.state.Store(fcDone)
			served++
		}
	}
	if served > 0 {
		f.combines.Add(1)
		f.combinedOps.Add(served)
	}
}

// FlatCombiningPlus is FC+: updates go through flat combining while the
// combiner holds a readers-writer lock in write mode; read-only operations
// take the lock in read mode and run directly, in parallel.
type FlatCombiningPlus[O, R any] struct {
	mu       sync.Mutex
	nextSlot int
	lock     rwlock.SpinMutex
	rw       *rwlock.Distributed
	slots    []fcSlot[O, R]
	ds       core.Sequential[O, R]
}

// NewFlatCombiningPlus wraps ds with FC+ for up to maxThreads threads.
func NewFlatCombiningPlus[O, R any](ds core.Sequential[O, R], maxThreads int) *FlatCombiningPlus[O, R] {
	if maxThreads < 1 {
		maxThreads = 1
	}
	return &FlatCombiningPlus[O, R]{
		rw:    rwlock.NewDistributed(maxThreads),
		slots: make([]fcSlot[O, R], maxThreads),
		ds:    ds,
	}
}

type fcpExecutor[O, R any] struct {
	parent *FlatCombiningPlus[O, R]
	slot   int
}

// Register assigns the caller a publication slot and reader-lock slot.
func (f *FlatCombiningPlus[O, R]) Register() (Executor[O, R], error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.nextSlot >= len(f.slots) {
		return nil, errors.New("baseline: all FC+ slots registered")
	}
	e := &fcpExecutor[O, R]{parent: f, slot: f.nextSlot}
	f.nextSlot++
	return e, nil
}

// Execute runs reads under the read lock and posts updates for combining.
func (e *fcpExecutor[O, R]) Execute(op O) R {
	f := e.parent
	if f.ds.IsReadOnly(op) {
		f.rw.RLock(e.slot)
		resp := f.ds.Execute(op)
		f.rw.RUnlock(e.slot)
		return resp
	}
	s := &f.slots[e.slot]
	s.op = op
	s.state.Store(fcPosted)
	for {
		if s.state.Load() == fcDone {
			resp := s.resp
			s.state.Store(fcEmpty)
			return resp
		}
		if f.lock.TryLock() {
			if s.state.Load() != fcDone {
				f.combineRound()
			}
			f.lock.Unlock()
			resp := s.resp
			s.state.Store(fcEmpty)
			return resp
		}
		runtime.Gosched()
	}
}

// combineRound serves posted updates under the writer lock.
func (f *FlatCombiningPlus[O, R]) combineRound() {
	var batch []*fcSlot[O, R]
	for i := range f.slots {
		s := &f.slots[i]
		if s.state.Load() == fcPosted && s.state.CompareAndSwap(fcPosted, fcTaken) {
			batch = append(batch, s)
		}
	}
	if len(batch) == 0 {
		return
	}
	f.rw.Lock()
	for _, s := range batch {
		s.resp = f.ds.Execute(s.op)
		s.state.Store(fcDone)
	}
	f.rw.Unlock()
}
