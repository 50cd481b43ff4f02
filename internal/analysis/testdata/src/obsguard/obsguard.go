// Package obsguard holds fixtures for the obsguard analyzer: calls through
// the real obs.Observer interface and a //nr:nilguard hook field, in guarded
// and unguarded shapes.
package obsguard

import (
	"time"

	"github.com/asplos17/nr/internal/obs"
)

type server struct {
	observer obs.Observer
	//nr:nilguard
	onEvent func(n int)
}

func (s *server) unguarded() {
	s.observer.WriterWait(0, 1) // want "call through possibly-nil observer s.observer"
}

func (s *server) guarded() {
	if s.observer != nil {
		s.observer.WriterWait(0, 1)
	}
}

func (s *server) earlyReturn() {
	if s.observer == nil {
		return
	}
	s.observer.CombineEnd(0, 1, 1, time.Millisecond)
}

func (s *server) scoped() {
	if o := s.observer; o != nil {
		o.Help(0, 3)
	}
}

func (s *server) andChain(n int) {
	if n > 0 && s.observer != nil {
		s.observer.LogTailRetry(0, n)
	}
}

func (s *server) invalidated(other obs.Observer) {
	if s.observer != nil {
		s.observer = other
		s.observer.WriterWait(0, 1) // want "call through possibly-nil observer s.observer"
	}
}

func (s *server) wrongGuard(other obs.Observer) {
	if other != nil {
		s.observer.WriterWait(0, 1) // want "call through possibly-nil observer s.observer"
	}
}

func (s *server) loopInvalidated(others []obs.Observer) {
	if s.observer != nil {
		for _, o := range others {
			s.observer.Stall(0, time.Second) // want "call through possibly-nil observer s.observer"
			s.observer = o
		}
	}
}

func (s *server) closure() {
	if s.observer != nil {
		f := func() { s.observer.ReaderRefresh(0, 1) }
		f()
	}
}

func (s *server) hook() {
	s.onEvent(1) // want "call through possibly-nil //nr:nilguard hook s.onEvent"
}

func (s *server) hookGuarded(n int) {
	if n > 0 && s.onEvent != nil {
		s.onEvent(n)
	}
}

func (s *server) suppressed() {
	s.observer.Stall(0, time.Second) //nr:guarded — set unconditionally by the harness
}

func plainFuncValue(f func(int)) {
	f(1) // a bare parameter, not a //nr:nilguard field: not checked
}
