package nr_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	nr "github.com/asplos17/nr"
)

// panickyMap panics on a magic key, deterministically, after mutating.
type panickyMap struct{ seqMap }

func newPanickyMap() nr.Sequential[mapOp, mapResp] {
	return &panickyMap{seqMap{m: make(map[string]int)}}
}

func (p *panickyMap) Execute(op mapOp) mapResp {
	resp := p.seqMap.Execute(op)
	if !op.get && op.key == "kaboom" {
		panic("user bug")
	}
	return resp
}

// TestPublicTryExecuteContainsPanics drives the failure model through the
// public facade: TryExecute reports the contained panic, the instance keeps
// serving, and Health/Stats record it.
func TestPublicTryExecuteContainsPanics(t *testing.T) {
	inst, err := nr.New(newPanickyMap, nr.WithNodes(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.TryExecute(mapOp{key: "a", val: 1}); err != nil {
		t.Fatalf("healthy op: %v", err)
	}
	_, err = h.TryExecute(mapOp{key: "kaboom", val: 2})
	var pe *nr.PanicError
	if !errors.As(err, &pe) || pe.Value != any("user bug") {
		t.Fatalf("want *nr.PanicError carrying the user panic, got %v", err)
	}
	// The instance survived and replicas converged on the pre-panic
	// mutation (the panicking op writes before panicking, on every replica).
	got, err := h.TryExecute(mapOp{get: true, key: "kaboom"})
	if err != nil || !got.ok || got.val != 2 {
		t.Fatalf("read after contained panic: %+v, %v", got, err)
	}
	if health := inst.Health(); health.Poisoned || health.Panics == 0 {
		t.Errorf("health = %+v, want 1+ contained panics and no poison", health)
	}
	if st := inst.Stats(); st.Panics == 0 {
		t.Errorf("stats = %+v, want Panics > 0", st)
	}
}

// TestPublicWatchdog wires Config.StallThreshold through to the core
// watchdog and Health. The slow update is held inside Execute until the
// watchdog has counted the stall, so a watchdog that is scheduled late
// still sees it.
func TestPublicWatchdog(t *testing.T) {
	release := make(chan struct{})
	gated := func() nr.Sequential[mapOp, mapResp] {
		return &gatedMap{seqMap{m: make(map[string]int)}, release}
	}
	inst, err := nr.New(gated, nr.WithNodes(2, 2, 1), nr.WithStallThreshold(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); h.Execute(mapOp{key: "slow", val: 1}) }()
	deadline := time.Now().Add(5 * time.Second)
	for inst.Stats().Stalls == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if st := inst.Stats(); st.Stalls == 0 {
		t.Errorf("watchdog saw no stall: %+v", st)
	}
}

// gatedMap holds every update inside Execute until release is closed.
type gatedMap struct {
	seqMap
	release chan struct{}
}

func (g *gatedMap) Execute(op mapOp) mapResp {
	if !op.get {
		<-g.release
	}
	return g.seqMap.Execute(op)
}

// TestPublicExecutePanicPropagates keeps the classic API honest: Execute
// re-raises the user panic on the caller's goroutine.
func TestPublicExecutePanicPropagates(t *testing.T) {
	inst, err := nr.New(newPanickyMap, nr.WithNodes(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	h, err := inst.Register()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Execute swallowed the user panic")
		}
	}()
	h.Execute(mapOp{key: "kaboom", val: 1})
}
