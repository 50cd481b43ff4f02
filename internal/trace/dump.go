package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// AutoDump persists a snapshot because the protocol detected a failure
// (reason is "panic", "poisoned", or "slo-breach-<class>"). It is
// rate-limited by Config.DumpMinInterval and a no-op when neither DumpDir
// nor OnDump is configured, so hot failure paths can call it
// unconditionally. File dumps
// are Chrome trace JSON, directly loadable in Perfetto.
//
// AutoDump is the one sanctioned escape from the hot-path contracts: it
// runs only after the protocol has already failed (an op panicked or the
// instance is poisoned), where forensics beat latency. Blocking, allocating,
// and file I/O are all deliberate here, which is why it lives in this file,
// the one non-test file of the hot-path packages that may import os (make
// tier1 checks the rest).
func (r *Recorder) AutoDump(reason string) {
	if r == nil || (r.cfg.DumpDir == "" && r.cfg.OnDump == nil) {
		return
	}
	now := time.Now().UnixNano()
	last := r.lastDump.Load()
	if min := r.cfg.minInterval(); min > 0 && now-last < int64(min) {
		return
	}
	if !r.lastDump.CompareAndSwap(last, now) {
		return // another failure path is dumping right now
	}
	snap := r.Snapshot()
	if r.cfg.OnDump != nil {
		r.cfg.OnDump(reason, snap)
	}
	if r.cfg.DumpDir != "" {
		n := r.dumpSeq.Add(1)
		path := filepath.Join(r.cfg.DumpDir, fmt.Sprintf("nrtrace-%s-%d.json", reason, n))
		writeDumpAtomic(path, snap)
	}
}

// writeDumpAtomic writes a dump via temp file + rename so a crash mid-dump
// (the black box is written precisely when the process is dying) never
// leaves a torn nrtrace-*.json for post-mortem tooling to choke on.
func writeDumpAtomic(path string, snap Snapshot) {
	f, err := os.CreateTemp(filepath.Dir(path), ".nrtrace-*.tmp")
	if err != nil {
		return
	}
	if err := WriteChromeTrace(f, snap); err == nil {
		err = f.Close()
		if err == nil {
			err = os.Rename(f.Name(), path)
		}
	} else {
		_ = f.Close()
	}
	if err != nil {
		_ = os.Remove(f.Name())
	}
}
