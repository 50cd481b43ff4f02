package chaos

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	nr "github.com/asplos17/nr"
	"github.com/asplos17/nr/internal/persist"
)

// recoverSeeds mirrors the fixed seeds of the live-fault matrix.
var recoverSeeds = []uint64{1, 42, 0xc0ffee, 0xdeadbeef}

func checkRecover(t *testing.T, dir string, s RecoverSchedule) *RecoverReport {
	t.Helper()
	rep, err := RunRecover(dir, s)
	if err != nil {
		t.Fatalf("seed %#x: %v", s.Seed, err)
	}
	t.Cleanup(rep.Recovered.Close)
	for _, e := range rep.Check() {
		t.Errorf("seed %#x: %v", s.Seed, e)
	}
	return rep
}

func TestRecoverGraceful(t *testing.T) {
	for _, seed := range recoverSeeds[:2] {
		rep := checkRecover(t, t.TempDir(), RecoverSchedule{Seed: seed})
		if rep.Recovered.ReplayedOps() == 0 {
			t.Errorf("seed %#x: graceful recovery replayed nothing", seed)
		}
	}
}

func TestRecoverCrashAtSyncBoundary(t *testing.T) {
	for _, seed := range recoverSeeds {
		rep := checkRecover(t, t.TempDir(), RecoverSchedule{
			Seed:            seed,
			CrashAtBoundary: true,
		})
		// The boundary is at or after the barrier, so at least every acked
		// op must have been replayed or snapshotted; tail ops past the
		// boundary must be reported not-executed.
		lost := 0
		for _, o := range rep.Ops {
			if !o.Acked && !rep.Recovered.WasExecuted(o.Token) {
				lost++
			}
		}
		t.Logf("seed %#x: boundary %+v, %d unacked ops lost (detectably)",
			seed, rep.CrashBoundary, lost)
	}
}

func TestRecoverCrashWithMidRunCheckpoint(t *testing.T) {
	for _, seed := range recoverSeeds[:2] {
		rep := checkRecover(t, t.TempDir(), RecoverSchedule{
			Seed:            seed,
			CheckpointMid:   true,
			CrashAtBoundary: true,
		})
		if rep.Recovered.SnapshotIndex() == 0 {
			t.Errorf("seed %#x: mid-run checkpoint taken but recovery started from index 0", seed)
		}
	}
}

func TestRecoverTornTail(t *testing.T) {
	for _, seed := range recoverSeeds[:2] {
		checkRecover(t, t.TempDir(), RecoverSchedule{
			Seed:     seed,
			TornTail: true,
		})
	}
}

func TestRecoverWithPanics(t *testing.T) {
	for _, seed := range recoverSeeds[:2] {
		rep := checkRecover(t, t.TempDir(), RecoverSchedule{
			Seed:            seed,
			PanicEveryN:     20,
			CrashAtBoundary: true,
		})
		// Replay re-executes the panicking ops; their contained panics must
		// be counted, their partial mutations preserved (Check verifies the
		// state fold; this verifies the containment path actually ran).
		panicked := 0
		for _, o := range rep.Ops {
			if o.Acked && o.Panicked {
				panicked++
			}
		}
		if panicked == 0 {
			t.Fatalf("seed %#x: schedule injected no panics", seed)
		}
		if rep.Recovered.ReplayPanics() == 0 && rep.Recovered.SnapshotIndex() == 0 {
			t.Errorf("seed %#x: %d acked panic ops but replay contained none (and no snapshot covers them)", seed, panicked)
		}
	}
}

// TestRecoverTwice proves recovery is not a one-shot: the recovered
// instance keeps persisting at the next generation, and a second recovery
// still answers for first-incarnation tokens.
func TestRecoverTwice(t *testing.T) {
	dir := t.TempDir()
	rep := checkRecover(t, dir, RecoverSchedule{Seed: 42, CrashAtBoundary: true})

	// Live on: more ops through the recovered instance.
	h, err := rep.Recovered.Register()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		h.Execute(Op{Kind: KindAdd, Key: uint16(i % 8), Delta: 3})
	}
	tok := h.LastToken()
	if err := rep.Recovered.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if err := rep.Recovered.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var firstGenTokens []uint64
	for _, o := range rep.Ops {
		if o.Acked {
			firstGenTokens = append(firstGenTokens, o.Token)
		}
	}
	rep.Recovered.Close()

	rec2, err := nr.Recover(dir, func(data []byte) (nr.Sequential[Op, Result], error) {
		return RestoreDS(data)
	}, OpCodec{}, nr.WithNodes(2, 2, 1))
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	defer rec2.Close()
	if !rec2.WasExecuted(tok) {
		t.Error("second incarnation's synced op lost across second recovery")
	}
	// Tokens collide across restarts only if (node, slot, seq) recur; the
	// cumulative set must at minimum still contain every first-gen token.
	for _, ftok := range firstGenTokens {
		if !rec2.WasExecuted(ftok) {
			t.Errorf("first-incarnation acked token %#x forgotten by second recovery", ftok)
		}
	}
}

// --- kill -9 harness ---------------------------------------------------

// childEnvDir, when set, turns this test binary into the victim process:
// it runs a persistent instance, prints "ACKED token key delta" for every
// op it has made durable, and loops until killed.
const childEnvDir = "NR_CHAOS_KILL_DIR"

func TestKillAndRecoverSIGKILL(t *testing.T) {
	if dir := os.Getenv(childEnvDir); dir != "" {
		killVictimMain(dir)
		return // unreachable; victim runs until killed
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestKillAndRecoverSIGKILL$", "-test.v")
	cmd.Env = append(os.Environ(), childEnvDir+"="+dir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	}()

	// Collect acked ops from the victim until we have enough, then SIGKILL
	// it mid-flight — no warning, no flush, no goodbye.
	type ackedOp struct {
		token uint64
		key   uint16
		delta int64
	}
	var acked []ackedOp
	sc := bufio.NewScanner(stdout)
	deadline := time.Now().Add(60 * time.Second)
	for sc.Scan() && len(acked) < 300 {
		line := sc.Text()
		if !strings.HasPrefix(line, "ACKED ") {
			continue
		}
		var tok, key, delta uint64
		if _, err := fmt.Sscanf(line, "ACKED %x %d %d", &tok, &key, &delta); err != nil {
			t.Fatalf("bad victim line %q: %v", line, err)
		}
		acked = append(acked, ackedOp{token: tok, key: uint16(key), delta: int64(delta)})
		if time.Now().After(deadline) {
			t.Fatalf("victim produced only %d acked ops before deadline", len(acked))
		}
	}
	if len(acked) < 100 {
		t.Fatalf("victim died early: only %d acked ops (scanner err %v)", len(acked), sc.Err())
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL
		t.Fatal(err)
	}
	_, _ = cmd.Process.Wait()

	rec, err := nr.Recover(dir, func(data []byte) (nr.Sequential[Op, Result], error) {
		return RestoreDS(data)
	}, OpCodec{}, nr.WithNodes(2, 2, 1))
	if err != nil {
		t.Fatalf("recovering after SIGKILL: %v", err)
	}
	defer rec.Close()

	// Every op the victim acknowledged as durable must have survived.
	ackedFold := make(map[uint16]int64)
	for _, a := range acked {
		if !rec.WasExecuted(a.token) {
			t.Errorf("acked op token %#x (key %d delta %d) lost by kill -9", a.token, a.key, a.delta)
		}
		ackedFold[a.key] += a.delta
	}
	// And their effects: deltas are positive, so each key's recovered value
	// is at least the acked fold (unsynced extra ops can only add).
	rec.Quiesce()
	var fps []uint64
	for n := 0; n < rec.Replicas(); n++ {
		rec.Inspect(n, func(ds nr.Sequential[Op, Result]) {
			d := ds.(*DS)
			fps = append(fps, d.Fingerprint())
			if n == 0 {
				for k, want := range ackedFold {
					if got := d.Value(k); got < want {
						t.Errorf("key %d recovered value %d < acked sum %d", k, got, want)
					}
				}
			}
		})
	}
	for n := 1; n < len(fps); n++ {
		if fps[n] != fps[0] {
			t.Errorf("replica %d fingerprint %x != replica 0 %x after SIGKILL recovery", n, fps[n], fps[0])
		}
	}
	t.Logf("SIGKILL survived: %d acked ops verified, %d replayed, %d dropped",
		len(acked), rec.ReplayedOps(), rec.DroppedRecords())
}

// killVictimMain is the victim process: persist ops forever, printing each
// op once it is durably synced. It never returns; SIGKILL is its only exit.
func killVictimMain(dir string) {
	inst, err := nr.New(
		func() nr.Sequential[Op, Result] { return NewDS() },
		nr.WithNodes(2, 2, 1),
		nr.WithPersistence(dir, OpCodec{}, func(o *persist.Options) { o.GroupInterval = time.Millisecond }),
	)
	if err != nil {
		fmt.Fprintf(os.Stderr, "victim: %v\n", err)
		os.Exit(3)
	}
	var outMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h, err := inst.RegisterOnNode(w % 2)
			if err != nil {
				fmt.Fprintf(os.Stderr, "victim register: %v\n", err)
				os.Exit(3)
			}
			rng := NewRand(uint64(w)*77 + 5)
			type sent struct {
				tok uint64
				op  Op
			}
			var batch []sent
			for {
				op := Op{Kind: KindAdd, Key: uint16(rng.Intn(32)), Delta: int64(rng.Intn(100)) + 1}
				h.Execute(op)
				batch = append(batch, sent{tok: h.LastToken(), op: op})
				if len(batch) >= 16 {
					if err := inst.SyncWAL(); err != nil {
						fmt.Fprintf(os.Stderr, "victim sync: %v\n", err)
						os.Exit(3)
					}
					outMu.Lock()
					for _, s := range batch {
						fmt.Printf("ACKED %x %d %d\n", s.tok, s.op.Key, s.op.Delta)
					}
					outMu.Unlock()
					batch = batch[:0]
				}
			}
		}(w)
	}
	wg.Wait()
}
