package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	nr "github.com/asplos17/nr"
	"github.com/asplos17/nr/internal/miniredis"
	"github.com/asplos17/nr/internal/workload"
)

// members are the sorted set's 10 000 member names; member i is preloaded
// with score i.
var members = func() []string {
	m := make([]string, zsetSize)
	for i := range m {
		m[i] = fmt.Sprintf("item:%06d", i)
	}
	return m
}()

// preloadScoreSum is the sum of the preloaded scores 0..zsetSize-1.
const preloadScoreSum = zsetSize * (zsetSize - 1) / 2

// opGen is one client's deterministic op stream: member uniform over the
// set, class by the workload's update share. The program under test only
// ever sees the generated ops, never the seed.
type opGen struct {
	rng      *workload.RNG
	permille int
}

func newOpGen(seed uint64, thread, permille int) *opGen {
	s := seed*0x9e3779b97f4a7c15 + uint64(thread+1)*0xbf58476d1ce4e5b9
	return &opGen{rng: workload.NewRNG(s), permille: permille}
}

func (g *opGen) next() (k int, update bool) {
	k = g.rng.Intn(zsetSize)
	return k, g.rng.Intn(1000) < g.permille
}

func readOp(k int) miniredis.StoreOp {
	return miniredis.StoreOp{Cmd: miniredis.CmdZRank, Key: zsetKey, Member: members[k]}
}

func updateOp(k int) miniredis.StoreOp {
	return miniredis.StoreOp{Cmd: miniredis.CmdZIncrBy, Key: zsetKey, Member: members[k], Score: 1}
}

func preloadOp(k int) miniredis.StoreOp {
	return miniredis.StoreOp{Cmd: miniredis.CmdZAdd, Key: zsetKey, Member: members[k], Score: float64(k)}
}

// A ZRANK must answer an integer in [0, zsetSize); a ZINCRBY of member k
// must answer a whole score of at least k+1 (its preload plus this
// increment).
func validRank(rank int64) bool { return rank >= 0 && rank < zsetSize }

func validScore(k int, score float64) bool {
	return score >= float64(k+1) && score == math.Trunc(score)
}

func validResult(k int, update bool, res miniredis.StoreResult) bool {
	if res.Err != "" || !res.OK {
		return false
	}
	if update {
		return validScore(k, res.Score)
	}
	return validRank(res.Int)
}

// executor is the one call every in-process workload times.
type executor interface {
	Execute(op miniredis.StoreOp) miniredis.StoreResult
}

const (
	classRead   = 0
	classUpdate = 1
	// libSampleEvery: a library op takes about a microsecond, so only one in
	// sixteen is timed and two clock reads do not perturb the rest.
	libSampleEvery = 16
	sampleCap      = 1 << 20
	updateBit      = 1 << 31
)

// threadLog is what one client goroutine records; only that goroutine
// writes it until the phase ends. Round 0 is the untimed warm-up.
type threadLog struct {
	ops     [][2]int64 // completed, valid ops per round and class
	elapsed []time.Duration
	failed  int64 // errors and replies failing validation, all rounds
	acked   int64 // valid ZINCRBY replies, all rounds: the score sum must grow by this
	// samples are exact caller-observed latencies in ns, the top bit set for
	// an update; bounds[r] is where round r's samples start.
	samples []uint32
	bounds  []int
	err     error // a client that lost its connection or its protocol stops here
	_       [64]byte
}

func newThreadLog(rounds int) *threadLog {
	return &threadLog{
		ops:     make([][2]int64, rounds+1),
		elapsed: make([]time.Duration, rounds+1),
		samples: make([]uint32, 0, sampleCap),
		bounds:  make([]int, rounds+2),
	}
}

func (tl *threadLog) sample(d time.Duration, class int) {
	if len(tl.samples) == cap(tl.samples) {
		return
	}
	ns := uint32(min(int64(d), updateBit-1))
	if class == classUpdate {
		ns |= updateBit
	}
	tl.samples = append(tl.samples, ns)
}

// execOne runs one generated op and books its outcome.
func (tl *threadLog) execOne(ex executor, k int, update bool, ops *[2]int64) {
	var res miniredis.StoreResult
	if update {
		res = ex.Execute(updateOp(k))
	} else {
		res = ex.Execute(readOp(k))
	}
	tl.book(k, update, res, ops)
}

// book validates one reply and counts it.
func (tl *threadLog) book(k int, update bool, res miniredis.StoreResult, ops *[2]int64) {
	switch {
	case !validResult(k, update, res):
		tl.failed++
	case update:
		tl.acked++
		ops[classUpdate]++
	default:
		ops[classRead]++
	}
}

// runLib is the closed loop of an in-process client: the next op is issued
// when the previous one returns.
func (tl *threadLog) runLib(ex executor, g *opGen, ends []time.Time) {
	for r, end := range ends {
		tl.bounds[r] = len(tl.samples)
		var ops [2]int64
		start := time.Now()
		for {
			t0 := time.Now()
			if !t0.Before(end) {
				break
			}
			k, update := g.next()
			tl.execOne(ex, k, update, &ops)
			class := classRead
			if update {
				class = classUpdate
			}
			tl.sample(time.Since(t0), class)
			for j := 1; j < libSampleEvery; j++ {
				k, update := g.next()
				tl.execOne(ex, k, update, &ops)
			}
		}
		tl.elapsed[r] = time.Since(start)
		tl.ops[r] = ops
	}
	tl.bounds[len(ends)] = len(tl.samples)
}

// counters are cumulative readings taken where the measured rounds begin
// and end; a workload fills the ones its layers have.
type counters struct {
	cpu      time.Duration // of the process holding the structure
	mallocs  uint64
	stats    nr.Stats // on the wire only what INFO carries: Combines and CombinedOps
	wal      nr.PersistStats
	observed observedCounts
}

// phase is one warm-up plus a number of measured rounds under T clients.
type phase struct {
	rounds        int
	threads       []*threadLog
	before, after counters
	wall          time.Duration
}

// runPhase starts T client goroutines on a shared schedule, takes read()
// where the measured rounds begin and end, and calls atRoundEnd (may be
// nil) as each measured round closes.
func runPhase(threads int, warm, measure time.Duration, rounds int, read func() counters,
	atRoundEnd func(round int), body func(t int, tl *threadLog, ends []time.Time)) *phase {
	p := &phase{rounds: rounds, threads: make([]*threadLog, threads)}
	for t := range p.threads {
		p.threads[t] = newThreadLog(rounds)
	}
	begin := time.Now()
	ends := make([]time.Time, rounds+1)
	ends[0] = begin.Add(warm)
	for r := 1; r <= rounds; r++ {
		ends[r] = ends[0].Add(measure * time.Duration(r) / time.Duration(rounds))
	}
	var wg sync.WaitGroup
	for t := range p.threads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(t, p.threads[t], ends)
		}()
	}
	time.Sleep(time.Until(ends[0]))
	p.before = read()
	for r := 1; r <= rounds; r++ {
		time.Sleep(time.Until(ends[r]))
		if atRoundEnd != nil {
			atRoundEnd(r)
		}
	}
	p.after = read()
	p.wall = ends[rounds].Sub(ends[0])
	wg.Wait()
	return p
}

func (p *phase) err() error {
	for _, tl := range p.threads {
		if tl.err != nil {
			return tl.err
		}
	}
	return nil
}

// ops counts the measured rounds' completed, verified ops of one class
// (or both with class < 0).
func (p *phase) ops(class int) int64 {
	var n int64
	for _, tl := range p.threads {
		for r := 1; r <= p.rounds; r++ {
			if class < 0 || class == classRead {
				n += tl.ops[r][classRead]
			}
			if class < 0 || class == classUpdate {
				n += tl.ops[r][classUpdate]
			}
		}
	}
	return n
}

func (p *phase) failed() (failed, acked int64) {
	for _, tl := range p.threads {
		failed += tl.failed
		acked += tl.acked
	}
	return failed, acked
}

// opsPerSec is each measured round's throughput: every client's ops over
// the time that client spent in the round.
func (p *phase) opsPerSec() []float64 {
	out := make([]float64, 0, p.rounds)
	for r := 1; r <= p.rounds; r++ {
		var rate float64
		for _, tl := range p.threads {
			if s := tl.elapsed[r].Seconds(); s > 0 {
				rate += float64(tl.ops[r][classRead]+tl.ops[r][classUpdate]) / s
			}
		}
		out = append(out, rate)
	}
	return out
}

// cpuUsPerOp is CPU time per completed op over the measured rounds.
func (p *phase) cpuUsPerOp() float64 {
	if n := p.ops(-1); n > 0 {
		return float64((p.after.cpu - p.before.cpu).Microseconds()) / float64(n)
	}
	return 0
}

// latency is a per-round percentile of one class (class < 0: all), as one
// value per measured round in microseconds; want > 1 asks for the maximum.
// The percentile is lowered in a round too small to support it.
func (p *phase) latency(class int, want float64) []float64 {
	var perRound []float64
	for r := 1; r <= p.rounds; r++ {
		var s []uint32
		for _, tl := range p.threads {
			for _, v := range tl.samples[tl.bounds[r]:tl.bounds[r+1]] {
				isUpdate := v&updateBit != 0
				if class < 0 || isUpdate == (class == classUpdate) {
					s = append(s, v&^updateBit)
				}
			}
		}
		if len(s) == 0 {
			continue
		}
		slices.Sort(s)
		var v float64
		if want > 1 {
			v = float64(s[len(s)-1])
		} else {
			v = percentile(s, supportedPercentile(len(s), want))
		}
		perRound = append(perRound, v/1e3)
	}
	return perRound
}
