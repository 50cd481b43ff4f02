package main

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"sort"
	"time"

	nr "github.com/asplos17/nr"
	nrlog "github.com/asplos17/nr/internal/log"
	"github.com/asplos17/nr/internal/miniredis"
	"github.com/asplos17/nr/internal/rwlock"
)

// Layer calibrations: each times one layer's public functions alone, on
// one goroutine, with the workload's own ops. They are the rows of the
// ledger that do not need the workload running, and every traced run takes
// them so a noisy host shows in the same output as the numbers it spoils.

const calibReps = 5

// perOpNs runs batch(n) calibReps times and reports the median time per op.
func perOpNs(n int, batch func(n int)) float64 {
	batch(n / 4) // warm caches and lazy set-up
	reps := make([]float64, calibReps)
	for i := range reps {
		t0 := time.Now()
		batch(n)
		reps[i] = float64(time.Since(t0)) / float64(n)
	}
	return median(reps)
}

var sink uint64 // keeps calibration loops from being optimised away

// calibrate fills the workload-independent per-layer rows.
func calibrate(w workloadSpec, threads int, seed uint64, calibBatch int, m map[string]float64) error {
	m["env.spin_ns"] = perOpNs(1<<20, func(n int) {
		x := uint64(88172645463325252)
		for i := 0; i < n; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		sink += x
	})

	g := newOpGen(seed, 0, w.updatePermille)
	m["workload.gen_ns"] = perOpNs(calibBatch*10, func(n int) {
		for i := 0; i < n; i++ {
			k, _ := g.next()
			sink += uint64(k)
		}
	})

	buf := make([]byte, 0, 256)
	m["client.encode_ns"] = perOpNs(calibBatch*10, func(n int) {
		for i := 0; i < n; i++ {
			k, update := g.next()
			buf = appendOp(buf[:0], k, update)
		}
		sink += uint64(len(buf))
	})

	// miniredis.Store alone: a private preloaded store, no NR around it.
	store := miniredis.NewStore(storeSeed)
	for k := range members {
		store.Execute(preloadOp(k))
	}
	m["store.read_ns"] = perOpNs(calibBatch*5, func(n int) {
		for i := 0; i < n; i++ {
			k, _ := g.next()
			sink += uint64(store.Execute(readOp(k)).Int)
		}
	})
	m["store.update_ns"] = perOpNs(calibBatch*5, func(n int) {
		for i := 0; i < n; i++ {
			k, _ := g.next()
			sink += uint64(store.Execute(updateOp(k)).Score)
		}
	})

	calibrateRESP(g, store, calibBatch, m)

	if err := calibrateCore(threads, g, calibBatch, m); err != nil {
		return err
	}

	// internal/log: reserve, fill, read back and complete one entry, with a
	// single replica consuming so the log never fills.
	lg, err := nrlog.New[storeOp](1<<16, 1)
	if err != nil {
		return err
	}
	tail := lg.RegisterReplica()
	m["log.append_ns"] = perOpNs(calibBatch*10, func(n int) {
		for i := 0; i < n; i++ {
			idx := lg.Reserve(1)
			lg.Fill(idx, updateOp(i%zsetSize))
			op, _ := lg.Get(idx)
			sink += uint64(len(op.Member))
			tail.Store(idx + 1)
			lg.AdvanceCompleted(idx + 1)
		}
	})

	// internal/rwlock: uncontended pairs with the other reader slots idle.
	rw := rwlock.NewDistributed(threads)
	m["rwlock.rlock_ns"] = perOpNs(calibBatch*10, func(n int) {
		for i := 0; i < n; i++ {
			rw.RLock(0)
			rw.RUnlock(0)
		}
	})
	m["rwlock.wlock_ns"] = perOpNs(calibBatch*10, func(n int) {
		for i := 0; i < n; i++ {
			rw.Lock()
			rw.Unlock()
		}
	})

	var enc []byte
	m["persist.encode_ns"] = perOpNs(calibBatch*10, func(n int) {
		for i := 0; i < n; i++ {
			enc, _ = miniredis.StoreCodec{}.AppendEncode(enc[:0], updateOp(i%zsetSize))
		}
		sink += uint64(len(enc))
	})

	// Server.Direct registers one more executor, and the four workers fill
	// the 2x2 topology, so this server runs one worker short.
	srv, stop, err := newProductionServer(serverWorkers - 1)
	if err != nil {
		return err
	}
	defer stop()
	defer srv.Close()
	direct, err := srv.Direct()
	if err != nil {
		return err
	}
	for k := range members {
		direct.Execute(preloadOp(k))
	}
	m["server.direct_ns"] = perOpNs(calibBatch*2, func(n int) {
		for i := 0; i < n; i++ {
			k, update := g.next()
			if update {
				sink += uint64(direct.Execute(updateOp(k)).Score)
			} else {
				sink += uint64(direct.Execute(readOp(k)).Int)
			}
		}
	})

	rtt, err := loopbackRTT(w, calibBatch/5)
	if err != nil {
		return err
	}
	m["env.loopback_rtt_us"] = rtt
	return nil
}

// calibrateRESP times the protocol layer over in-memory buffers holding
// the workload's exact request bytes and the store's real results.
func calibrateRESP(g *opGen, store *miniredis.Store, n int, m map[string]float64) {
	var wire []byte
	ops := make([]storeOp, n)
	results := make([]storeRes, n)
	for i := 0; i < n; i++ {
		k, update := g.next()
		wire = appendOp(wire, k, update)
		ops[i] = readOp(k)
		if update {
			ops[i] = updateOp(k)
		}
		results[i] = store.Execute(ops[i])
	}
	src := bytes.NewReader(wire)
	r := bufio.NewReader(src)
	parse := func(n int) {
		src.Reset(wire)
		r.Reset(src)
		for i := 0; i < n; i++ {
			args, err := miniredis.ReadCommand(r)
			if err != nil {
				panic(err) // the benchmark's own bytes
			}
			op, _ := miniredis.ParseCommand(args)
			sink += uint64(op.Cmd)
		}
	}
	out := miniredis.NewWriter(bufio.NewWriter(io.Discard))
	reply := func(n int) {
		for i := 0; i < n; i++ {
			// One flush per reply, as Server.handle does today.
			_ = miniredis.WriteResult(out, ops[i], results[i])
			_ = out.Flush()
		}
	}
	m["resp.parse_ns"] = perOpNs(n, parse)
	m["resp.reply_ns"] = perOpNs(n, reply)
	before := mallocs()
	parse(n)
	reply(n)
	m["resp.allocs_per_cmd"] = float64(mallocs()-before) / float64(n)
}

// calibrateCore times Handle.Execute alone: one goroutine alternating
// between a handle on each node, so both replicas are live and every update
// is combined on one node and replayed on the other within the loop.
func calibrateCore(threads int, g *opGen, calibBatch int, m map[string]float64) error {
	inst, err := nr.New(newStore, nr.WithNodes(libNodes, threads, 1))
	if err != nil {
		return err
	}
	defer inst.Close()
	var h [libNodes]*nr.Handle[storeOp, storeRes]
	for node := range h {
		if h[node], err = inst.RegisterOnNode(node); err != nil {
			return err
		}
	}
	for k := range members {
		h[0].Execute(preloadOp(k))
	}
	m["core.read_ns"] = perOpNs(calibBatch*5, func(n int) {
		for i := 0; i < n; i++ {
			k, _ := g.next()
			sink += uint64(h[i%libNodes].Execute(readOp(k)).Int)
		}
	})
	m["core.update_ns"] = perOpNs(calibBatch*2, func(n int) {
		for i := 0; i < n; i++ {
			k, _ := g.next()
			sink += uint64(h[i%libNodes].Execute(updateOp(k)).Score)
		}
	})
	return nil
}

// loopbackRTT is the floor under a wire request: a request-sized write
// answered by a reply-sized write from a bare TCP echo goroutine, no
// miniredis involved. It reports the median round trip in microseconds of
// a flush the workload's size (depth commands).
func loopbackRTT(w workloadSpec, trips int) (float64, error) {
	depth := max(w.depth, 1)
	var req []byte
	for i := 0; i < depth; i++ {
		req = appendOp(req, i, false)
	}
	reply := bytes.Repeat([]byte(":5000\r\n"), depth)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		in := make([]byte, len(req))
		for {
			if _, err := io.ReadFull(conn, in); err != nil {
				return
			}
			if _, err := conn.Write(reply); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	in := make([]byte, len(reply))
	rtts := make([]float64, 0, trips)
	for i := 0; i < trips+trips/4; i++ {
		t0 := time.Now()
		if _, err = conn.Write(req); err == nil {
			_, err = io.ReadFull(conn, in)
		}
		if err != nil {
			break
		}
		if i >= trips/4 { // the first quarter warms the path
			rtts = append(rtts, float64(time.Since(t0))/1e3)
		}
	}
	conn.Close()
	<-echoDone
	if err != nil {
		return 0, err
	}
	sort.Float64s(rtts)
	return quantile(rtts, 0.5), nil
}
