package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/asplos17/nr/internal/miniredis"
	"github.com/asplos17/nr/internal/topology"
)

// The wire workloads' server: nrredis as an operator would start it, on a
// 2x2 topology with four workers; recorder, metrics and telemetry stay at
// their defaults (on).
const (
	serverWorkers = 4
	serverCores   = 2
)

var serverArgs = []string{"-addr", "127.0.0.1:0", "-workers", strconv.Itoa(serverWorkers),
	"-nodes", strconv.Itoa(libNodes), "-cores", strconv.Itoa(serverCores), "-smt", "1"}

// buildServer compiles cmd/nrredis into the scratch directory and reports
// how long that took.
func buildServer(root, scratch string) (bin string, took time.Duration, err error) {
	bin = filepath.Join(scratch, "nrredis")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/nrredis")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/nrredis: %w\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

// server is one nrredis child process.
type server struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed when the stderr reader has seen EOF
}

// startServer executes the child on port 0 and waits for its "listening
// on" line to learn the address.
func startServer(bin string) (*server, error) {
	cmd := exec.Command(bin, serverArgs...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	onExit(func() { _ = cmd.Process.Kill() })
	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() { // keep draining so the child never blocks on its log
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok {
				select {
				case addr <- strings.TrimSpace(a):
				default:
				}
			}
		}
	}()
	select {
	case s.addr = <-addr:
		return s, nil
	case <-s.done:
		s.stop()
		return nil, errors.New("nrredis exited before listening")
	case <-time.After(20 * time.Second):
		s.stop()
		return nil, errors.New("nrredis did not report its address within 20s")
	}
}

// stop kills the child and waits until it has ended.
func (s *server) stop() {
	_ = s.cmd.Process.Kill()
	<-s.done
	_ = s.cmd.Wait()
}

// procCPU reads utime+stime of a process from /proc/<pid>/stat, in the
// kernel's USER_HZ ticks of 10ms.
func procCPU(pid int) time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(utime+stime) * 10 * time.Millisecond
}

// procRSSMB reads VmRSS from /proc/<pid>/status.
func procRSSMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	_, rest, ok := strings.Cut(string(data), "VmRSS:")
	if !ok {
		return 0
	}
	kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
	return kb * 1024 / 1e6
}

// respClient is a minimal RESP client: one connection, one goroutine.
type respClient struct {
	conn net.Conn
	r    *bufio.Reader
	out  []byte
}

func dial(addr string) (*respClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &respClient{conn: conn, r: bufio.NewReaderSize(conn, 64<<10), out: make([]byte, 0, 4096)}, nil
}

func (c *respClient) close() { c.conn.Close() }

// appendCommand encodes one command as a RESP array of bulk strings.
func appendCommand(dst []byte, args ...string) []byte {
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(len(args)), 10)
	dst = append(dst, '\r', '\n')
	for _, a := range args {
		dst = append(dst, '$')
		dst = strconv.AppendInt(dst, int64(len(a)), 10)
		dst = append(dst, '\r', '\n')
		dst = append(dst, a...)
		dst = append(dst, '\r', '\n')
	}
	return dst
}

// appendOp encodes the generated op: ZRANK key member or ZINCRBY key 1 member.
func appendOp(dst []byte, k int, update bool) []byte {
	if update {
		return appendCommand(dst, "ZINCRBY", zsetKey, "1", members[k])
	}
	return appendCommand(dst, "ZRANK", zsetKey, members[k])
}

var errReply = errors.New("error reply")

// line reads one CRLF-terminated line; the slice is valid until the next read.
func (c *respClient) line() ([]byte, error) {
	l, err := c.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if len(l) < 3 || l[len(l)-2] != '\r' {
		return nil, fmt.Errorf("malformed reply line %q", l)
	}
	return l[:len(l)-2], nil
}

// readInt reads an integer reply. An error reply comes back as errReply
// with the stream still in step; anything else unexpected is fatal.
func (c *respClient) readInt() (int64, error) {
	l, err := c.line()
	if err != nil {
		return 0, err
	}
	switch l[0] {
	case ':':
		return strconv.ParseInt(string(l[1:]), 10, 64)
	case '-':
		return 0, errReply
	}
	return 0, fmt.Errorf("unexpected reply %q, want an integer", l)
}

// readBulk reads a bulk-string reply; the slice is valid until the next read.
func (c *respClient) readBulk() ([]byte, error) {
	l, err := c.line()
	if err != nil {
		return nil, err
	}
	switch l[0] {
	case '$':
		n, err := strconv.Atoi(string(l[1:]))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bulk length %q", l)
		}
		body, err := c.r.Peek(n + 2)
		if err != nil {
			return nil, err
		}
		_, _ = c.r.Discard(n + 2)
		return body[:n], nil
	case '-':
		return nil, errReply
	}
	return nil, fmt.Errorf("unexpected reply %q, want a bulk string", l)
}

// readOpReply reads and validates the reply to one generated op. Only a
// broken stream is returned as an error; an invalid or error reply is a
// failed op.
func (c *respClient) readOpReply(k int, update bool) (valid bool, err error) {
	if update {
		b, err := c.readBulk()
		if err == errReply {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		score, perr := strconv.ParseFloat(string(b), 64)
		return perr == nil && validScore(k, score), nil
	}
	rank, err := c.readInt()
	if err == errReply {
		return false, nil
	}
	return err == nil && validRank(rank), err
}

// doInt sends one command and returns its integer reply.
func (c *respClient) doInt(args ...string) (int64, error) {
	if _, err := c.conn.Write(appendCommand(c.out[:0], args...)); err != nil {
		return 0, err
	}
	return c.readInt()
}

// preloadWire pipelines the 10 000 ZADDs, a hundred per flush.
func preloadWire(addr string) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	const chunk = 100
	for base := 0; base < zsetSize; base += chunk {
		buf := c.out[:0]
		for k := base; k < base+chunk; k++ {
			buf = appendCommand(buf, "ZADD", zsetKey, strconv.Itoa(k), members[k])
		}
		if _, err := c.conn.Write(buf); err != nil {
			return err
		}
		c.out = buf
		for k := base; k < base+chunk; k++ {
			if n, err := c.readInt(); err != nil || n != 1 {
				return fmt.Errorf("preload ZADD %s: reply %d, %v", members[k], n, err)
			}
		}
	}
	return nil
}

// setupWire times exec to listening to preloaded.
func setupWire(bin string) (*server, time.Duration, error) {
	t0 := time.Now()
	s, err := startServer(bin)
	if err != nil {
		return nil, 0, err
	}
	if err := preloadWire(s.addr); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

// viewWire reads the whole sorted set over a fresh connection.
func viewWire(addr string) (keyspaceView, error) {
	var v keyspaceView
	c, err := dial(addr)
	if err != nil {
		return v, err
	}
	defer c.close()
	if v.card, err = c.doInt("ZCARD", zsetKey); err != nil {
		return v, err
	}
	if _, err := c.conn.Write(appendCommand(c.out[:0], "ZRANGE", zsetKey, "0", "-1", "WITHSCORES")); err != nil {
		return v, err
	}
	l, err := c.line()
	if err != nil {
		return v, err
	}
	if l[0] != '*' {
		return v, fmt.Errorf("ZRANGE reply %q, want an array", l)
	}
	n, err := strconv.Atoi(string(l[1:]))
	if err != nil {
		return v, err
	}
	items := make([]string, n)
	for i := range items {
		b, err := c.readBulk()
		if err != nil {
			return v, err
		}
		items[i] = string(b)
	}
	return v, v.fold(items)
}

// infoCounters reads the server's combining counters from INFO.
func infoCounters(addr string) (combines, combined uint64, err error) {
	c, err := dial(addr)
	if err != nil {
		return 0, 0, err
	}
	defer c.close()
	if _, err := c.conn.Write(appendCommand(c.out[:0], "INFO")); err != nil {
		return 0, 0, err
	}
	b, err := c.readBulk()
	if err != nil {
		return 0, 0, err
	}
	for _, l := range strings.Split(string(b), "\r\n") {
		if v, ok := strings.CutPrefix(l, "combine_rounds:"); ok {
			combines, _ = strconv.ParseUint(v, 10, 64)
		}
		if v, ok := strings.CutPrefix(l, "combined_ops:"); ok {
			combined, _ = strconv.ParseUint(v, 10, 64)
		}
	}
	return combines, combined, nil
}

// runWire is the closed loop of one connection: depth commands per flush,
// the next flush when the last reply of the previous one has been read.
// With traced set every request is also recorded as a span.
func (tl *threadLog) runWire(c *respClient, g *opGen, depth int, ends []time.Time, traced *spanLog, t int) {
	ks := make([]int, depth)
	updates := make([]bool, depth)
	var seq uint64
	for r, end := range ends {
		tl.bounds[r] = len(tl.samples)
		var ops [2]int64
		start := time.Now()
		for {
			t0 := time.Now()
			if !t0.Before(end) {
				break
			}
			buf := c.out[:0]
			for i := range ks {
				ks[i], updates[i] = g.next()
				buf = appendOp(buf, ks[i], updates[i])
			}
			if depth > 1 {
				t0 = time.Now() // a pipeline is timed from its flush
			}
			if _, err := c.conn.Write(buf); err != nil {
				tl.err = err
				return
			}
			for i := range ks {
				valid, err := c.readOpReply(ks[i], updates[i])
				switch {
				case err != nil:
					tl.err = err
					return
				case !valid:
					tl.failed++
				case updates[i]:
					tl.acked++
					ops[classUpdate]++
				default:
					ops[classRead]++
				}
			}
			d := time.Since(t0)
			class := classRead
			if depth == 1 && updates[0] {
				class = classUpdate
			}
			tl.sample(d, class)
			if traced != nil {
				seq++
				s := int64(t0.Sub(epoch))
				traced.add(spanRequest, spanNone, uint64(t)<<48|seq, s, s+int64(d))
			}
		}
		tl.elapsed[r] = time.Since(start)
		tl.ops[r] = ops
	}
	tl.bounds[len(ends)] = len(tl.samples)
}

// wireTarget is a server the wire clients can be pointed at: the child
// process, or the traced run's in-process one.
type wireTarget struct {
	addr string
	read func() counters
}

func (s *server) target() wireTarget {
	return wireTarget{addr: s.addr, read: func() counters {
		c := counters{cpu: procCPU(s.cmd.Process.Pid)}
		c.stats.Combines, c.stats.CombinedOps, _ = infoCounters(s.addr)
		return c
	}}
}

// runWirePhase opens T connections and drives one phase through them.
func runWirePhase(w workloadSpec, cfg runConfig, target wireTarget, threads int,
	measure time.Duration, rounds int, traced []*spanLog) (*phase, error) {
	clients := make([]*respClient, threads)
	for t := range clients {
		c, err := dial(target.addr)
		if err != nil {
			return nil, err
		}
		defer c.close()
		clients[t] = c
	}
	p := runPhase(threads, cfg.warm, measure, rounds, target.read, nil,
		func(t int, tl *threadLog, ends []time.Time) {
			var log *spanLog
			if traced != nil {
				log = traced[t]
			}
			tl.runWire(clients[t], newOpGen(cfg.seed, t, w.updatePermille), w.depth, ends, log, t)
		})
	return p, p.err()
}

// tracedServer is the traced run's server: the same miniredis.Server stack
// nrredis assembles, in process, behind a listener whose connections record
// a span around every Read and Write the server makes.
type tracedServer struct {
	srv  *miniredis.Server
	ln   *spanListener
	done chan error
	stop func()
}

func startTracedServer() (*tracedServer, error) {
	srv, stop, err := newProductionServer(serverWorkers)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		stop()
		return nil, err
	}
	ts := &tracedServer{srv: srv, ln: &spanListener{Listener: ln}, done: make(chan error, 1), stop: stop}
	go func() { ts.done <- srv.ServeListener(ts.ln, nil) }()
	return ts, nil
}

// close stops the server and waits for its accept loop and workers.
func (ts *tracedServer) close() {
	ts.srv.Close()
	<-ts.done
	ts.stop()
}

func (ts *tracedServer) target() wireTarget {
	return wireTarget{addr: ts.ln.Addr().String(), read: func() counters {
		c := counters{cpu: selfCPU()}
		if m, ok := ts.srv.Metrics(); ok {
			c.stats = m.Stats
		}
		return c
	}}
}

// newProductionServer assembles keyspace and server as cmd/nrredis does
// with the wire workloads' flags, on the same 2x2 topology. stop ends the
// telemetry collector.
func newProductionServer(workers int) (srv *miniredis.Server, stop func(), err error) {
	rec := observedRecorder()
	shared, err := miniredis.NewSharedTraced(miniredis.MethodNR, topology.New(libNodes, serverCores, 1),
		storeSeed, rec, telemetryOption())
	if err != nil {
		return nil, nil, err
	}
	stop = func() { shared.(miniredis.TelemetrySource).Telemetry().Close() }
	srv, err = miniredis.NewServer(shared, workers, miniredis.WithRecorder(rec))
	if err != nil {
		stop()
		return nil, nil, err
	}
	return srv, stop, nil
}

// spanListener hands the server connections that trace its socket calls.
type spanListener struct {
	net.Listener
	mu   sync.Mutex
	logs []*spanLog
}

func (l *spanListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	log := newSpanLog()
	l.mu.Lock()
	l.logs = append(l.logs, log)
	l.mu.Unlock()
	return &spanConn{Conn: c, log: log}, nil
}

// reset forgets the connections accepted so far (the preload's).
func (l *spanListener) reset() {
	l.mu.Lock()
	l.logs = nil
	l.mu.Unlock()
}

func (l *spanListener) spanLogs() []*spanLog {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*spanLog(nil), l.logs...)
}

// spanConn records the server side's Read and Write calls; one handler
// goroutine makes them all, so the log needs no lock.
type spanConn struct {
	net.Conn
	log *spanLog
}

func (c *spanConn) Read(p []byte) (int, error) {
	t0 := now()
	n, err := c.Conn.Read(p)
	c.log.add(spanServerRead, spanNone, 0, t0, now())
	return n, err
}

func (c *spanConn) Write(p []byte) (int, error) {
	t0 := now()
	n, err := c.Conn.Write(p)
	c.log.add(spanServerWrite, spanNone, 0, t0, now())
	return n, err
}
