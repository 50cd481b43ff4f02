package miniredis

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	nr "github.com/asplos17/nr"
	"github.com/asplos17/nr/internal/baseline"
	"github.com/asplos17/nr/internal/core"
	"github.com/asplos17/nr/internal/obs/tsdb"
	"github.com/asplos17/nr/internal/topology"
	"github.com/asplos17/nr/internal/trace"
)

// Shared is the concurrent keyspace interface (NR or a baseline wrapper).
type Shared = baseline.Shared[StoreOp, StoreResult]

// Method names accepted by NewShared.
const (
	MethodNR  = "nr"
	MethodSL  = "sl"
	MethodRWL = "rwl"
	MethodFC  = "fc"
	MethodFCP = "fc+"
)

// NewShared builds a concurrent keyspace with the given method. Seed fixes
// replica determinism; topo sizes NR's replicas and the lock/slot arrays.
// Extra nr options apply only to the NR method.
func NewShared(method string, topo topology.Topology, seed uint64, extra ...nr.Option) (Shared, error) {
	return NewSharedTraced(method, topo, seed, nil, extra...)
}

// NewSharedTraced is NewShared with a flight recorder attached to the NR
// instance (rec is ignored by the baseline methods, which have no protocol
// to trace). Pass the same recorder to the server via WithRecorder so
// SLOWLOG and /debug/trace can read it.
func NewSharedTraced(method string, topo topology.Topology, seed uint64, rec *trace.Recorder, extra ...nr.Option) (Shared, error) {
	maxThreads := topo.TotalThreads()
	switch method {
	case MethodNR:
		shared, _, err := NewNRShared(topo, seed, "", rec, extra...)
		return shared, err
	case MethodSL:
		return baseline.NewSpinLocked[StoreOp, StoreResult](NewStore(seed)), nil
	case MethodRWL:
		return baseline.NewRWLocked[StoreOp, StoreResult](NewStore(seed), maxThreads), nil
	case MethodFC:
		return baseline.NewFlatCombining[StoreOp, StoreResult](NewStore(seed), maxThreads), nil
	case MethodFCP:
		return baseline.NewFlatCombiningPlus[StoreOp, StoreResult](NewStore(seed), maxThreads), nil
	}
	return nil, fmt.Errorf("miniredis: unknown method %q", method)
}

// Default per-connection deadlines. The read deadline bounds how long an
// idle connection can pin server resources (and how long Close waits for
// it); the write deadline keeps a stuck client from wedging a handler.
const (
	DefaultReadTimeout  = 5 * time.Minute
	DefaultWriteTimeout = 30 * time.Second
)

// Server is a RESP server. Each connection has one goroutine that reads,
// executes and answers its commands itself, in order; what it borrows for
// the execution is one of a fixed set of registered executors.
//
// This is the port's form of the paper's thread pool (§7). There a request
// is handed to one of a fixed number of threads, each registered with NR,
// because an NR thread slot is a per-node resource that is claimed once and
// never released. Here goroutines are cheap and slots are not: NewServer
// claims exactly `workers` slots through Shared.Register (which has no
// release, so a connection cannot claim its own) and keeps them in a FIFO
// pool. Handing a command to another goroutine and sleeping until it
// answers would cost two wake-ups per command; borrowing the slot costs two
// channel operations that block only when `workers` commands are already
// executing. `workers` therefore bounds the commands executing at once, not
// the connections served.
//
// Pool invariants:
//
//   - An executor is never held across a socket read or write: it is taken
//     after the command has been parsed and returned before the reply is
//     written, so a client that stops reading cannot starve the pool.
//   - An executor always comes back. safeExecute turns a panic escaping the
//     keyspace (a contained NR user-code panic re-raised by Execute) into an
//     error reply, and the executor is returned after it.
//   - The pool is FIFO, so successive commands rotate over every executor
//     and with them over every node. A replica nobody executes on is only
//     advanced by helpers once the log fills (paper §6).
//
// Flush rule: a reply is written to the socket as soon as it is rendered,
// one write per command (see handle for why not fewer). Independently of
// that, a connection never blocks in a read while it owes replies: the read
// side flushes first (connIO.Read), which is also where the read deadline
// is armed — once per blocking read, not once per command.
//
// Failure containment: each connection handler recovers its own panics and
// closes only that connection. Close stops accepting, lets every connection
// finish the command it is executing, refuses the next one, flushes what was
// answered, and unblocks idle readers.
type Server struct {
	shared Shared
	ln     net.Listener
	// pool holds the idle executors; its capacity is the number registered.
	pool         chan baseline.Executor[StoreOp, StoreResult]
	connsWG      sync.WaitGroup
	readTimeout  time.Duration
	writeTimeout time.Duration
	started      time.Time
	// rec is the keyspace's flight recorder (nil = tracing off); SLOWLOG
	// and TraceHandler read it. See WithRecorder.
	rec *trace.Recorder
	// persist enables BGSAVE/LASTSAVE (nil = persistence off). See
	// WithPersistence.
	persist *Persistence
	// pairs interns the key and member of recurring updates (parseServed).
	pairs *internTable

	// commands counts every parsed command (INFO included); connTotal
	// counts accepted connections over the server's lifetime.
	commands  atomic.Uint64
	connTotal atomic.Uint64

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	// closed is written under mu, which orders it with conns and with the
	// read deadlines Close expires; handlers read it per command without mu.
	closed atomic.Bool
}

// MetricsSource is implemented by keyspaces that can report the NR unified
// metrics snapshot (nrShared does; the lock/FC baselines do not).
type MetricsSource interface {
	Metrics() core.Metrics
}

// TelemetrySource is implemented by keyspaces carrying a windowed telemetry
// collector (NR built with nr.WithTelemetry). Telemetry may return nil.
type TelemetrySource interface {
	Telemetry() *tsdb.Collector
}

// errServerClosed refuses a listener, or a connection's next read, after
// Close.
var errServerClosed = errors.New("miniredis: server closed")

// ServerOption customizes NewServer.
type ServerOption func(*Server)

// WithReadTimeout sets the per-connection read deadline, refreshed before
// every blocking read. Zero disables it (not recommended: Close then has to
// force-close idle connections mid-keepalive).
func WithReadTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.readTimeout = d }
}

// WithWriteTimeout sets the per-connection write deadline, refreshed before
// every socket write. Zero disables it.
func WithWriteTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.writeTimeout = d }
}

// WithRecorder hands the server the keyspace's flight recorder (the one
// passed to NewSharedTraced) so the SLOWLOG command and the /debug/trace
// endpoint can snapshot it. Without it SLOWLOG answers with an error and
// /debug/trace with 404.
func WithRecorder(rec *trace.Recorder) ServerOption {
	return func(s *Server) { s.rec = rec }
}

// WithPersistence hands the server the durability controller from
// NewNRShared, enabling the BGSAVE and LASTSAVE commands. Without
// it both answer with an error.
func WithPersistence(p *Persistence) ServerOption {
	return func(s *Server) { s.persist = p }
}

// NewServer builds a server over the shared keyspace that executes up to
// workers commands at once: it registers that many executors with shared.
func NewServer(shared Shared, workers int, opts ...ServerOption) (*Server, error) {
	if workers < 1 {
		return nil, errors.New("miniredis: need at least one worker")
	}
	s := &Server{
		shared:       shared,
		pool:         make(chan baseline.Executor[StoreOp, StoreResult], workers),
		conns:        make(map[net.Conn]struct{}),
		readTimeout:  DefaultReadTimeout,
		writeTimeout: DefaultWriteTimeout,
		started:      time.Now(),
		pairs:        newInternTable(internSets),
	}
	for _, o := range opts {
		o(s)
	}
	for i := 0; i < workers; i++ {
		ex, err := shared.Register()
		if err != nil {
			return nil, fmt.Errorf("miniredis: registering worker %d: %w", i, err)
		}
		s.pool <- ex
	}
	return s, nil
}

// execute runs op on a borrowed executor, waiting for one while all are in
// use. The caller holds no socket and no buffer lock meanwhile.
func (s *Server) execute(op StoreOp) StoreResult {
	ex := <-s.pool
	res := safeExecute(ex, op)
	s.pool <- ex
	return res
}

// safeExecute runs one op, converting a panic escaping the keyspace — NR
// re-raises contained user-code panics from Execute — into an error reply,
// so one poisonous command costs the pool nothing.
func safeExecute(ex baseline.Executor[StoreOp, StoreResult], op StoreOp) (res StoreResult) {
	defer func() {
		if p := recover(); p != nil {
			res = StoreResult{Err: fmt.Sprintf("internal error executing command: %v", p)}
		}
	}()
	return ex.Execute(op)
}

// Serve accepts connections on addr until Close. It returns the bound
// address through the provided callback (nil allowed) so callers can use
// port 0.
func (s *Server) Serve(addr string, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.ServeListener(ln, ready)
}

// Accept-retry policy: a transient Accept failure (EMFILE under fd
// pressure, ECONNABORTED, a momentary network hiccup) must not kill the
// whole server. Retries back off exponentially and are bounded — a
// persistently failing listener eventually surfaces its error rather than
// spinning forever.
const (
	acceptRetryMax   = 10
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffCap = 1 * time.Second
)

// ServeListener accepts connections on an existing listener until Close,
// retrying transient Accept errors with bounded exponential backoff. The
// listener is owned by the server from here on (Close closes it).
func (s *Server) ServeListener(ln net.Listener, ready func(net.Addr)) error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		ln.Close()
		return errServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	if ready != nil {
		ready(ln.Addr())
	}
	retries := 0
	backoff := acceptBackoffMin
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			if errors.Is(err, net.ErrClosed) {
				return err // listener gone for good; no point retrying
			}
			if retries++; retries > acceptRetryMax {
				return fmt.Errorf("miniredis: accept failed %d times, last: %w", retries-1, err)
			}
			time.Sleep(backoff)
			if backoff *= 2; backoff > acceptBackoffCap {
				backoff = acceptBackoffCap
			}
			continue
		}
		retries = 0
		backoff = acceptBackoffMin
		if !s.track(conn) {
			conn.Close() // lost the race with Close
			continue
		}
		s.connTotal.Add(1)
		s.connsWG.Add(1)
		go s.handle(conn)
	}
}

// track registers a live connection, refusing when the server is closed.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// connReadBuffer is a connection's read buffer: a pipeline that fits is
// read with one socket read and parsed in place.
const connReadBuffer = 16 << 10

// connIO is the connection as its buffers see it. The bufio.Reader calls
// Read only when it holds no complete command, which is the moment the
// connection is about to block: pending replies are flushed and the read
// deadline armed there, once per blocking read and not once per command.
// Because nothing guesses from Buffered(), a command split across TCP
// segments cannot strand the replies before it.
type connIO struct {
	s    *Server
	conn net.Conn
	out  *bufio.Writer
}

func (c *connIO) Read(p []byte) (int, error) {
	if err := c.out.Flush(); err != nil {
		return 0, err
	}
	if !c.s.armRead(c.conn) {
		return 0, errServerClosed
	}
	return c.conn.Read(p)
}

// Write sends buffered replies (a flush, or a reply larger than the write
// buffer) under the write deadline.
func (c *connIO) Write(p []byte) (int, error) {
	if d := c.s.writeTimeout; d > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(d))
	}
	return c.conn.Write(p)
}

func (s *Server) handle(conn net.Conn) {
	defer s.connsWG.Done()
	defer s.untrack(conn)
	defer conn.Close()
	// A panic anywhere in this connection's parse/execute/reply cycle —
	// protocol code fed hostile bytes, say — tears down only this
	// connection: the deferred Close above runs, the server keeps serving.
	defer func() { _ = recover() }()
	cio := &connIO{s: s, conn: conn}
	cio.out = bufio.NewWriter(cio)
	w := NewWriter(cio.out)
	r := cmdReader{r: bufio.NewReaderSize(cio, connReadBuffer)}
	for {
		args, err := r.next()
		if err != nil {
			// EOF, deadline expiry (idle timeout, or Close unblocking us)
			// and a failed write are plain disconnects; only protocol
			// garbage earns an error reply.
			if errors.Is(err, ErrProtocol) {
				_ = w.Error("protocol error")
			}
			break
		}
		s.commands.Add(1)
		if s.closed.Load() {
			_ = w.Error("server shutting down")
			break
		}
		// One socket write per reply, pipelined or not. Dropping this Flush
		// is all it takes to answer a pipeline with one write (connIO.Read
		// already flushes before the connection blocks, and that measured
		// 2.3x the pipelined throughput), but benchmark/smoke_test.go pins
		// server.writes_per_req at 1.0 and belongs to a benchmark PR.
		if s.serve(w, args) != nil || w.Flush() != nil {
			break
		}
	}
	_ = w.Flush() // the error reply, if one was written
}

// serve answers one command into w. The error is w's: the connection's
// write side has failed.
func (s *Server) serve(w *Writer, args [][]byte) error {
	// INFO, SLOWLOG, BGSAVE and LASTSAVE are server-level commands: they
	// report on the serving machinery, the flight recorder (trace.go) and the
	// durability controller, so they are answered here rather than routed
	// through the keyspace's operation set.
	if len(args) > 0 {
		switch cmd := args[0]; {
		case cmdIs(cmd, "INFO"):
			return w.Bulk(s.Info())
		case cmdIs(cmd, "SLOWLOG"):
			return s.slowlog(w, args[1:])
		case len(args) == 1 && cmdIs(cmd, "BGSAVE"):
			return s.bgsave(w)
		case len(args) == 1 && cmdIs(cmd, "LASTSAVE"):
			return s.lastsave(w)
		}
	}
	op, errMsg := parseServed(args, s.pairs)
	if errMsg != "" {
		return w.Error(errMsg)
	}
	return WriteResult(w, op, s.execute(op))
}

// parseServed is parseOp for a command in the connection's read buffer,
// which the connection's next command overwrites. A read op keeps
// borrowing the buffer: serve executes and answers it before reading on,
// and no method keeps a read op beyond Execute (NR, SL, RWL and FC+ run it
// in the caller, FC's combiner while the caller waits). An update lives on
// in the log, the WAL and the keyspace, so it gets strings of its own from
// pairs: the interned copy of a pair seen before, else one allocation
// holding key and member.
func parseServed(args [][]byte, pairs *internTable) (StoreOp, string) {
	op, errMsg := parseOp(args)
	if errMsg != "" || IsReadOnlyOp(op) {
		return op, errMsg
	}
	op.Key, op.Member = pairs.own(op.Key, op.Member)
	return op, ""
}

const persistenceOff = "persistence not enabled (start the server with -appendonly)"

// bgsave answers BGSAVE from the durability controller.
func (s *Server) bgsave(w *Writer) error {
	if s.persist == nil {
		return w.Error(persistenceOff)
	}
	if s.persist.BgSave() {
		return w.Simple("Background saving started")
	}
	return w.Error("background save already in progress")
}

// lastsave answers LASTSAVE from the durability controller.
func (s *Server) lastsave(w *Writer) error {
	if s.persist == nil {
		return w.Error(persistenceOff)
	}
	var secs int64
	if ls := s.persist.LastSave(); !ls.IsZero() {
		secs = ls.Unix()
	}
	return w.Int(secs)
}

// armRead refreshes the per-connection read deadline before a blocking
// read. It shares the server mutex with Close so a handler cannot re-arm a
// long deadline after Close has expired it — it sees closed and bows out
// instead.
func (s *Server) armRead(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return false
	}
	if s.readTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.readTimeout))
	}
	return true
}

// Close stops accepting, lets every connection finish the command it is
// executing and flush the replies it owes, and unblocks connections idle in
// a read. Idempotent and safe to call concurrently.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return
	}
	s.closed.Store(true)
	ln := s.ln
	// Expire pending reads so handlers parked in a read return immediately;
	// handlers mid-command finish and reply first because the deadline only
	// interrupts the *next* read.
	for conn := range s.conns {
		_ = conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.connsWG.Wait()
}

// Direct returns an executor for in-process benchmarking — the paper's
// "invoke Redis's operations directly at the server after the RPC layer"
// (§8.3).
func (s *Server) Direct() (baseline.Executor[StoreOp, StoreResult], error) {
	return s.shared.Register()
}
