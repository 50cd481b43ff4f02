package miniredis

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	nr "github.com/asplos17/nr"
	"github.com/asplos17/nr/internal/baseline"
	"github.com/asplos17/nr/internal/topology"
)

func startServer(t *testing.T, method string) (*Server, net.Addr) {
	t.Helper()
	shared, err := NewShared(method, topology.New(2, 4, 1), 7)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(shared, 4)
	if err != nil {
		t.Fatal(err)
	}
	return srv, serveOn(t, srv)
}

// client is a minimal RESP client for tests.
type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, addr net.Addr) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn: conn, r: bufio.NewReader(conn)}
}

// encode renders one command as a RESP array of bulk strings.
func encode(args ...string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "*%d\r\n", len(args))
	for _, a := range args {
		fmt.Fprintf(&b, "$%d\r\n%s\r\n", len(a), a)
	}
	return b.String()
}

func (c *client) cmd(t *testing.T, args ...string) string {
	t.Helper()
	if _, err := c.conn.Write([]byte(encode(args...))); err != nil {
		t.Fatal(err)
	}
	return c.readReply(t)
}

func (c *client) readReply(t *testing.T) string {
	t.Helper()
	line, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	line = strings.TrimRight(line, "\r\n")
	switch line[0] {
	case '+', '-', ':':
		return line
	case '$':
		if line == "$-1" {
			return "(nil)"
		}
		var n int
		fmt.Sscanf(line, "$%d", &n)
		data := make([]byte, n+2) // a bulk string may hold line breaks (INFO)
		if _, err := io.ReadFull(c.r, data); err != nil {
			t.Fatal(err)
		}
		return string(data[:n])
	case '*':
		var n int
		fmt.Sscanf(line, "*%d", &n)
		items := make([]string, 0, n)
		for i := 0; i < n; i++ {
			items = append(items, c.readReply(t))
		}
		return strings.Join(items, ",")
	}
	t.Fatalf("unexpected reply %q", line)
	return ""
}

func TestServerEndToEnd(t *testing.T) {
	_, addr := startServer(t, MethodNR)
	c := dial(t, addr)
	if got := c.cmd(t, "PING"); got != "+PONG" {
		t.Errorf("PING = %q", got)
	}
	if got := c.cmd(t, "SET", "greeting", "hello"); got != "+OK" {
		t.Errorf("SET = %q", got)
	}
	if got := c.cmd(t, "GET", "greeting"); got != "hello" {
		t.Errorf("GET = %q", got)
	}
	if got := c.cmd(t, "GET", "missing"); got != "(nil)" {
		t.Errorf("GET missing = %q", got)
	}
	if got := c.cmd(t, "ZADD", "board", "10", "alice"); got != ":1" {
		t.Errorf("ZADD = %q", got)
	}
	c.cmd(t, "ZADD", "board", "5", "bob")
	c.cmd(t, "ZADD", "board", "15", "carol")
	if got := c.cmd(t, "ZRANK", "board", "alice"); got != ":1" {
		t.Errorf("ZRANK = %q", got)
	}
	if got := c.cmd(t, "ZINCRBY", "board", "20", "bob"); got != "25" {
		t.Errorf("ZINCRBY = %q", got)
	}
	if got := c.cmd(t, "ZRANGE", "board", "0", "-1"); got != "alice,carol,bob" {
		t.Errorf("ZRANGE = %q", got)
	}
	if got := c.cmd(t, "ZRANGE", "board", "0", "0", "WITHSCORES"); got != "alice,10" {
		t.Errorf("ZRANGE WITHSCORES = %q", got)
	}
	if got := c.cmd(t, "ZCARD", "board"); got != ":3" {
		t.Errorf("ZCARD = %q", got)
	}
	if got := c.cmd(t, "DBSIZE"); got != ":2" {
		t.Errorf("DBSIZE = %q", got)
	}
	if got := c.cmd(t, "BOGUS"); !strings.HasPrefix(got, "-ERR") {
		t.Errorf("BOGUS = %q", got)
	}
	if got := c.cmd(t, "ZADD", "greeting", "1", "m"); !strings.HasPrefix(got, "-ERR WRONGTYPE") {
		t.Errorf("type confusion = %q", got)
	}
}

// NaN scores over the wire, executed on both replicas: refused, nothing
// mutated (see TestStoreRefusesNaNScores for what one did to the keyspace).
func TestServerRefusesNaNScores(t *testing.T) {
	_, addr := startServer(t, MethodNR)
	c := dial(t, addr)
	for i, m := range []string{"a", "b", "c"} {
		c.cmd(t, "ZADD", "k", fmt.Sprint(i), m)
	}
	if got := c.cmd(t, "ZADD", "k", "nan", "x"); got != "-ERR "+notFloat {
		t.Errorf("ZADD k nan x = %q", got)
	}
	if got := c.cmd(t, "ZINCRBY", "k", "NaN", "a"); got != "-ERR "+notFloat {
		t.Errorf("ZINCRBY k NaN a = %q", got)
	}
	if got := c.cmd(t, "ZINCRBY", "k", "1", "x"); got != "1" {
		t.Errorf("ZINCRBY k 1 x = %q", got)
	}
	if got := c.cmd(t, "ZADD", "k", "inf", "c"); got != ":0" {
		t.Errorf("ZADD k inf c = %q", got)
	}
	if got := c.cmd(t, "ZINCRBY", "k", "-inf", "c"); got != "-ERR "+resultNaN {
		t.Errorf("ZINCRBY k -inf c = %q", got)
	}
	if got := c.cmd(t, "ZRANGE", "k", "0", "-1", "WITHSCORES"); got != "a,0,b,1,x,1,c,+Inf" {
		t.Errorf("ZRANGE = %q", got)
	}
	if got := c.cmd(t, "ZRANK", "k", "a"); got != ":0" {
		t.Errorf("ZRANK k a = %q", got)
	}
	if got := c.cmd(t, "ZCARD", "k"); got != ":4" {
		t.Errorf("ZCARD = %q", got)
	}
}

func TestServerInlineCommands(t *testing.T) {
	_, addr := startServer(t, MethodSL)
	c := dial(t, addr)
	if _, err := c.conn.Write([]byte("PING\r\n")); err != nil {
		t.Fatal(err)
	}
	if got := c.readReply(t); got != "+PONG" {
		t.Errorf("inline PING = %q", got)
	}
}

func TestServerAllMethods(t *testing.T) {
	for _, method := range []string{MethodNR, MethodSL, MethodRWL, MethodFC, MethodFCP} {
		t.Run(method, func(t *testing.T) {
			_, addr := startServer(t, method)
			c := dial(t, addr)
			c.cmd(t, "ZADD", "s", "1", "x")
			if got := c.cmd(t, "ZSCORE", "s", "x"); got != "1" {
				t.Errorf("%s: ZSCORE = %q", method, got)
			}
		})
	}
	if _, err := NewShared("bogus", topology.New(1, 1, 1), 1); err == nil {
		t.Error("bogus method accepted")
	}
}

func TestServerConcurrentClients(t *testing.T) {
	_, addr := startServer(t, MethodNR)
	const clients, per = 6, 200
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		c := dial(t, addr)
		wg.Add(1)
		go func(g int, c *client) {
			defer wg.Done()
			member := fmt.Sprintf("m%d", g)
			for i := 0; i < per; i++ {
				c.cmd(t, "ZINCRBY", "hot", "1", member)
			}
		}(g, c)
	}
	wg.Wait()
	c := dial(t, addr)
	if got := c.cmd(t, "ZCARD", "hot"); got != fmt.Sprintf(":%d", clients) {
		t.Errorf("ZCARD = %q, want %d members", got, clients)
	}
	for g := 0; g < clients; g++ {
		if got := c.cmd(t, "ZSCORE", "hot", fmt.Sprintf("m%d", g)); got != fmt.Sprintf("%d", per) {
			t.Errorf("member m%d score = %q, want %d", g, got, per)
		}
	}
}

func TestServerDirect(t *testing.T) {
	shared, err := NewShared(MethodNR, topology.New(2, 2, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(shared, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ex, err := srv.Direct()
	if err != nil {
		t.Fatal(err)
	}
	ex.Execute(StoreOp{Cmd: CmdZAdd, Key: "z", Member: "m", Score: 2})
	if r := ex.Execute(StoreOp{Cmd: CmdZRank, Key: "z", Member: "m"}); !r.OK || r.Int != 0 {
		t.Errorf("direct ZRANK = %+v", r)
	}
}

func TestNewServerValidation(t *testing.T) {
	shared, _ := NewShared(MethodSL, topology.New(1, 1, 1), 1)
	if _, err := NewServer(shared, 0); err == nil {
		t.Error("0 workers accepted")
	}
}

// panicExec wraps an executor with an injected panic on SET kaboom, standing
// in for a contained NR user-code panic re-raised by Execute.
type panicExec struct {
	inner baseline.Executor[StoreOp, StoreResult]
}

func (p panicExec) Execute(op StoreOp) StoreResult {
	if op.Cmd == CmdSet && op.Key == "kaboom" {
		panic("injected store panic")
	}
	return p.inner.Execute(op)
}

type panicShared struct{ inner Shared }

func (p panicShared) Register() (baseline.Executor[StoreOp, StoreResult], error) {
	ex, err := p.inner.Register()
	if err != nil {
		return nil, err
	}
	return panicExec{ex}, nil
}

// TestServerWorkerSurvivesExecutePanic: a panic escaping the keyspace turns
// into an error reply on the offending connection only; the executor it
// panicked on is back in the pool and every other connection keeps working.
func TestServerWorkerSurvivesExecutePanic(t *testing.T) {
	inner, err := NewShared(MethodSL, topology.New(1, 2, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(panicShared{inner}, 2)
	if err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan net.Addr, 1)
	go func() { _ = srv.Serve("127.0.0.1:0", func(a net.Addr) { addrCh <- a }) }()
	addr := <-addrCh
	t.Cleanup(srv.Close)

	c := dial(t, addr)
	for i := 0; i < 3; i++ { // hit both executors repeatedly
		if got := c.cmd(t, "SET", "kaboom", "x"); !strings.HasPrefix(got, "-ERR internal error") {
			t.Fatalf("panic op reply = %q, want -ERR internal error", got)
		}
	}
	// A reply is written after its executor went back, so the pool is full.
	if len(srv.pool) != cap(srv.pool) {
		t.Errorf("%d of %d executors in the pool after panics", len(srv.pool), cap(srv.pool))
	}
	// Same connection still works.
	if got := c.cmd(t, "SET", "fine", "1"); got != "+OK" {
		t.Errorf("SET after panic = %q", got)
	}
	// Fresh connections too.
	c2 := dial(t, addr)
	if got := c2.cmd(t, "GET", "fine"); got != "1" {
		t.Errorf("GET on new conn = %q", got)
	}
}

// panickyStore is the real keyspace with a user-code fault: SET kaboom
// panics inside Execute on the replicas for which panics is true.
type panickyStore struct {
	*Store
	panics bool
}

func (p panickyStore) Execute(op StoreOp) StoreResult {
	if p.panics && op.Cmd == CmdSet && op.Key == "kaboom" {
		panic("injected store panic")
	}
	return p.Store.Execute(op)
}

// startPanickyNR serves an NR keyspace of two nodes, one executor on each,
// whose replica n panics on SET kaboom when panicsOn(n): the path a panic
// takes in nrredis, through NR's containment and Execute's re-raise.
func startPanickyNR(t *testing.T, panicsOn func(replica int) bool) (*Server, net.Addr) {
	t.Helper()
	next := 0
	inst, err := nr.New(func() nr.Sequential[StoreOp, StoreResult] {
		n := next
		next++
		return panickyStore{NewStore(7), panicsOn(n)}
	}, nr.WithNodes(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(&nrShared{inst: inst}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return srv, serveOn(t, srv)
}

// TestServerNRContainsExecutePanic: a command whose Execute panics on every
// replica is answered with an error reply; the connection, both executors
// and the instance keep serving, and the panic is counted, not poisoning.
func TestServerNRContainsExecutePanic(t *testing.T) {
	srv, addr := startPanickyNR(t, func(int) bool { return true })
	c := dial(t, addr)
	for i := 0; i < 3; i++ { // hit both executors, on both nodes
		if got := c.cmd(t, "SET", "kaboom", "x"); !strings.HasPrefix(got, "-ERR internal error executing command") {
			t.Fatalf("panic op reply = %q, want -ERR internal error executing command", got)
		}
	}
	if len(srv.pool) != cap(srv.pool) {
		t.Errorf("%d of %d executors in the pool after panics", len(srv.pool), cap(srv.pool))
	}
	if got := c.cmd(t, "SET", "fine", "1"); got != "+OK" {
		t.Errorf("SET after panic = %q", got)
	}
	if got := dial(t, addr).cmd(t, "GET", "fine"); got != "1" {
		t.Errorf("GET on a new connection = %q", got)
	}
	m, _ := srv.Metrics()
	if m.Health.Poisoned || m.Health.Panics == 0 {
		t.Errorf("health = %+v, want contained panics and no poison", m.Health)
	}
}

// TestServerCloseWithIdleClient: Close must return even while a client sits
// idle in a keepalive read (the pre-hardening server waited for the client
// to hang up first).
func TestServerCloseWithIdleClient(t *testing.T) {
	srv, addr := startServer(t, MethodSL)
	c := dial(t, addr)
	if got := c.cmd(t, "PING"); got != "+PONG" {
		t.Fatalf("PING = %q", got)
	}
	// Client idles; Close must not wait on it.
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on an idle connection")
	}
	// The idle client observes the disconnect.
	if _, err := c.r.ReadByte(); err == nil {
		t.Error("idle connection still open after Close")
	}
}

// slowExec delays SET so a command can be in flight during Close.
type slowExec struct {
	inner baseline.Executor[StoreOp, StoreResult]
}

func (s slowExec) Execute(op StoreOp) StoreResult {
	if op.Cmd == CmdSet {
		time.Sleep(100 * time.Millisecond)
	}
	return s.inner.Execute(op)
}

type slowShared struct{ inner Shared }

func (s slowShared) Register() (baseline.Executor[StoreOp, StoreResult], error) {
	ex, err := s.inner.Register()
	if err != nil {
		return nil, err
	}
	return slowExec{ex}, nil
}

// TestServerCloseDrainsInFlight: a command already executing when Close is
// called still gets its reply before the connection goes down.
func TestServerCloseDrainsInFlight(t *testing.T) {
	inner, err := NewShared(MethodSL, topology.New(1, 2, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(slowShared{inner}, 2)
	if err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan net.Addr, 1)
	go func() { _ = srv.Serve("127.0.0.1:0", func(a net.Addr) { addrCh <- a }) }()
	addr := <-addrCh
	t.Cleanup(srv.Close)

	c := dial(t, addr)
	reply := make(chan string, 1)
	go func() { reply <- c.cmd(t, "SET", "slow", "v") }()
	time.Sleep(20 * time.Millisecond) // let the command reach its executor
	srv.Close()
	select {
	case got := <-reply:
		if got != "+OK" {
			t.Errorf("in-flight SET during Close = %q, want +OK", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight command never got its reply")
	}
}

// TestServerReadTimeoutDisconnectsIdleClient: WithReadTimeout bounds how
// long an idle connection can hold server resources.
func TestServerReadTimeoutDisconnectsIdleClient(t *testing.T) {
	shared, err := NewShared(MethodSL, topology.New(1, 2, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(shared, 1, WithReadTimeout(50*time.Millisecond), WithWriteTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan net.Addr, 1)
	go func() { _ = srv.Serve("127.0.0.1:0", func(a net.Addr) { addrCh <- a }) }()
	addr := <-addrCh
	t.Cleanup(srv.Close)

	c := dial(t, addr)
	if got := c.cmd(t, "PING"); got != "+PONG" {
		t.Fatalf("PING = %q", got)
	}
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.r.ReadByte(); err == nil {
		t.Error("idle connection not closed by read timeout")
	}
}

func TestServerDoubleClose(t *testing.T) {
	srv, _ := startServer(t, MethodSL)
	srv.Close()
	srv.Close() // idempotent
}

// serveOn starts srv on a loopback port and closes it with the test.
func serveOn(t *testing.T, srv *Server) net.Addr {
	t.Helper()
	addrCh := make(chan net.Addr, 1)
	go func() {
		if err := srv.Serve("127.0.0.1:0", func(a net.Addr) { addrCh <- a }); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(srv.Close)
	return <-addrCh
}

// replyDeadline bounds a test's wait for a reply well below the server's
// read timeout (5 minutes), so a reply the server is sitting on fails the
// test rather than arriving when the server gives up on the connection.
const replyDeadline = 10 * time.Second

// mixedPipeline is 64 commands: reads, updates, an unknown command, an
// arity error, a bad float, and INFO in the middle.
func mixedPipeline() [][]string {
	cmds := [][]string{
		{"PING"},
		{"SET", "greeting", "hello"},
		{"GET", "greeting"},
		{"BOGUS", "x"},
		{"ZADD", "board", "10"}, // arity
		{"ZADD", "board", "ten", "alice"},
		{"zadd", "board", "10", "alice"},
	}
	for i := 0; len(cmds) < 30; i++ {
		m := fmt.Sprintf("m%d", i%5)
		cmds = append(cmds, []string{"ZINCRBY", "board", "1.5", m}, []string{"ZRANK", "board", m})
	}
	cmds = append(cmds, []string{"INFO"}, []string{"LASTSAVE"}, []string{"SLOWLOG", "LEN"})
	for i := 0; len(cmds) < 62; i++ {
		m := fmt.Sprintf("m%d", i%7)
		cmds = append(cmds, []string{"ZINCRBY", "board", "2", m}, []string{"ZSCORE", "board", m}, []string{"GET", "nokey"})
	}
	return append(cmds[:62], []string{"ZRANGE", "board", "0", "-1", "WITHSCORES"}, []string{"DBSIZE"})
}

// TestServerPipelineMatchesSequential: a pipeline sent in one write gets
// one reply per command, in order, and each reply is what the same command
// gets when sent alone and waited for. It runs on every method, since a
// read op borrows the connection's buffer on each of them (under FC it is
// executed by another goroutine, the combiner).
func TestServerPipelineMatchesSequential(t *testing.T) {
	for _, method := range []string{MethodNR, MethodSL, MethodRWL, MethodFC, MethodFCP} {
		t.Run(method, func(t *testing.T) { testPipelineMatchesSequential(t, method) })
	}
}

func testPipelineMatchesSequential(t *testing.T, method string) {
	cmds := mixedPipeline()
	if len(cmds) != 64 {
		t.Fatalf("pipeline of %d commands, want 64", len(cmds))
	}
	normalize := func(cmd []string, reply string) string {
		if cmd[0] == "INFO" { // uptime and counters differ between two servers
			if !strings.HasPrefix(reply, "# Server") {
				t.Errorf("INFO = %.40q", reply)
			}
			return "# Server"
		}
		return reply
	}

	_, addr := startServer(t, method)
	c := dial(t, addr)
	var wire strings.Builder
	for _, cmd := range cmds {
		wire.WriteString(encode(cmd...))
	}
	if _, err := c.conn.Write([]byte(wire.String())); err != nil {
		t.Fatal(err)
	}
	c.conn.SetReadDeadline(time.Now().Add(replyDeadline))
	pipelined := make([]string, len(cmds))
	for i, cmd := range cmds {
		pipelined[i] = normalize(cmd, c.readReply(t))
	}

	_, addr = startServer(t, method)
	c = dial(t, addr)
	for i, cmd := range cmds {
		if got := normalize(cmd, c.cmd(t, cmd...)); got != pipelined[i] {
			t.Errorf("command %d %q: %q pipelined, %q alone", i, cmd, pipelined[i], got)
		}
	}
	for i, want := range map[int]string{0: "+PONG", 3: "-ERR unknown command 'BOGUS'", 4: "-ERR wrong number of arguments for 'zadd' command", 6: ":1"} {
		if pipelined[i] != want {
			t.Errorf("command %d %q = %q, want %q", i, cmds[i], pipelined[i], want)
		}
	}
}

// TestServerPipelineInPieces: however the bytes of a pipeline arrive, every
// complete command is answered as soon as the server has it — replies are
// flushed before the server blocks on the rest, never held for it.
func TestServerPipelineInPieces(t *testing.T) {
	_, addr := startServer(t, MethodSL)

	t.Run("one byte per write", func(t *testing.T) {
		c := dial(t, addr)
		wire := encode("SET", "k", "v") + "PING\r\n" + encode("GET", "k") + encode("ZADD", "z", "1", "m") + encode("ZCARD", "z")
		go func() {
			for i := 0; i < len(wire); i++ {
				if _, err := c.conn.Write([]byte{wire[i]}); err != nil {
					return
				}
			}
		}()
		c.conn.SetReadDeadline(time.Now().Add(replyDeadline))
		for i, want := range []string{"+OK", "+PONG", "v", ":1", ":1"} {
			if got := c.readReply(t); got != want {
				t.Errorf("reply %d = %q, want %q", i, got, want)
			}
		}
	})

	t.Run("split inside a bulk string", func(t *testing.T) {
		c := dial(t, addr)
		last := encode("SET", "big", strings.Repeat("x", 100))
		head := encode("PING") + encode("SET", "a", "1") + encode("GET", "a") + last[:len(last)-40]
		if _, err := c.conn.Write([]byte(head)); err != nil {
			t.Fatal(err)
		}
		// The three complete commands are answered while the fourth is
		// still half sent.
		c.conn.SetReadDeadline(time.Now().Add(replyDeadline))
		for i, want := range []string{"+PONG", "+OK", "1"} {
			if got := c.readReply(t); got != want {
				t.Errorf("reply %d = %q, want %q", i, got, want)
			}
		}
		time.Sleep(50 * time.Millisecond)
		if _, err := c.conn.Write([]byte(last[len(last)-40:] + encode("GET", "a"))); err != nil {
			t.Fatal(err)
		}
		for i, want := range []string{"+OK", "1"} {
			if got := c.readReply(t); got != want {
				t.Errorf("reply %d after the pause = %q, want %q", i, got, want)
			}
		}
	})
}

// TestServerSlowReaderDoesNotHoldAnExecutor: with a single executor, a
// client that pipelines large replies and never reads them ends up blocked
// in a socket write, and must not be holding the executor while it is.
func TestServerSlowReaderDoesNotHoldAnExecutor(t *testing.T) {
	shared, err := NewShared(MethodSL, topology.New(1, 2, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(shared, 1)
	if err != nil {
		t.Fatal(err)
	}
	addr := serveOn(t, srv)

	good := dial(t, addr)
	member := strings.Repeat("m", 200)
	for i := 0; i < 500; i++ {
		good.cmd(t, "ZADD", "wide", "1", fmt.Sprintf("%s%04d", member, i))
	}
	// ~100 KB per ZRANGE reply, 400 of them: far more than the socket
	// buffers between the server and a client that does not read.
	deaf := dial(t, addr)
	go func() {
		_, _ = deaf.conn.Write([]byte(strings.Repeat(encode("ZRANGE", "wide", "0", "-1"), 400)))
	}()
	// Wait until the server stops making progress on it: blocked writing.
	for last, same := uint64(0), 0; same < 5; {
		time.Sleep(20 * time.Millisecond)
		if n := srv.commands.Load(); n == last {
			same++
		} else {
			last, same = n, 0
		}
	}
	good.conn.SetReadDeadline(time.Now().Add(replyDeadline))
	for i := 0; i < 50; i++ {
		if got := good.cmd(t, "ZCARD", "wide"); got != ":500" {
			t.Fatalf("second client while the first is stuck: ZCARD = %q", got)
		}
	}
	if len(srv.pool) != 1 {
		t.Errorf("the executor is not in the pool while the only busy connection is blocked writing")
	}
}

// TestServerMoreConnectionsThanExecutors: three times as many pipelining
// connections as executors all finish, with every update applied.
func TestServerMoreConnectionsThanExecutors(t *testing.T) {
	shared, err := NewShared(MethodNR, topology.New(2, 1, 1), 5)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(shared, 2)
	if err != nil {
		t.Fatal(err)
	}
	addr := serveOn(t, srv)
	const conns, rounds, depth = 6, 40, 8
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		c := dial(t, addr)
		wg.Add(1)
		go func(g int, c *client) {
			defer wg.Done()
			batch := strings.Repeat(encode("ZINCRBY", "hot", "1", fmt.Sprintf("m%d", g)), depth)
			c.conn.SetReadDeadline(time.Now().Add(3 * replyDeadline))
			for r := 0; r < rounds; r++ {
				if _, err := c.conn.Write([]byte(batch)); err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < depth; i++ {
					if want := fmt.Sprint(r*depth + i + 1); c.readReply(t) != want {
						t.Errorf("conn %d: reply %d of round %d out of order", g, i, r)
						return
					}
				}
			}
		}(g, c)
	}
	wg.Wait()
	c := dial(t, addr)
	for g := 0; g < conns; g++ {
		if got := c.cmd(t, "ZSCORE", "hot", fmt.Sprintf("m%d", g)); got != fmt.Sprint(rounds*depth) {
			t.Errorf("member m%d score = %q, want %d", g, got, rounds*depth)
		}
	}
}

// rotationShared hands out executors that report which of them ran an op.
type rotationShared struct {
	inner Shared
	ids   chan int
	n     int
}

type rotationExec struct {
	inner baseline.Executor[StoreOp, StoreResult]
	id    int
	ids   chan int
}

func (e rotationExec) Execute(op StoreOp) StoreResult {
	e.ids <- e.id
	return e.inner.Execute(op)
}

func (s *rotationShared) Register() (baseline.Executor[StoreOp, StoreResult], error) {
	ex, err := s.inner.Register()
	if err != nil {
		return nil, err
	}
	s.n++
	return rotationExec{ex, s.n - 1, s.ids}, nil
}

// TestServerRotatesExecutors: the pool is FIFO, so even a single connection
// takes every executor — and with it every node's replica — in turn.
func TestServerRotatesExecutors(t *testing.T) {
	inner, err := NewShared(MethodSL, topology.New(2, 2, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	const executors, commands = 4, 12
	ids := make(chan int, commands) // one send per command below
	srv, err := NewServer(&rotationShared{inner: inner, ids: ids}, executors)
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, serveOn(t, srv))
	for i := 0; i < commands; i++ {
		c.cmd(t, "PING")
		if id := <-ids; id != i%executors {
			t.Fatalf("command %d ran on executor %d, want %d", i, id, i%executors)
		}
	}
}

// TestServerCloseDuringPipeline: Close while a pipeline is being served.
// Every command the server started is answered in order, the first one it
// will not start is refused, nothing answered is lost in the write buffer,
// and the connection ends.
func TestServerCloseDuringPipeline(t *testing.T) {
	inner, err := NewShared(MethodSL, topology.New(1, 2, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(slowShared{inner}, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, serveOn(t, srv))
	const depth = 8 // 100 ms each: Close arrives during the first
	if _, err := c.conn.Write([]byte(strings.Repeat(encode("SET", "slow", "v"), depth))); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()

	c.conn.SetReadDeadline(time.Now().Add(replyDeadline))
	var replies []string
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			if err != io.EOF || line != "" {
				t.Fatalf("connection ended with %v after %q", err, line)
			}
			break
		}
		replies = append(replies, strings.TrimRight(line, "\r\n"))
	}
	if len(replies) == 0 || replies[0] != "+OK" {
		t.Fatalf("the command in flight during Close was not answered: %q", replies)
	}
	if len(replies) > depth {
		t.Fatalf("%d replies to %d commands: %q", len(replies), depth, replies)
	}
	for i, r := range replies {
		if r != "+OK" && !(i == len(replies)-1 && r == "-ERR server shutting down") {
			t.Errorf("reply %d = %q", i, r)
		}
	}
	select {
	case <-closed:
	case <-time.After(replyDeadline):
		t.Fatal("Close did not return")
	}
}

// TestServerHostileClientIsCutOff: a client whose header line never ends
// is told so and disconnected, instead of being buffered without limit.
func TestServerHostileClientIsCutOff(t *testing.T) {
	_, addr := startServer(t, MethodSL)
	for _, hostile := range []string{"*" + strings.Repeat("9", 4*maxHeaderLine), strings.Repeat("a", 2*maxInlineLine)} {
		c := dial(t, addr)
		go func() { _, _ = c.conn.Write([]byte(hostile)) }() // no newline, ever
		c.conn.SetReadDeadline(time.Now().Add(replyDeadline))
		if got := c.readReply(t); got != "-ERR protocol error" {
			t.Errorf("reply to %.20q... = %q", hostile, got)
		}
		if _, err := c.r.ReadByte(); err == nil {
			t.Error("connection still open after a protocol error")
		}
	}
}

// TestServerReplyCannotBeForged: client bytes quoted in an error reply
// cannot end that reply and start another. The command name below used to
// come back as three replies, leaving the connection one reply out of step.
func TestServerReplyCannotBeForged(t *testing.T) {
	_, addr := startServer(t, MethodSL)
	c := dial(t, addr)
	if _, err := c.conn.Write([]byte(encode("FOO\r\n+FAKE\r\n:1") + encode("PING"))); err != nil {
		t.Fatal(err)
	}
	c.conn.SetReadDeadline(time.Now().Add(replyDeadline))
	if got := c.readReply(t); got != "-ERR unknown command 'FOO  +FAKE  :1'" {
		t.Errorf("reply to the forged command name = %q", got)
	}
	if got := c.readReply(t); got != "+PONG" {
		t.Errorf("the reply after it = %q, want +PONG", got)
	}
}

// TestNegativeZeroScoreReplies: a member stored at -0 answers -0, as Redis
// does, from ZRANGE … WITHSCORES and ZSCORE, beside a member at +0 that
// ties with it. The replies are compared with literal RESP bytes, through
// Store.Execute and WriteResult and over a connection to a Server.
func TestNegativeZeroScoreReplies(t *testing.T) {
	cmds := [][]string{
		{"ZADD", "k", "-0", "m"},
		{"ZADD", "k", "0", "a"},
		{"ZRANGE", "k", "0", "-1", "WITHSCORES"},
		{"ZSCORE", "k", "m"},
		{"ZSCORE", "k", "a"},
	}
	const want = ":1\r\n" + ":1\r\n" +
		"*4\r\n$1\r\na\r\n$1\r\n0\r\n$1\r\nm\r\n$2\r\n-0\r\n" +
		"$2\r\n-0\r\n" +
		"$1\r\n0\r\n"
	t.Run("store", func(t *testing.T) {
		st := NewStore(1)
		var buf bytes.Buffer
		w := NewWriter(bufio.NewWriter(&buf))
		for _, args := range cmds {
			op, errMsg := ParseCommand(args)
			if errMsg != "" {
				t.Fatalf("%v: %s", args, errMsg)
			}
			if err := WriteResult(w, op, st.Execute(op)); err != nil {
				t.Fatal(err)
			}
		}
		w.Flush()
		if got := buf.String(); got != want {
			t.Errorf("replies = %q, want %q", got, want)
		}
	})
	t.Run("server", func(t *testing.T) {
		_, addr := startServer(t, MethodNR)
		c := dial(t, addr)
		var req strings.Builder
		for _, args := range cmds {
			req.WriteString(encode(args...))
		}
		if _, err := c.conn.Write([]byte(req.String())); err != nil {
			t.Fatal(err)
		}
		// A wrong reply may be shorter than want: the deadline ends the read.
		c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		got := make([]byte, len(want))
		n, err := io.ReadFull(c.r, got)
		if got = got[:n]; string(got) != want {
			t.Errorf("replies = %q (%v), want %q", got, err, want)
		}
	})
}
