package miniredis

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// refReadCommand is the parser this package shipped before cmdReader,
// kept as the reference the differential fuzz target compares the new one
// against. It differs from what shipped in three places only: the line
// limits of the new parser are bolted on (maxHeaderLine, maxInlineLine), so
// the two agree on every input and not just on inputs inside the limits; a
// bulk payload is read with a LimitReader, because the original's
// make([]byte, ln+2) — one of the defects the new parser fixes — would have
// the fuzzer allocate 64 MiB per announced length; and refSplitInline
// appends s[i:i+1] where the original appended string(s[i]), which turned
// every inline byte above 0x7f into a two-byte rune (the fuzz target's
// first finding).
func refReadCommand(r *bufio.Reader) ([]string, error) {
	first, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if first != respArray {
		// Inline command.
		if err := r.UnreadByte(); err != nil {
			return nil, err
		}
		lineBytes, err := r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		if len(lineBytes) > maxInlineLine {
			return nil, ErrProtocol
		}
		return refSplitInline(refTrimCRLF(lineBytes)), nil
	}
	n, err := refReadInt(r)
	if err != nil {
		return nil, err
	}
	if n < 0 || n > 1024 {
		return nil, fmt.Errorf("%w: array length %d", ErrProtocol, n)
	}
	args := make([]string, 0, n)
	for i := int64(0); i < n; i++ {
		marker, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		if marker != respBulk {
			return nil, fmt.Errorf("%w: expected bulk string, got %q", ErrProtocol, marker)
		}
		ln, err := refReadInt(r)
		if err != nil {
			return nil, err
		}
		if ln < 0 || ln > 64<<20 {
			return nil, fmt.Errorf("%w: bulk length %d", ErrProtocol, ln)
		}
		buf, err := io.ReadAll(io.LimitReader(r, ln+2))
		if err != nil {
			return nil, err
		}
		if int64(len(buf)) < ln+2 {
			return nil, io.ErrUnexpectedEOF
		}
		if buf[ln] != '\r' || buf[ln+1] != '\n' {
			return nil, fmt.Errorf("%w: bulk string missing CRLF", ErrProtocol)
		}
		args = append(args, string(buf[:ln]))
	}
	return args, nil
}

func refTrimCRLF(s string) string {
	for len(s) > 0 && (s[len(s)-1] == '\n' || s[len(s)-1] == '\r') {
		s = s[:len(s)-1]
	}
	return s
}

func refSplitInline(s string) []string {
	var out []string
	field := ""
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			if field != "" {
				out = append(out, field)
				field = ""
			}
			continue
		}
		field += s[i : i+1]
	}
	if field != "" {
		out = append(out, field)
	}
	return out
}

// refReadInt reads the rest of a header line whose marker byte has been
// consumed.
func refReadInt(r *bufio.Reader) (int64, error) {
	s, err := r.ReadString('\n')
	if err != nil {
		return 0, err
	}
	if 1+len(s) > maxHeaderLine {
		return 0, ErrProtocol
	}
	return strconv.ParseInt(refTrimCRLF(s), 10, 64)
}

func readerFor(s string) *bufio.Reader { return bufio.NewReader(strings.NewReader(s)) }

func TestReadCommandArray(t *testing.T) {
	r := readerFor("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n")
	args, err := ReadCommand(r)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"SET", "k", "hello"}
	if len(args) != len(want) {
		t.Fatalf("args = %v", args)
	}
	for i := range want {
		if args[i] != want[i] {
			t.Fatalf("args = %v, want %v", args, want)
		}
	}
}

func TestReadCommandInline(t *testing.T) {
	r := readerFor("PING\r\n")
	args, err := ReadCommand(r)
	if err != nil || len(args) != 1 || args[0] != "PING" {
		t.Fatalf("args=%v err=%v", args, err)
	}
	r = readerFor("SET  key   value\n") // extra spaces, bare LF
	args, err = ReadCommand(r)
	if err != nil || len(args) != 3 || args[2] != "value" {
		t.Fatalf("args=%v err=%v", args, err)
	}
}

func TestReadCommandBinarySafeBulk(t *testing.T) {
	r := readerFor("*2\r\n$3\r\nGET\r\n$4\r\na\r\nb\r\n")
	args, err := ReadCommand(r)
	if err != nil {
		t.Fatal(err)
	}
	if args[1] != "a\r\nb" {
		t.Fatalf("bulk with embedded CRLF = %q", args[1])
	}
}

func TestReadCommandProtocolErrors(t *testing.T) {
	cases := []string{
		"*2\r\n$3\r\nGET\r\n:5\r\n", // non-bulk element
		"*1\r\n$3\r\nGETxx",         // missing CRLF after bulk
		"*99999\r\n",                // absurd array length
		"*1\r\n$-5\r\n",             // negative bulk length
		"*x\r\n",                    // non-numeric length
	}
	for _, c := range cases {
		if _, err := ReadCommand(readerFor(c)); err == nil {
			t.Errorf("ReadCommand(%q) accepted", c)
		}
	}
}

func TestReadCommandEOF(t *testing.T) {
	if _, err := ReadCommand(readerFor("")); err == nil {
		t.Error("empty input accepted")
	}
}

func TestWriterReplies(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(bufio.NewWriter(&buf))
	if err := w.Simple("OK"); err != nil {
		t.Fatal(err)
	}
	if err := w.Error("bad thing"); err != nil {
		t.Fatal(err)
	}
	if err := w.Int(-7); err != nil {
		t.Fatal(err)
	}
	if err := w.Bulk("hi"); err != nil {
		t.Fatal(err)
	}
	if err := w.Nil(); err != nil {
		t.Fatal(err)
	}
	if err := w.Array([]string{"a", "bc"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "+OK\r\n-ERR bad thing\r\n:-7\r\n$2\r\nhi\r\n$-1\r\n*2\r\n$1\r\na\r\n$2\r\nbc\r\n"
	if got := buf.String(); got != want {
		t.Errorf("wire output = %q, want %q", got, want)
	}
}

func TestFormatScore(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{1, "1"}, {1.5, "1.5"}, {-3, "-3"}, {0.1, "0.1"},
	}
	for _, c := range cases {
		if got := FormatScore(c.in); got != c.want {
			t.Errorf("FormatScore(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestWriteResultPerCommand(t *testing.T) {
	render := func(op StoreOp, res StoreResult) string {
		var buf bytes.Buffer
		w := NewWriter(bufio.NewWriter(&buf))
		if err := WriteResult(w, op, res); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		return buf.String()
	}
	if got := render(StoreOp{Cmd: CmdPing}, StoreResult{OK: true}); got != "+PONG\r\n" {
		t.Errorf("PING reply = %q", got)
	}
	if got := render(StoreOp{Cmd: CmdGet}, StoreResult{}); got != "$-1\r\n" {
		t.Errorf("GET miss reply = %q", got)
	}
	if got := render(StoreOp{Cmd: CmdZRank}, StoreResult{OK: true, Int: 3}); got != ":3\r\n" {
		t.Errorf("ZRANK reply = %q", got)
	}
	if got := render(StoreOp{Cmd: CmdZIncrBy}, StoreResult{OK: true, Score: 2.5}); got != "$3\r\n2.5\r\n" {
		t.Errorf("ZINCRBY reply = %q", got)
	}
	if got := render(StoreOp{Cmd: CmdZAdd}, StoreResult{Err: "boom"}); got != "-ERR boom\r\n" {
		t.Errorf("error reply = %q", got)
	}
	if got := render(StoreOp{Cmd: CmdZRange}, StoreResult{OK: true, Members: []string{"m"}}); got != "*1\r\n$1\r\nm\r\n" {
		t.Errorf("ZRANGE reply = %q", got)
	}
}

// endless is a client that keeps sending one byte and counts what the
// parser took from it.
type endless struct {
	b    byte
	read int
}

func (e *endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = e.b
	}
	e.read += len(p)
	return len(p), nil
}

// TestReadCommandHostileInputFailsClosed: each limit of the parser, probed
// by a client that never sends what would end the element. The parser must
// answer with ErrProtocol after taking a bounded number of bytes, and must
// not allocate for bytes that have not arrived.
func TestReadCommandHostileInputFailsClosed(t *testing.T) {
	const bufSize = 4096 // bufio's default: read-ahead the parser cannot avoid
	cases := []struct {
		name    string
		prefix  string // sent first
		forever byte   // then this byte, without end
		maxRead int    // bytes the parser may take from the client
	}{
		{"array header never terminated", "*", '1', maxHeaderLine + bufSize},
		{"bulk header never terminated", "*1\r\n$", '1', maxHeaderLine + bufSize},
		{"inline line never terminated", "", 'a', maxInlineLine + bufSize},
		{"array of too many elements", "*1025\r\n", 'x', bufSize},
		{"bulk longer than a whole command may be", "*1\r\n$67108865\r\n", 'x', bufSize},
		{"negative bulk length", "*1\r\n$-1\r\n", 'x', bufSize},
		{"element that is not a bulk string", "*1\r\n:", '1', bufSize},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tail := &endless{b: tc.forever}
			r := bufio.NewReaderSize(io.MultiReader(strings.NewReader(tc.prefix), tail), bufSize)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadCommand(r)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("err = %v, want ErrProtocol", err)
			}
			if tail.read > tc.maxRead {
				t.Errorf("took %d bytes from the client before giving up, want <= %d", tail.read, tc.maxRead)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*maxInlineLine {
				t.Errorf("allocated %d bytes while rejecting", grew)
			}
		})
	}
}

// TestReadCommandAllocatesOnlyForBytesReceived: a header that announces the
// largest bulk string allowed and then nothing. The old parser allocated the
// announced size (times up to 1024 elements) before the first payload byte.
func TestReadCommandAllocatesOnlyForBytesReceived(t *testing.T) {
	in := "*1024\r\n$" + strconv.Itoa(maxCommandBytes-64) + "\r\nabc"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadCommand(readerFor(in))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want EOF in the middle of the payload", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Errorf("allocated %d bytes for a %d-byte input", grew, len(in))
	}
}

// TestReadCommandTotalSizeLimit: elements that are each allowed but together
// exceed maxCommandBytes are refused at the header that crosses the line.
func TestReadCommandTotalSizeLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("feeds 32 MiB through the parser")
	}
	const half = maxCommandBytes / 2
	hdr := "$" + strconv.Itoa(half) + "\r\n"
	in := io.MultiReader(
		strings.NewReader("*2\r\n"+hdr),
		io.LimitReader(&endless{b: 'x'}, half),
		strings.NewReader("\r\n"+hdr),
		&endless{b: 'x'},
	)
	_, err := ReadCommand(bufio.NewReader(in))
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

// TestCmdReaderLeavesThePipelineBuffered: the reader takes exactly one
// command per call, whether the command was whole in the buffer or had to be
// pieced together, and a spill buffer that served a big command is dropped.
func TestCmdReaderLeavesThePipelineBuffered(t *testing.T) {
	big := strings.Repeat("v", 3*maxKeptSpill)
	in := "PING\r\n" +
		"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$" + strconv.Itoa(len(big)) + "\r\n" + big + "\r\n" +
		"*1\r\n$4\r\nPING\r\n" + "*0\r\n" + "GET k\n"
	want := [][]string{{"PING"}, {"SET", "k", big}, {"PING"}, {}, {"GET", "k"}}
	c := cmdReader{r: bufio.NewReaderSize(strings.NewReader(in), 64)}
	for i, w := range want {
		args, err := c.next()
		if err != nil {
			t.Fatalf("command %d: %v", i, err)
		}
		if len(args) != len(w) {
			t.Fatalf("command %d: %d args, want %d", i, len(args), len(w))
		}
		for j := range w {
			if string(args[j]) != w[j] {
				t.Fatalf("command %d arg %d = %.40q, want %.40q", i, j, args[j], w[j])
			}
		}
	}
	if _, err := c.next(); err != io.EOF {
		t.Fatalf("after the last command: %v, want EOF", err)
	}
	if cap(c.spill) > maxKeptSpill {
		t.Errorf("spill buffer of %d bytes kept after its command", cap(c.spill))
	}
}

// TestServingPathAllocations pins the server's own path — bytes in the read
// buffer to StoreOp to reply bytes in the write buffer — at the strings the
// op must own, because it outlives the buffer in the log: at most two (key
// and member), exactly as many as the command carries. It runs every
// command parseOp knows, every reply shape WriteResult writes, an inline
// command, and a command that does not fit the read buffer (the spill path).
func TestServingPathAllocations(t *testing.T) {
	bulk := func(args ...string) string {
		s := "*" + strconv.Itoa(len(args)) + "\r\n"
		for _, a := range args {
			s += "$" + strconv.Itoa(len(a)) + "\r\n" + a + "\r\n"
		}
		return s
	}
	members := []string{"item:001234", "1235.5"}
	cases := []struct {
		name string
		wire string
		res  StoreResult
		owns float64 // strings the op copies out of the buffer (a one-byte string would not allocate)
		buf  int     // read buffer size; 0 for the server's
	}{
		{"ZRANK", bulk("ZRANK", "bench:zset", "item:001234"), StoreResult{OK: true, Int: 1234}, 2, 0},
		{"ZINCRBY", bulk("ZINCRBY", "bench:zset", "1", "item:001234"), StoreResult{OK: true, Score: 1235.5}, 2, 0},
		{"ZRANK-nil", bulk("ZRANK", "bench:zset", "nobody"), StoreResult{}, 2, 0},
		{"ZINCRBY-error", bulk("ZINCRBY", "bench:zset", "1", "item:001234"), StoreResult{Err: resultNaN}, 2, 0},
		{"PING", bulk("PING"), StoreResult{}, 0, 0},
		{"SET", bulk("SET", "key:1", "value:1"), StoreResult{OK: true}, 2, 0},
		{"GET", bulk("GET", "key:1"), StoreResult{OK: true, Str: "value:1"}, 1, 0},
		{"GET-nil", bulk("GET", "key:2"), StoreResult{}, 1, 0},
		{"DEL", bulk("DEL", "key:1"), StoreResult{Int: 1}, 1, 0},
		{"ZADD", bulk("ZADD", "bench:zset", "2.5", "item:001234"), StoreResult{Int: 1}, 2, 0},
		{"ZREM", bulk("ZREM", "bench:zset", "item:001234"), StoreResult{Int: 1}, 2, 0},
		{"ZSCORE", bulk("ZSCORE", "bench:zset", "item:001234"), StoreResult{OK: true, Score: 2.5}, 2, 0},
		{"ZSCORE-nil", bulk("ZSCORE", "bench:zset", "nobody"), StoreResult{}, 2, 0},
		{"ZCARD", bulk("ZCARD", "bench:zset"), StoreResult{Int: 1}, 1, 0},
		{"ZRANGE", bulk("ZRANGE", "bench:zset", "0", "-1", "WITHSCORES"), StoreResult{Members: members}, 1, 0},
		{"DBSIZE", bulk("DBSIZE"), StoreResult{Int: 3}, 0, 0},
		{"FLUSHALL", bulk("FLUSHALL"), StoreResult{}, 0, 0},
		{"inline", "GET key:1\r\n", StoreResult{OK: true, Str: "value:1"}, 1, 0},
		{"spilled", bulk("ZRANK", "bench:zset", "item:001234"), StoreResult{OK: true, Int: 1234}, 2, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wire := []byte(strings.Repeat(tc.wire, 16)) // a pipeline, as it sits in the buffer
			src := bytes.NewReader(wire)
			size := connReadBuffer
			if tc.buf > 0 {
				size = tc.buf
			}
			c := cmdReader{r: bufio.NewReaderSize(src, size)}
			w := NewWriter(bufio.NewWriter(io.Discard))
			allocs := testing.AllocsPerRun(200, func() {
				args, err := c.next()
				if err == io.EOF {
					src.Reset(wire)
					args, err = c.next()
				}
				if err != nil {
					t.Fatal(err)
				}
				op, errMsg := parseOp(args)
				if errMsg != "" {
					t.Fatal(errMsg)
				}
				if err := WriteResult(w, op, tc.res); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.owns {
				t.Errorf("%.1f allocations per command, want <= %.0f (the strings the op owns)", allocs, tc.owns)
			}
		})
	}
}

// TestWriterStatusLinesCannotBeSplit: Error and Simple may quote client
// bytes; a CR or LF in them would end the reply early and let the client
// shape the next one.
func TestWriterStatusLinesCannotBeSplit(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(bufio.NewWriter(&buf))
	_ = w.Error("unknown command 'x\r\n+FAKE\r\n'")
	_ = w.Simple("a\nb\rc")
	_ = w.Error(strings.Repeat("e", 10*maxStatusLen))
	_ = w.Flush()
	lines := strings.Split(buf.String(), "\r\n")
	if len(lines) != 4 || lines[3] != "" {
		t.Fatalf("3 replies came out as %d lines: %q", len(lines)-1, buf.String())
	}
	if lines[0] != "-ERR unknown command 'x  +FAKE  '" || lines[1] != "+a b c" {
		t.Errorf("sanitized replies = %q, %q", lines[0], lines[1])
	}
	if len(lines[2]) != len("-ERR ")+maxStatusLen {
		t.Errorf("long message written as %d bytes, want it cut at %d", len(lines[2]), maxStatusLen)
	}
}
