// Package miniredis is a small in-memory storage server in the style of
// Redis, built for the paper's macro-benchmark (§8.3): sorted sets backed by
// a hash table plus a skip list, updated atomically per request, behind a
// bounded pool of registered executors and a RESP wire protocol. The entire
// keyspace is a single sequential structure (ds.HashMap of values) made
// concurrent through NR or any of the baseline methods — the "coupled data
// structures" case of §6 that lock-free algorithms cannot compose.
package miniredis

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strconv"
)

// RESP value type markers.
const (
	respSimple = '+'
	respError  = '-'
	respInt    = ':'
	respBulk   = '$'
	respArray  = '*'
)

// ErrProtocol reports malformed RESP input.
var ErrProtocol = errors.New("miniredis: protocol error")

// Limits on what one client command may make the server buffer. Every one
// of them is checked against bytes that have actually arrived: a length
// header alone reserves nothing.
const (
	// maxArgs bounds the elements of a command array.
	maxArgs = 1024
	// maxHeaderLine bounds a "*<n>\r\n" or "$<n>\r\n" line, terminator
	// included: marker, sign and twenty digits fit with room to spare.
	maxHeaderLine = 32
	// maxInlineLine bounds an inline (space-separated) command line,
	// terminator included.
	maxInlineLine = 64 << 10
	// maxCommandBytes bounds a whole command, headers included.
	maxCommandBytes = 64 << 20
	// maxKeptSpill is the largest spill buffer a reader keeps between
	// commands; a bigger one is dropped once its command has been served.
	maxKeptSpill = 64 << 10
)

// cmdReader parses client commands — an array of bulk strings, or an inline
// space-separated line, as Redis accepts both — out of a bufio.Reader
// without allocating per command. The arguments it returns are sub-slices
// of the reader's buffer (or of spill, for a command that was not complete
// in that buffer) and stay valid until the following call of next.
//
// It consumes exactly the bytes of the command it returns, so whatever
// follows in a pipeline is still buffered for the next call.
type cmdReader struct {
	r     *bufio.Reader
	args  [][]byte
	spill []byte

	// Resumable scan state of the command in progress.
	pos    int // first byte of b not yet parsed
	nlFrom int // no '\n' in b[pos:nlFrom]; lets a slow line be searched once
	want   int // array elements still to come; -1 before the first line
	bulk   int // payload length of the element at pos; -1 before its header
}

// needLine is scan's request for input through the next '\n'.
const needLine = -1

// next returns the next command's arguments. It blocks (through r) only
// when no complete command is buffered.
func (c *cmdReader) next() ([][]byte, error) {
	if cap(c.spill) > maxKeptSpill {
		c.spill = nil
	}
	// The usual case: the whole command is already in r's buffer.
	b, err := c.buffered()
	if err != nil {
		return nil, err
	}
	c.reset()
	need, err := c.scan(b)
	if err != nil {
		return nil, err
	}
	if need == 0 {
		_, _ = c.r.Discard(c.pos) // pos <= Buffered: cannot fail
		return c.args, nil
	}
	// Everything buffered belongs to one unfinished command. Move it to
	// spill and feed the scan exactly the bytes it asks for, so spill grows
	// only with bytes received and never swallows the next command.
	c.spill = append(c.spill[:0], b...)
	_, _ = c.r.Discard(len(b))
	c.reset()
	for {
		need, err := c.scan(c.spill)
		if err != nil {
			return nil, err
		}
		if need == 0 {
			return c.args, nil
		}
		if err := c.pull(need); err != nil {
			return nil, err
		}
	}
}

func (c *cmdReader) reset() {
	c.args = c.args[:0]
	c.pos, c.nlFrom, c.want, c.bulk = 0, 0, -1, -1
}

// buffered returns what r holds, at least one byte: it blocks for input
// when, and only when, r holds nothing.
func (c *cmdReader) buffered() ([]byte, error) {
	if c.r.Buffered() == 0 {
		if _, err := c.r.Peek(1); err != nil {
			return nil, err
		}
	}
	return c.r.Peek(c.r.Buffered())
}

// pull moves input from r to spill: exactly need bytes, or for needLine
// whatever has arrived, up to and including the first '\n' (scan decides
// whether that completes the line or the line has grown too long).
func (c *cmdReader) pull(need int) error {
	for {
		p, err := c.buffered()
		if err != nil {
			return err
		}
		if need == needLine {
			if i := bytes.IndexByte(p, '\n'); i >= 0 {
				p = p[:i+1]
			}
			need = 0
		} else {
			p = p[:min(len(p), need)]
			need -= len(p)
		}
		c.spill = append(c.spill, p...)
		_, _ = c.r.Discard(len(p))
		if need == 0 {
			return nil
		}
	}
}

// scan parses as much of one command as b (never empty) holds, resuming
// where the last call on a shorter prefix of the same bytes stopped. It returns 0 when the
// command is complete (it occupies b[:c.pos]); otherwise how many more
// bytes it needs, or needLine.
func (c *cmdReader) scan(b []byte) (need int, err error) {
	if c.want < 0 {
		if b[0] != respArray {
			line, ok, err := c.line(b, maxInlineLine)
			if !ok {
				return needLine, err
			}
			c.splitInline(line)
			return 0, nil
		}
		line, ok, err := c.line(b, maxHeaderLine)
		if !ok {
			return needLine, err
		}
		n, ok := parseLength(line[1:])
		if !ok || n < 0 || n > maxArgs {
			return 0, protocolError("array length", line)
		}
		c.want = n
	}
	for c.want > 0 {
		if c.bulk < 0 {
			if c.pos < len(b) && b[c.pos] != respBulk {
				return 0, protocolError("expected bulk string, got", b[c.pos:c.pos+1])
			}
			line, ok, err := c.line(b, maxHeaderLine)
			if !ok {
				return needLine, err
			}
			n, ok := parseLength(line[1:])
			if !ok || n < 0 || n > maxCommandBytes-2-c.pos {
				return 0, protocolError("bulk length", line)
			}
			c.bulk = n
		}
		end := c.pos + c.bulk + 2
		if end > len(b) {
			return end - len(b), nil
		}
		if b[end-2] != '\r' || b[end-1] != '\n' {
			return 0, protocolError("bulk string not followed by CRLF but", b[end-2:end])
		}
		c.args = append(c.args, b[c.pos:end-2])
		c.pos, c.bulk = end, -1
		c.want--
	}
	return 0, nil
}

// line returns the line starting at c.pos without its terminator (one '\n'
// and any '\r' before it) and advances past it. ok is false when the line is
// not complete yet; err is set once it cannot fit limit, complete or not.
func (c *cmdReader) line(b []byte, limit int) (line []byte, ok bool, err error) {
	from := max(c.pos, c.nlFrom)
	i := bytes.IndexByte(b[from:], '\n')
	if i < 0 {
		if len(b)-c.pos >= limit {
			return nil, false, protocolError("line too long", nil)
		}
		c.nlFrom = len(b)
		return nil, false, nil
	}
	end := from + i
	if end+1-c.pos > limit {
		return nil, false, protocolError("line too long", nil)
	}
	line = b[c.pos:end]
	for len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	c.pos, c.nlFrom = end+1, 0
	return line, true, nil
}

// splitInline appends the space-separated fields of line to c.args.
func (c *cmdReader) splitInline(line []byte) {
	for len(line) > 0 {
		if line[0] == ' ' {
			line = line[1:]
			continue
		}
		end := bytes.IndexByte(line, ' ')
		if end < 0 {
			end = len(line)
		}
		c.args = append(c.args, line[:end])
		line = line[end:]
	}
}

// parseLength reads the decimal of a length header: an optional sign and at
// least one digit, nothing else. The caller's line limit keeps it in range.
func parseLength(s []byte) (n int, ok bool) {
	neg := false
	if len(s) > 0 && (s[0] == '-' || s[0] == '+') {
		neg = s[0] == '-'
		s = s[1:]
	}
	if len(s) == 0 {
		return 0, false
	}
	for _, ch := range s {
		if ch < '0' || ch > '9' || n > maxCommandBytes {
			return 0, false
		}
		n = n*10 + int(ch-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// protocolError wraps ErrProtocol with what was wrong and (a bounded part
// of) the offending bytes.
func protocolError(what string, at []byte) error {
	if len(at) > maxHeaderLine {
		at = at[:maxHeaderLine]
	}
	return fmt.Errorf("%w: %s %q", ErrProtocol, what, at)
}

// ReadCommand parses one client command: an array of bulk strings, or an
// inline command line (space-separated), as Redis accepts both. It is the
// server's parser behind a []string: it reads nothing past the command it
// returns.
func ReadCommand(r *bufio.Reader) ([]string, error) {
	c := cmdReader{r: r, args: make([][]byte, 0, 8)}
	args, err := c.next()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(args))
	for i, a := range args {
		out[i] = string(a)
	}
	return out, nil
}

// maxStatusLen bounds the message of a simple-string or error reply.
const maxStatusLen = 256

// Writer emits RESP replies.
type Writer struct {
	w *bufio.Writer
	// num and flt hold the digits of a reply while it is written; fields
	// rather than locals because what reaches the bufio.Writer may reach the
	// socket, which would move a local to the heap.
	num [24]byte
	flt [32]byte
}

// NewWriter wraps w.
func NewWriter(w *bufio.Writer) *Writer { return &Writer{w: w} }

// Flush flushes buffered replies.
func (w *Writer) Flush() error { return w.w.Flush() }

// A bufio.Writer keeps its first error and returns it from every later
// call, so the methods below check only their last write.

// status writes one reply line. The message cannot carry a line break of
// its own — it may quote client bytes, and a CR or LF in it would end this
// reply early and start an attacker-shaped next one — so both are written
// as spaces, and the message is cut at maxStatusLen.
func (w *Writer) status(prefix, msg string) error {
	if len(msg) > maxStatusLen {
		msg = msg[:maxStatusLen]
	}
	_, _ = w.w.WriteString(prefix)
	start := 0
	for i := 0; i < len(msg); i++ {
		if msg[i] == '\r' || msg[i] == '\n' {
			_, _ = w.w.WriteString(msg[start:i])
			_ = w.w.WriteByte(' ')
			start = i + 1
		}
	}
	_, _ = w.w.WriteString(msg[start:])
	_, err := w.w.WriteString("\r\n")
	return err
}

// Simple writes a simple-string reply (+OK).
func (w *Writer) Simple(s string) error { return w.status("+", s) }

// Error writes an error reply.
func (w *Writer) Error(msg string) error { return w.status("-ERR ", msg) }

// header writes marker, n and CRLF: an integer reply or a length prefix.
func (w *Writer) header(marker byte, n int64) error {
	_ = w.w.WriteByte(marker)
	_, _ = w.w.Write(strconv.AppendInt(w.num[:0], n, 10))
	_, err := w.w.WriteString("\r\n")
	return err
}

// Int writes an integer reply.
func (w *Writer) Int(v int64) error { return w.header(respInt, v) }

// Bulk writes a bulk-string reply.
func (w *Writer) Bulk(s string) error {
	_ = w.header(respBulk, int64(len(s)))
	_, _ = w.w.WriteString(s)
	_, err := w.w.WriteString("\r\n")
	return err
}

// score writes a float as a bulk string, formatted as FormatScore does.
func (w *Writer) score(f float64) error {
	b := strconv.AppendFloat(w.flt[:0], f, 'g', -1, 64)
	_ = w.header(respBulk, int64(len(b)))
	_, _ = w.w.Write(b)
	_, err := w.w.WriteString("\r\n")
	return err
}

// Nil writes a null bulk reply.
func (w *Writer) Nil() error {
	_, err := w.w.WriteString("$-1\r\n")
	return err
}

// Array writes an array of bulk strings.
func (w *Writer) Array(items []string) error {
	err := w.header(respArray, int64(len(items)))
	for _, it := range items {
		err = w.Bulk(it)
	}
	return err
}

// FormatScore renders a float the way Redis does (%.17g trimmed).
func FormatScore(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
