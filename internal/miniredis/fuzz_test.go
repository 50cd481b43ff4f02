package miniredis

import (
	"bufio"
	"bytes"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// chunkReader hands out its input in pieces whose sizes cycle through the
// bytes of sizes, the way TCP segments a stream at places the sender did not
// choose.
type chunkReader struct {
	src   *bytes.Reader
	sizes []byte
	turn  int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	n := 1 + int(c.sizes[c.turn%len(c.sizes)])
	c.turn++
	if n < len(p) {
		p = p[:n]
	}
	return c.src.Read(p)
}

// FuzzReadCommand is the differential test of the RESP parser against
// refReadCommand. The whole input is read as a pipeline, command after
// command until the first error, three ways: through ReadCommand from a
// reader that has all of it, and through one cmdReader (as a connection
// uses it) from a reader that delivers one byte at a time and from one that
// delivers fuzz-chosen chunks. However the bytes arrive, the parser must not
// panic, must agree with the reference on every command's arguments and on
// where the first error is, and must have taken from the stream exactly the
// bytes of the commands it returned. Whatever parses must also go through
// the command table without crashing the store.
func FuzzReadCommand(f *testing.F) {
	seeds := []string{
		"*1\r\n$4\r\nPING\r\n",
		"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n",
		"PING\r\n",
		"*2\r\n$5\r\nZCARD\r\n$1\r\nz\r\n",
		"*-1\r\n",
		"$5\r\nhello\r\n",
		"*1000000000\r\n",
		// A depth-16 pipeline as the benchmark sends it.
		strings.Repeat("*4\r\n$7\r\nZINCRBY\r\n$10\r\nbench:zset\r\n$1\r\n1\r\n$11\r\nitem:001234\r\n"+
			"*3\r\n$5\r\nZRANK\r\n$10\r\nbench:zset\r\n$11\r\nitem:004321\r\n", 8),
		"*2\r\n$3\r\nGET\r\n$12\r\nsplit\r\nacross\r\n", // a bulk string with CRLF inside
		"*0\r\n",
		"*1\r\n$-5\r\n",
		"  SET   key  value \r\r\n\r\nGET key\n",
		// The hostile inputs of the two bug fixes: lines that never end,
		// a length that promises 64 MiB, a command name that carries a reply.
		"*" + strings.Repeat("1", 100),
		strings.Repeat("a", 200),
		"*1024\r\n$67108864\r\n",
		"*1\r\n$17\r\nFOO\r\n+FAKE\r\n:1\r\n\r\n*1\r\n$4\r\nPING\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s), []byte{0})
		f.Add([]byte(s), []byte{2, 0, 30})
	}
	st := NewStore(1)
	f.Fuzz(func(t *testing.T, data, sizes []byte) {
		if len(sizes) == 0 {
			sizes = []byte{0}
		}
		// The reference's view of the pipeline.
		type step struct {
			args     []string
			consumed int // bytes of data taken once this command was returned
		}
		var want []step
		refSrc := bytes.NewReader(data)
		ref := bufio.NewReader(refSrc)
		for {
			args, err := refReadCommand(ref)
			if err != nil {
				break
			}
			want = append(want, step{args, len(data) - refSrc.Len() - ref.Buffered()})
			if op, errMsg := ParseCommand(args); errMsg == "" {
				st.Execute(op) // must not panic on any parsed command
			}
		}

		feeds := []struct {
			name string
			wrap func(*bytes.Reader) io.Reader
		}{
			{"whole", func(r *bytes.Reader) io.Reader { return r }},
			{"one byte at a time", func(r *bytes.Reader) io.Reader { return iotest.OneByteReader(r) }},
			{"chunks", func(r *bytes.Reader) io.Reader { return &chunkReader{src: r, sizes: sizes} }},
		}
		for fi, feed := range feeds {
			src := bytes.NewReader(data)
			// A small buffer sends commands through the spill path too.
			br := bufio.NewReaderSize(feed.wrap(src), 16+int(sizes[0]))
			conn := cmdReader{r: br}
			for i := 0; ; i++ {
				var got []string
				var err error
				if fi == 0 {
					got, err = ReadCommand(br)
				} else {
					var args [][]byte
					args, err = conn.next()
					for _, a := range args {
						got = append(got, string(a))
					}
				}
				if err != nil {
					if i != len(want) {
						t.Fatalf("%s: command %d: %v, but the reference parsed %q", feed.name, i, err, want[i].args)
					}
					break
				}
				if i == len(want) {
					t.Fatalf("%s: command %d = %q, but the reference failed there", feed.name, i, got)
				}
				if !slices.Equal(got, want[i].args) {
					t.Fatalf("%s: command %d = %q, reference %q", feed.name, i, got, want[i].args)
				}
				if consumed := len(data) - src.Len() - br.Buffered(); consumed != want[i].consumed {
					t.Fatalf("%s: command %d left the stream at byte %d, reference at %d", feed.name, i, consumed, want[i].consumed)
				}
			}
		}
	})
}

// FuzzParseCommand exercises the argument validation directly, on both
// forms an argument arrives in: they are one table and must agree.
func FuzzParseCommand(f *testing.F) {
	f.Add("ZADD", "key", "1.5", "member")
	f.Add("ZRANK", "z", "m", "")
	f.Add("ZRANGE", "key", "0", "-1")
	f.Add("SET", "", "", "")
	f.Add("zincrby", "k", "nan", "m")
	f.Add("ZADD", "k", "-NaN", "m")
	f.Add("ZRANGE", "k", "0", "18446744073709551615")
	f.Add("zrange", "k", "-9223372036854775809", "+3")
	f.Fuzz(func(t *testing.T, a, b, c, d string) {
		for _, args := range [][]string{{a}, {a, b}, {a, b, c}, {a, b, c, d}} {
			raw := make([][]byte, len(args))
			for i, s := range args {
				raw[i] = []byte(s)
			}
			op, errMsg := ParseCommand(args)
			rawOp, rawMsg := parseOp(raw)
			if op != rawOp || errMsg != rawMsg {
				t.Fatalf("%q: strings give %+v %q, bytes %+v %q", args, op, errMsg, rawOp, rawMsg)
			}
			if op.Score != op.Score {
				t.Fatalf("%q: parsed a NaN score", args)
			}
			if len(args) == 4 && cmdIs(a, "ZRANGE") {
				start, err1 := strconv.ParseInt(c, 10, strconv.IntSize)
				stop, err2 := strconv.ParseInt(d, 10, strconv.IntSize)
				ok := err1 == nil && err2 == nil
				if (errMsg == "") != ok || ok && (int64(op.Start) != start || int64(op.Stop) != stop) {
					t.Fatalf("%q: parsed %+v %q, strconv gives %d %v, %d %v", args, op, errMsg, start, err1, stop, err2)
				}
			}
			if errMsg != "" {
				continue
			}
			NewStore(2).Execute(op)
		}
	})
}
