package kvserver

// RESP2 wire protocol (the Redis serialization protocol), enough for a KV
// service and its load harness: the server reads commands as arrays of bulk
// strings (plus inline commands, so `redis-cli`-style tools and netcat
// work), and writes the five RESP2 reply kinds. Commands are parsed from a
// byte slice, their arguments slices of it — a drain takes every complete
// command the connection's read buffer holds (drain.go) — with hard size
// caps so a malformed or hostile peer cannot make the server allocate
// unboundedly.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
)

const (
	// maxArgs caps command arity (MGET fan-out included).
	maxArgs = 1 << 10
	// maxBulk caps a single argument's size; comfortably above MaxValLen
	// so the store's own limit produces the client-visible error.
	maxBulk = MaxValLen + MaxKeyLen
	// maxInline caps an inline command line.
	maxInline = 1 << 16
	// readBufSize is a connection's read buffer; it grows for one command
	// larger than that and shrinks back once the command is consumed.
	readBufSize = 16 << 10
)

var (
	errProtocol = errors.New("ERR protocol error")
	errTooBig   = errors.New("ERR argument or array exceeds protocol limit")
)

// respReader buffers a client's byte stream; buf[r:w] is unread.
type respReader struct {
	rd   io.Reader
	buf  []byte
	r, w int
}

func newRespReader(rd io.Reader) *respReader {
	return &respReader{rd: rd, buf: make([]byte, readBufSize)}
}

// unread returns the bytes buffered and not yet consumed.
func (r *respReader) unread() []byte { return r.buf[r.r:r.w] }

// consume marks n unread bytes as parsed.
func (r *respReader) consume(n int) {
	r.r += n
	if r.r == r.w {
		r.r, r.w = 0, 0
		if len(r.buf) > readBufSize {
			r.buf = make([]byte, readBufSize)
		}
	}
}

// fill blocks until at least need bytes are unread. The front of a command
// left from the last read moves to the start of the buffer, which grows when
// one command is larger than it (need is bounded by the parser's caps).
func (r *respReader) fill(need int) error {
	if r.r > 0 || need > len(r.buf) {
		nb := r.buf
		if need > len(nb) {
			nb = make([]byte, max(need, 2*len(nb)))
		}
		r.w = copy(nb, r.unread())
		r.r, r.buf = 0, nb
	}
	n, err := io.ReadAtLeast(r.rd, r.buf[r.w:], need-(r.w-r.r))
	r.w += n
	return err
}

// parseLine splits the CRLF-terminated line at the front of b. n is the
// length including the terminator, 0 when b does not hold a whole line yet.
func parseLine(b []byte, limit int) (line []byte, n int, err error) {
	i := bytes.IndexByte(b, '\n')
	if i < 0 {
		if len(b) > limit {
			return nil, 0, errTooBig
		}
		return nil, 0, nil
	}
	if i+1 > limit {
		return nil, 0, errTooBig
	}
	if i < 1 || b[i-1] != '\r' {
		return nil, 0, errProtocol
	}
	return b[:i-1], i + 1, nil
}

// parseCommand decodes the command at the front of b — a RESP array of bulk
// strings or an inline (space-separated) line — appending its arguments,
// which are slices of b, to args. n is the number of bytes the command
// occupies; a bare CRLF or an empty array occupies bytes and has no
// arguments. n == 0 with a nil error means b ends inside the command, and
// need is then the least len(b) that could hold all of it.
func parseCommand(b []byte, args [][]byte) (out [][]byte, n, need int, err error) {
	line, pos, err := parseLine(b, maxInline)
	if pos == 0 {
		return args, 0, len(b) + 1, err
	}
	if len(line) == 0 || line[0] != '*' {
		args = append(args, bytes.Fields(line)...)
		if len(args) > maxArgs {
			return args, 0, 0, errTooBig
		}
		return args, pos, 0, nil
	}
	count, err := strconv.Atoi(string(line[1:]))
	if err != nil || count < 0 {
		return args, 0, 0, errProtocol
	}
	if count > maxArgs {
		return args, 0, 0, errTooBig
	}
	for ; count > 0; count-- {
		hdr, hn, err := parseLine(b[pos:], 64)
		if hn == 0 {
			return args, 0, len(b) + 1, err
		}
		if len(hdr) == 0 || hdr[0] != '$' {
			return args, 0, 0, errProtocol
		}
		size, err := strconv.Atoi(string(hdr[1:]))
		if err != nil || size < 0 {
			return args, 0, 0, errProtocol
		}
		if size > maxBulk {
			return args, 0, 0, errTooBig
		}
		pos += hn
		end := pos + size + 2
		if end > len(b) {
			return args, 0, end, nil
		}
		if b[end-2] != '\r' || b[end-1] != '\n' {
			return args, 0, 0, errProtocol
		}
		args = append(args, b[pos:pos+size])
		pos = end
	}
	return args, pos, 0, nil
}

// respWriter encodes replies. Not safe for concurrent use; the connection
// loop is the only writer.
type respWriter struct {
	bw  *bufio.Writer
	num [20]byte // scratch for decimal lengths and integers
}

func newRespWriter(w io.Writer) *respWriter {
	return &respWriter{bw: bufio.NewWriterSize(w, 16<<10)}
}

func (w *respWriter) Flush() error { return w.bw.Flush() }

// header writes a type byte, a decimal and CRLF.
func (w *respWriter) header(kind byte, n int64) {
	w.bw.WriteByte(kind)
	w.bw.Write(strconv.AppendInt(w.num[:0], n, 10))
	w.bw.WriteString("\r\n")
}

func (w *respWriter) Simple(s string) {
	w.bw.WriteByte('+')
	w.bw.WriteString(s)
	w.bw.WriteString("\r\n")
}

// Error writes a RESP error reply. The message is collapsed to one line
// (RESP errors are line-delimited).
func (w *respWriter) Error(msg string) {
	w.bw.WriteByte('-')
	for i := 0; i < len(msg); i++ {
		c := msg[i]
		if c == '\r' || c == '\n' {
			c = ' '
		}
		w.bw.WriteByte(c)
	}
	w.bw.WriteString("\r\n")
}

func (w *respWriter) Int(n int64) { w.header(':', n) }

func (w *respWriter) Bulk(b []byte) {
	w.header('$', int64(len(b)))
	w.bw.Write(b)
	w.bw.WriteString("\r\n")
}

func (w *respWriter) Null() { w.bw.WriteString("$-1\r\n") }

func (w *respWriter) Array(n int) { w.header('*', int64(n)) }

// errReply renders an error as a RESP error message: errors already
// carrying a Redis-style code pass through, anything else gets ERR.
func errReply(err error) string {
	msg := err.Error()
	if len(msg) > 0 && msg[0] >= 'A' && msg[0] <= 'Z' {
		if i := bytes.IndexByte([]byte(msg), ' '); i > 0 && allUpper(msg[:i]) {
			return msg
		}
	}
	return fmt.Sprintf("ERR %s", msg)
}

func allUpper(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 'A' || s[i] > 'Z' {
			return false
		}
	}
	return len(s) > 0
}
