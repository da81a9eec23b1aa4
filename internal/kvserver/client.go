package kvserver

// A minimal RESP2 client, enough for the load harness, the kill-recovery
// soak and the smoke scripts: synchronous Do for request/response and
// Send/Flush/Recv for explicit pipelining. One Client is one connection
// and is not safe for concurrent use — the harness opens one per worker,
// which is also what makes the server see concurrent transactions.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// Value is one decoded RESP reply.
type Value struct {
	// Kind is '+' simple, '-' error, ':' integer, '$' bulk, '*' array.
	Kind byte
	Str  []byte  // simple/error/bulk payload; nil for null bulk
	Int  int64   // integer payload
	Arr  []Value // array elements
	Null bool    // null bulk or null array
}

// Err returns the reply as an error if it is an error reply.
func (v Value) Err() error {
	if v.Kind == '-' {
		return errors.New(string(v.Str))
	}
	return nil
}

// Client is one RESP connection.
type Client struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// Dial connects to a kvserver (or any RESP server) at addr.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{
		nc: nc,
		br: bufio.NewReaderSize(nc, 16<<10),
		bw: bufio.NewWriterSize(nc, 16<<10),
	}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.nc.Close() }

// SetDeadline bounds every subsequent read and write on the connection.
func (c *Client) SetDeadline(t time.Time) error { return c.nc.SetDeadline(t) }

// Send encodes one command into the output buffer without flushing.
func (c *Client) Send(args ...[]byte) {
	c.bw.WriteByte('*')
	c.bw.Write(strconv.AppendInt(nil, int64(len(args)), 10))
	c.bw.WriteString("\r\n")
	for _, a := range args {
		c.bw.WriteByte('$')
		c.bw.Write(strconv.AppendInt(nil, int64(len(a)), 10))
		c.bw.WriteString("\r\n")
		c.bw.Write(a)
		c.bw.WriteString("\r\n")
	}
}

// SendStr is Send with string arguments.
func (c *Client) SendStr(args ...string) {
	b := make([][]byte, len(args))
	for i, a := range args {
		b[i] = []byte(a)
	}
	c.Send(b...)
}

// Flush writes the buffered commands to the socket.
func (c *Client) Flush() error { return c.bw.Flush() }

// Recv reads one reply.
func (c *Client) Recv() (Value, error) { return c.readValue() }

// Do sends one command and waits for its reply.
func (c *Client) Do(args ...string) (Value, error) {
	c.SendStr(args...)
	if err := c.Flush(); err != nil {
		return Value{}, err
	}
	return c.Recv()
}

func (c *Client) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("kv client: malformed reply line")
	}
	return line[:len(line)-2], nil
}

func (c *Client) readValue() (Value, error) {
	line, err := c.readLine()
	if err != nil {
		return Value{}, err
	}
	if len(line) == 0 {
		return Value{}, fmt.Errorf("kv client: empty reply line")
	}
	switch line[0] {
	case '+', '-':
		return Value{Kind: line[0], Str: append([]byte(nil), line[1:]...)}, nil
	case ':':
		n, err := strconv.ParseInt(string(line[1:]), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("kv client: bad integer reply: %w", err)
		}
		return Value{Kind: ':', Int: n}, nil
	case '$':
		n, err := strconv.Atoi(string(line[1:]))
		if err != nil {
			return Value{}, fmt.Errorf("kv client: bad bulk length: %w", err)
		}
		if n < 0 {
			return Value{Kind: '$', Null: true}, nil
		}
		buf := make([]byte, n+2)
		if _, err := io.ReadFull(c.br, buf); err != nil {
			return Value{}, err
		}
		return Value{Kind: '$', Str: buf[:n]}, nil
	case '*':
		n, err := strconv.Atoi(string(line[1:]))
		if err != nil {
			return Value{}, fmt.Errorf("kv client: bad array length: %w", err)
		}
		if n < 0 {
			return Value{Kind: '*', Null: true}, nil
		}
		v := Value{Kind: '*', Arr: make([]Value, n)}
		for i := 0; i < n; i++ {
			el, err := c.readValue()
			if err != nil {
				return Value{}, err
			}
			v.Arr[i] = el
		}
		return v, nil
	default:
		return Value{}, fmt.Errorf("kv client: unknown reply type %q", line[0])
	}
}
