package main

// The KV load generator: one pipelined RESP connection driven by one
// goroutine in a closed loop (write a window of commands, read every
// reply, repeat), with an exact model of what each reply must be.
//
// The model is exact because the connection is the store's only writer and
// the server answers a connection in order: the value a GET must return is
// the last SET issued before it on this connection, acknowledged or not.
// Every reply is compared with the model; a wrong, error or missing reply
// is a failed operation.
//
// Nothing in the measured loop allocates: keys, values and commands are
// built into fixed buffers, replies are parsed in the read buffer, and the
// clock is read once when a window is submitted and once per reply.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"time"

	"onefile/internal/kvserver"
)

const (
	keyLen = 8
	valLen = 64 // every SCAN asks for COUNT 50, spelled out in queueScan
)

// kvModel is the expected content of the store: every key is always
// present (the workloads never delete), so the state is one version
// number per key, from which the value bytes are regenerated.
type kvModel struct {
	seed    uint64
	keys    []byte   // keyLen bytes per key
	ver     []uint32 // last version issued per key
	buckets uint32
	// Keys per hash bucket, as prefix sums over bucket numbers: a SCAN
	// from bucket a that resumes at bucket b must return exactly the keys
	// of buckets [a, b).
	bucketOf  []uint32
	prefixCnt []uint32
	// scanStamp marks keys seen in the current SCAN reply (duplicate check).
	scanStamp  []uint32
	scanSerial uint32
}

func newKVModel(nKeys int, buckets uint64, seed uint64) *kvModel {
	m := &kvModel{
		seed:      seed,
		keys:      make([]byte, nKeys*keyLen),
		ver:       make([]uint32, nKeys),
		buckets:   uint32(buckets),
		bucketOf:  make([]uint32, nKeys),
		prefixCnt: make([]uint32, buckets+1),
		scanStamp: make([]uint32, nKeys),
	}
	for i := 0; i < nKeys; i++ {
		k := m.key(i)
		copy(k, fmt.Sprintf("k%07d", i))
		b := uint32(kvserver.HashKey(k) & (buckets - 1))
		m.bucketOf[i] = b
		m.prefixCnt[b+1]++
	}
	for b := uint64(0); b < buckets; b++ {
		m.prefixCnt[b+1] += m.prefixCnt[b]
	}
	return m
}

func (m *kvModel) nKeys() int { return len(m.ver) }

func (m *kvModel) key(i int) []byte { return m.keys[i*keyLen : (i+1)*keyLen] }

// keyIndex parses a key back to its index, or -1.
func (m *kvModel) keyIndex(k []byte) int {
	if len(k) != keyLen || k[0] != 'k' {
		return -1
	}
	n := 0
	for _, c := range k[1:] {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	if n >= m.nKeys() {
		return -1
	}
	return n
}

// value writes the valLen bytes key i holds at version ver into dst.
func (m *kvModel) value(dst []byte, i int, ver uint32) {
	x := m.seed ^ uint64(i)<<32 ^ uint64(ver)
	for w := 0; w < valLen/8; w++ {
		// splitmix64
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
		for b := 0; b < 8; b++ {
			dst[w*8+b] = byte(z >> (8 * b))
		}
	}
}

// pendingOp is what the client remembers of a command in flight.
type pendingOp struct {
	class uint8
	key   uint32 // GET/SET: key index; SCAN: start bucket
	ver   uint32 // GET: version the reply must carry
}

// kvMix is a workload's operation mix in percent; the rest are GETs.
type kvMix struct{ set, scan int }

// kvClient is one connection and its load goroutine's state.
type kvClient struct {
	conn  net.Conn
	br    *bufio.Reader
	out   []byte
	pend  []pendingOp
	depth int
	m     *kvModel
	rng   *rand.Rand
	want  [valLen]byte

	attempted, failed uint64
	firstFailure      string
	traceSeq          uint64 // requests sent while tracing: joins them to backend calls
}

func dialKV(addr string, depth int, m *kvModel, seed uint64) (*kvClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial kv server: %w", err)
	}
	return &kvClient{
		conn:  conn,
		br:    bufio.NewReaderSize(conn, 64<<10),
		out:   make([]byte, 0, depth*(64+keyLen+valLen)),
		pend:  make([]pendingOp, 0, depth),
		depth: depth,
		m:     m,
		rng:   rand.New(rand.NewPCG(seed, 0x6f6e6566696c65)),
	}, nil
}

func (c *kvClient) close() error { return c.conn.Close() }

func (c *kvClient) fail(format string, args ...any) {
	c.failed++
	if c.firstFailure == "" {
		c.firstFailure = fmt.Sprintf(format, args...)
	}
}

func (c *kvClient) queueGet(i int) {
	c.out = append(c.out, "*2\r\n$3\r\nGET\r\n$8\r\n"...)
	c.out = append(c.out, c.m.key(i)...)
	c.out = append(c.out, "\r\n"...)
	c.pend = append(c.pend, pendingOp{class: classRead, key: uint32(i), ver: c.m.ver[i]})
}

func (c *kvClient) queueSet(i int) {
	c.m.ver[i]++
	c.out = append(c.out, "*3\r\n$3\r\nSET\r\n$8\r\n"...)
	c.out = append(c.out, c.m.key(i)...)
	c.out = append(c.out, "\r\n$64\r\n"...)
	n := len(c.out)
	c.out = c.out[:n+valLen]
	c.m.value(c.out[n:], i, c.m.ver[i])
	c.out = append(c.out, "\r\n"...)
	c.pend = append(c.pend, pendingOp{class: classWrite, key: uint32(i)})
}

func (c *kvClient) queueScan(bucket uint32) {
	c.out = append(c.out, "*4\r\n$4\r\nSCAN\r\n$5\r\n"...)
	for div := uint32(10000); div > 0; div /= 10 {
		c.out = append(c.out, byte('0'+bucket/div%10))
	}
	c.out = append(c.out, "\r\n$5\r\nCOUNT\r\n$2\r\n50\r\n"...)
	c.pend = append(c.pend, pendingOp{class: classScan, key: bucket})
}

func (c *kvClient) queuePing() {
	c.out = append(c.out, "*1\r\n$4\r\nPING\r\n"...)
	c.pend = append(c.pend, pendingOp{class: classRead})
}

// submit writes the queued window to the socket.
func (c *kvClient) submit() error {
	_, err := c.conn.Write(c.out)
	c.out = c.out[:0]
	return err
}

var errProtocol = errors.New("kv client: malformed reply")

// line reads one CRLF-terminated line, without the terminator. The slice
// points into the read buffer and is valid until the next read.
func (c *kvClient) line() ([]byte, error) {
	l, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if len(l) < 3 || l[len(l)-2] != '\r' {
		return nil, errProtocol
	}
	return l[:len(l)-2], nil
}

func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n uint64
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		n = n*10 + uint64(ch-'0')
	}
	return n, true
}

// bulk reads one bulk string whose header line is hdr ("$<n>"). ok is false
// for a reply that is well formed but not a bulk string (null or error).
func (c *kvClient) bulk(hdr []byte) (body []byte, ok bool, err error) {
	if hdr[0] != '$' {
		return nil, false, nil
	}
	n, isNum := parseUint(hdr[1:])
	if !isNum { // "$-1": null
		return nil, false, nil
	}
	b, err := c.br.Peek(int(n) + 2)
	if err != nil {
		return nil, false, err
	}
	if _, err := c.br.Discard(int(n) + 2); err != nil {
		return nil, false, err
	}
	return b[:n], true, nil
}

// recvGet checks a GET reply against the model.
func (c *kvClient) recvGet(p pendingOp) error {
	hdr, err := c.line()
	if err != nil {
		return err
	}
	body, ok, err := c.bulk(hdr)
	if err != nil {
		return err
	}
	c.m.value(c.want[:], int(p.key), p.ver)
	if !ok || !bytes.Equal(body, c.want[:]) {
		c.fail("GET %s: reply does not hold version %d", c.m.key(int(p.key)), p.ver)
	}
	return nil
}

func (c *kvClient) recvSimple(want string, what string) error {
	l, err := c.line()
	if err != nil {
		return err
	}
	if string(l) != want {
		c.fail("%s: reply %q, want %q", what, l, want)
	}
	return nil
}

// recvScan checks a SCAN reply: the keys must be exactly those of the
// buckets between the cursor sent and the cursor returned.
func (c *kvClient) recvScan(p pendingOp) error {
	l, err := c.line()
	if err != nil {
		return err
	}
	if string(l) != "*2" {
		// An error reply is one line; anything else desynchronises.
		if l[0] == '-' {
			c.fail("SCAN %d: %s", p.key, l)
			return nil
		}
		return errProtocol
	}
	hdr, err := c.line()
	if err != nil {
		return err
	}
	cur, ok, err := c.bulk(hdr)
	if err != nil {
		return err
	}
	next, isNum := parseUint(cur)
	if !ok || !isNum {
		return errProtocol
	}
	l, err = c.line()
	if err != nil {
		return err
	}
	count, isNum := parseUint(l[1:])
	if l[0] != '*' || !isNum {
		return errProtocol
	}
	end := uint32(next)
	if next == 0 {
		end = c.m.buckets
	}
	good := next <= uint64(c.m.buckets) && end > p.key &&
		uint32(count) == c.m.prefixCnt[end]-c.m.prefixCnt[p.key]
	c.m.scanSerial++
	for i := uint64(0); i < count; i++ {
		hdr, err := c.line()
		if err != nil {
			return err
		}
		k, ok, err := c.bulk(hdr)
		if err != nil {
			return err
		}
		if !ok {
			return errProtocol
		}
		idx := c.m.keyIndex(k)
		if idx < 0 || c.m.bucketOf[idx] < p.key || c.m.bucketOf[idx] >= end || c.m.scanStamp[idx] == c.m.scanSerial {
			good = false
			continue
		}
		c.m.scanStamp[idx] = c.m.scanSerial
	}
	if !good {
		c.fail("SCAN %d: reply is not the keys of buckets [%d, %d)", p.key, p.key, end)
	}
	return nil
}

// recv reads and checks the reply to p.
func (c *kvClient) recv(p pendingOp) error {
	c.attempted++
	switch p.class {
	case classWrite:
		return c.recvSimple("+OK", "SET")
	case classScan:
		return c.recvScan(p)
	}
	return c.recvGet(p)
}

// queueMixed queues one operation of the mix, drawn from rng.
func (c *kvClient) queueMixed(mix kvMix, rng *rand.Rand) {
	switch p := rng.IntN(100); {
	case p < mix.set:
		c.queueSet(rng.IntN(c.m.nKeys()))
	case p < mix.set+mix.scan:
		c.queueScan(uint32(rng.IntN(int(c.m.buckets))))
	default:
		c.queueGet(rng.IntN(c.m.nKeys()))
	}
}

// roundTrip submits the queued window and checks every reply, untimed.
func (c *kvClient) roundTrip() error {
	if err := c.submit(); err != nil {
		return err
	}
	for _, p := range c.pend {
		if err := c.recv(p); err != nil {
			return err
		}
	}
	c.pend = c.pend[:0]
	return nil
}

// mixed issues exactly n operations of the mix drawn from rng, untimed:
// the acknowledged writes before a crash, and the fixed-count pass whose
// persistence counts must repeat exactly.
func (c *kvClient) mixed(mix kvMix, n int, rng *rand.Rand) error {
	c.pend = c.pend[:0]
	for done := 0; done < n; done++ {
		c.queueMixed(mix, rng)
		if len(c.pend) == c.depth || done == n-1 {
			if err := c.roundTrip(); err != nil {
				return fmt.Errorf("kv client: %w", err)
			}
		}
	}
	return nil
}

// load runs the closed loop until end (nanoseconds since base), filing
// every reply received after start into rec. A transport or protocol error
// ends the loop: the replies still owed are failures. While tr is tracing,
// every window and request is also a span.
func (c *kvClient) load(mix kvMix, rec *recorder, tr *tracer, base time.Time, start, end int64) error {
	traced := tr.enabled()
	var windowID uint64
	now := int64(time.Since(base))
	for now < end {
		c.pend = c.pend[:0]
		for len(c.pend) < c.depth {
			c.queueMixed(mix, c.rng)
		}
		submitted := int64(time.Since(base))
		if traced {
			windowID = spanID(spWindow, tr.nextSeq(spWindow))
		}
		if err := c.submit(); err != nil {
			c.failed += uint64(len(c.pend))
			c.attempted += uint64(len(c.pend))
			return fmt.Errorf("kv client write: %w", err)
		}
		for i, p := range c.pend {
			if err := c.recv(p); err != nil {
				owed := uint64(len(c.pend) - i)
				c.failed += owed
				c.attempted += owed - 1
				return fmt.Errorf("kv client read: %w", err)
			}
			now = int64(time.Since(base))
			rec.record(int(p.class), now-start, now-submitted)
			if traced {
				c.traceSeq++
				tr.add(spRequest, spanID(spRequest, c.traceSeq), windowID, submitted, now)
			}
		}
		if traced {
			tr.add(spWindow, windowID, 0, submitted, now)
		}
	}
	return nil
}

// verifyAll reads every key and DBSIZE through the connection and checks
// them against the model: the full-state check after a run and after each
// recovery.
func (c *kvClient) verifyAll() error {
	nKeys := c.m.nKeys()
	c.pend = c.pend[:0]
	for i := 0; i < nKeys; i++ {
		c.queueGet(i)
		if len(c.pend) == 256 || i == nKeys-1 {
			if err := c.roundTrip(); err != nil {
				return fmt.Errorf("verify: %w", err)
			}
		}
	}
	c.out = append(c.out, "*1\r\n$6\r\nDBSIZE\r\n"...)
	if err := c.submit(); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	c.attempted++
	return c.recvSimple(fmt.Sprintf(":%d", nKeys), "DBSIZE")
}
