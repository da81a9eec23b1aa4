package kvserver

// The server: a TCP accept loop and per-connection RESP command loops that
// turn client commands into transactions on a Backend.
//
// The submission discipline is the point of the design. Write commands
// (SET/DEL/INCR) do not run their transaction synchronously: the handler
// submits the body through the engine's group-commit combiner
// (tm.AsyncUpdate) and queues a reply continuation on the connection.
// While more commands sit in the connection's read buffer (a pipelining
// client) the handler keeps submitting, so concurrent and pipelined writes
// land in the combiner window together and commit as group transactions —
// one commit CAS, one persistence-fence round for the lot. Only when the
// input buffer runs dry (or a read command needs the writes' effects) does
// the handler wait the queued futures, emit the replies in order, and
// flush the socket. A reply is therefore only ever written after its
// transaction committed — on persistent engines, after it is durable —
// which is the invariant the killtest soak checks: acked implies
// recoverable.
//
// Read commands run synchronously under Engine.Read after draining the
// connection's pending writes, giving each connection read-your-writes
// consistency (the engine itself is linearizable, so cross-connection
// reads are simply "what has committed").

import (
	"context"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"onefile/internal/obs"
	"onefile/internal/shard"
	"onefile/internal/tm"
)

// Backend is the storage a Server runs on: one engine, or N engines behind
// a partitioner. Async must route through the engine's combiner when it
// has one.
type Backend interface {
	// Shards returns the number of independent partitions.
	Shards() int
	// ShardFor returns the home shard of a key hash.
	ShardFor(h uint64) int
	// Async submits fn as an update transaction on the given shard and
	// returns its future.
	Async(shard int, fn func(tm.Tx) uint64) *tm.Future
	// Read runs fn as a read-only transaction on the given shard.
	Read(shard int, fn func(tm.Tx) uint64) uint64
	// Stats returns the backend's engine counters (summed over shards).
	Stats() tm.Stats
}

// EngineBackend serves from a single engine.
type EngineBackend struct{ E tm.Engine }

func (b EngineBackend) Shards() int         { return 1 }
func (b EngineBackend) ShardFor(uint64) int { return 0 }
func (b EngineBackend) Async(_ int, fn func(tm.Tx) uint64) *tm.Future {
	return tm.AsyncUpdate(b.E, fn)
}
func (b EngineBackend) Read(_ int, fn func(tm.Tx) uint64) uint64 { return b.E.Read(fn) }
func (b EngineBackend) Stats() tm.Stats                          { return b.E.Stats() }

// ShardedBackend serves from a sharded store: every key lives wholly on
// its home shard (the Index layout repeats per shard), so each command is
// a single-shard transaction submitted to that shard's own combiner and
// disjoint keys commit on independent streams.
type ShardedBackend struct{ St *shard.Store }

func (b ShardedBackend) Shards() int           { return b.St.Shards() }
func (b ShardedBackend) ShardFor(h uint64) int { return b.St.ShardFor(h) }
func (b ShardedBackend) Async(i int, fn func(tm.Tx) uint64) *tm.Future {
	return tm.AsyncUpdate(b.St.Engine(i), fn)
}
func (b ShardedBackend) Read(i int, fn func(tm.Tx) uint64) uint64 { return b.St.ReadOn(i, fn) }
func (b ShardedBackend) Stats() tm.Stats                          { return b.St.Stats() }

const metricStripes = 8

// serverMetrics is the obs wiring; a nil *serverMetrics (no registry) is a
// valid no-op receiver so the hot path stays branch-cheap.
type serverMetrics struct {
	ops   map[string]*obs.Counter
	lat   map[string]*obs.Histogram
	errs  *obs.Counter
	conns *obs.Counter
}

var metricCmds = []string{"get", "set", "del", "incr", "mget", "scan", "other"}

func newServerMetrics(reg *obs.Registry, s *Server) *serverMetrics {
	m := &serverMetrics{
		ops:   make(map[string]*obs.Counter, len(metricCmds)),
		lat:   make(map[string]*obs.Histogram, len(metricCmds)),
		errs:  reg.Counter("kv_errors_total", "KV commands answered with an error reply", metricStripes),
		conns: reg.Counter("kv_connections_total", "client connections accepted", metricStripes),
	}
	for _, c := range metricCmds {
		m.ops[c] = reg.Counter("kv_cmd_"+c+"_total", "KV "+strings.ToUpper(c)+" commands served", metricStripes)
		m.lat[c] = reg.Histogram("kv_"+c+"_latency", "KV "+strings.ToUpper(c)+" service latency (submit to reply ready)", "ns")
	}
	reg.GaugeFunc("kv_connections_active", "currently open client connections", func() float64 {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		return float64(n)
	})
	return m
}

func (m *serverMetrics) op(cmd string, slot int) {
	if m == nil {
		return
	}
	c, ok := m.ops[cmd]
	if !ok {
		c = m.ops["other"]
	}
	c.Inc(slot)
}

func (m *serverMetrics) observe(cmd string, start time.Time) {
	if m == nil {
		return
	}
	h, ok := m.lat[cmd]
	if !ok {
		h = m.lat["other"]
	}
	h.RecordSince(start)
}

func (m *serverMetrics) err(slot int) {
	if m != nil {
		m.errs.Inc(slot)
	}
}

func (m *serverMetrics) conn(slot int) {
	if m != nil {
		m.conns.Inc(slot)
	}
}

// Server is the RESP front end. Create with NewServer, initialise the
// store with Init, then Serve/ListenAndServe; Shutdown drains gracefully.
type Server struct {
	be Backend
	ix *Index
	m  *serverMetrics

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining atomic.Bool
	wg       sync.WaitGroup
	connSeq  atomic.Uint64
}

// NewServer returns a server over be using the given index layout. reg may
// be nil (no metrics).
func NewServer(be Backend, ix *Index, reg *obs.Registry) *Server {
	s := &Server{be: be, ix: ix, conns: make(map[net.Conn]struct{})}
	if reg != nil {
		s.m = newServerMetrics(reg, s)
	}
	return s
}

// Init creates (or re-attaches to) the index on every shard. Must be
// called once before serving.
func (s *Server) Init() error {
	futs := make([]*tm.Future, s.be.Shards())
	for i := range futs {
		futs[i] = s.be.Async(i, func(tx tm.Tx) uint64 { s.ix.InitTx(tx); return 0 })
	}
	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			return fmt.Errorf("kvserver: init shard %d: %w", i, err)
		}
	}
	return nil
}

// ListenAndServe listens on addr and serves until Shutdown or a listener
// failure. Addr() reports the bound address once listening.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown closes it.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[nc] = struct{}{}
		s.mu.Unlock()
		slot := int(s.connSeq.Add(1) % metricStripes)
		s.m.conn(slot)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(nc, slot)
		}()
	}
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown stops accepting, kicks every connection out of its blocking
// read, and waits for the handlers to drain their pending futures and
// write their final replies. When it returns nil every submitted
// transaction has resolved and every reply is flushed — the caller may
// close the engines and NVM. On ctx expiry remaining connections are
// closed hard and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.SetReadDeadline(time.Now()) // wake blocked readers
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// connState is one connection's command loop state.
type connState struct {
	s       *Server
	r       *respReader
	w       *respWriter
	slot    int
	pending []func() // in-order reply continuations; write futures wait here
}

func (s *Server) handle(nc net.Conn, slot int) {
	defer func() {
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
	}()
	c := &connState{s: s, r: newRespReader(nc), w: newRespWriter(nc), slot: slot}
	for {
		if !c.r.Buffered() {
			// Input ran dry: the pipeline window is over. Resolve queued
			// writes, emit replies in order, flush before blocking.
			c.drain()
			if c.w.Flush() != nil {
				return
			}
		}
		args, err := c.r.ReadCommand()
		if err != nil {
			// EOF, deadline kick from Shutdown, or protocol violation.
			// Either way: answer everything already submitted (those
			// transactions will commit; the client must see the acks),
			// then close.
			c.drain()
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				if err == errProtocol || err == errTooBig {
					c.w.Error(err.Error())
				}
			}
			c.w.Flush()
			return
		}
		if c.dispatch(args) { // QUIT
			c.drain()
			c.w.Flush()
			return
		}
	}
}

func (c *connState) drain() {
	for _, f := range c.pending {
		f()
	}
	c.pending = c.pending[:0]
}

// queue appends an in-order reply continuation.
func (c *connState) queue(f func()) { c.pending = append(c.pending, f) }

// queueErr queues an error reply, preserving reply order.
func (c *connState) queueErr(msg string) {
	c.s.m.err(c.slot)
	c.queue(func() { c.w.Error(msg) })
}

// dispatch runs one command. Returns true for QUIT.
func (c *connState) dispatch(args [][]byte) bool {
	cmd := strings.ToUpper(string(args[0]))
	switch cmd {
	case "SET":
		c.s.m.op("set", c.slot)
		if len(args) != 3 {
			c.queueErr("ERR wrong number of arguments for 'set' command")
			return false
		}
		key, val := args[1], args[2]
		h := HashKey(key)
		start := time.Now()
		fut := c.s.be.Async(c.s.be.ShardFor(h), func(tx tm.Tx) uint64 {
			return c.s.ix.SetTx(tx, h, key, val)
		})
		c.queue(func() {
			_, err := fut.Wait()
			c.s.m.observe("set", start)
			if err != nil {
				c.s.m.err(c.slot)
				c.w.Error(errReply(err))
				return
			}
			c.w.Simple("OK")
		})

	case "DEL":
		c.s.m.op("del", c.slot)
		if len(args) < 2 {
			c.queueErr("ERR wrong number of arguments for 'del' command")
			return false
		}
		start := time.Now()
		futs := make([]*tm.Future, len(args)-1)
		for i, key := range args[1:] {
			h := HashKey(key)
			k := key
			futs[i] = c.s.be.Async(c.s.be.ShardFor(h), func(tx tm.Tx) uint64 {
				return c.s.ix.DelTx(tx, h, k)
			})
		}
		c.queue(func() {
			var n int64
			var firstErr error
			for _, f := range futs {
				v, err := f.Wait()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				n += int64(v)
			}
			c.s.m.observe("del", start)
			if firstErr != nil {
				c.s.m.err(c.slot)
				c.w.Error(errReply(firstErr))
				return
			}
			c.w.Int(n)
		})

	case "INCR", "DECR", "INCRBY", "DECRBY":
		c.s.m.op("incr", c.slot)
		delta := int64(1)
		switch cmd {
		case "DECR":
			delta = -1
		case "INCRBY", "DECRBY":
			if len(args) != 3 {
				c.queueErr("ERR wrong number of arguments for '" + strings.ToLower(cmd) + "' command")
				return false
			}
			v, err := strconv.ParseInt(string(args[2]), 10, 64)
			if err != nil {
				c.queueErr(ErrNotInteger.Error())
				return false
			}
			delta = v
			if cmd == "DECRBY" {
				delta = -delta
			}
		}
		if (cmd == "INCR" || cmd == "DECR") && len(args) != 2 {
			c.queueErr("ERR wrong number of arguments for '" + strings.ToLower(cmd) + "' command")
			return false
		}
		key := args[1]
		h := HashKey(key)
		start := time.Now()
		fut := c.s.be.Async(c.s.be.ShardFor(h), func(tx tm.Tx) uint64 {
			return c.s.ix.IncrTx(tx, h, key, delta)
		})
		c.queue(func() {
			v, err := fut.Wait()
			c.s.m.observe("incr", start)
			if err != nil {
				c.s.m.err(c.slot)
				c.w.Error(errReply(err))
				return
			}
			c.w.Int(int64(v))
		})

	case "GET":
		c.s.m.op("get", c.slot)
		if len(args) != 2 {
			c.queueErr("ERR wrong number of arguments for 'get' command")
			return false
		}
		start := time.Now()
		c.drain() // read-your-writes: resolve this connection's pending writes first
		val, ok := c.get(args[1])
		c.s.m.observe("get", start)
		if !ok {
			c.w.Null()
			return false
		}
		c.w.Bulk(val)

	case "MGET":
		c.s.m.op("mget", c.slot)
		if len(args) < 2 {
			c.queueErr("ERR wrong number of arguments for 'mget' command")
			return false
		}
		start := time.Now()
		c.drain()
		c.w.Array(len(args) - 1)
		for _, key := range args[1:] {
			if val, ok := c.get(key); ok {
				c.w.Bulk(val)
			} else {
				c.w.Null()
			}
		}
		c.s.m.observe("mget", start)

	case "SCAN":
		c.s.m.op("scan", c.slot)
		if len(args) != 2 && !(len(args) == 4 && strings.EqualFold(string(args[2]), "COUNT")) {
			c.queueErr("ERR syntax error")
			return false
		}
		cursor, err := strconv.ParseUint(string(args[1]), 10, 64)
		if err != nil {
			c.queueErr("ERR invalid cursor")
			return false
		}
		count := 10
		if len(args) == 4 {
			n, err := strconv.Atoi(string(args[3]))
			if err != nil || n <= 0 {
				c.queueErr("ERR value is not an integer or out of range")
				return false
			}
			count = n
		}
		start := time.Now()
		c.drain()
		keys, next := c.scan(cursor, count)
		c.w.Array(2)
		c.w.Bulk(strconv.AppendUint(nil, next, 10))
		c.w.Array(len(keys))
		for _, k := range keys {
			c.w.Bulk(k)
		}
		c.s.m.observe("scan", start)

	case "DBSIZE":
		c.s.m.op("other", c.slot)
		c.drain()
		var n uint64
		for i := 0; i < c.s.be.Shards(); i++ {
			n += c.s.be.Read(i, c.s.ix.CountTx)
		}
		c.w.Int(int64(n))

	case "PING":
		c.s.m.op("other", c.slot)
		if len(args) >= 2 {
			msg := args[1]
			c.queue(func() { c.w.Bulk(msg) })
		} else {
			c.queue(func() { c.w.Simple("PONG") })
		}

	case "ECHO":
		c.s.m.op("other", c.slot)
		if len(args) != 2 {
			c.queueErr("ERR wrong number of arguments for 'echo' command")
			return false
		}
		msg := args[1]
		c.queue(func() { c.w.Bulk(msg) })

	case "COMMAND":
		// redis-cli sends this on connect; an empty array keeps it happy.
		c.s.m.op("other", c.slot)
		c.queue(func() { c.w.Array(0) })

	case "QUIT":
		c.queue(func() { c.w.Simple("OK") })
		return true

	default:
		c.s.m.op("other", c.slot)
		c.queueErr("ERR unknown command '" + strings.ToLower(string(args[0])) + "'")
	}
	return false
}

// read runs body as a read-only transaction on shard and returns the value
// of the execution that counted (tm.Collect): a body may re-run, and on a
// wait-free engine a promoted read runs on helpers concurrently, so it must
// not hand its result out through captured variables.
func read[T any](c *connState, shard int, body func(tm.Tx) T) T {
	return tm.Collect(func(fn func(tm.Tx) uint64) uint64 { return c.s.be.Read(shard, fn) }, body)
}

// get runs a read-only lookup on key's home shard.
func (c *connState) get(key []byte) (val []byte, ok bool) {
	type hit struct {
		val []byte
		ok  bool
	}
	h := HashKey(key)
	r := read(c, c.s.be.ShardFor(h), func(tx tm.Tx) hit {
		val, ok := c.s.ix.GetTx(tx, h, key)
		return hit{val, ok}
	})
	return r.val, r.ok
}

// scan advances a global cursor across shards: the high 32 bits select the
// shard, the low 32 the bucket within it. Cursor 0 starts; 0 returned
// means the keyspace is exhausted.
func (c *connState) scan(cursor uint64, count int) (keys [][]byte, next uint64) {
	type page struct {
		keys [][]byte
		next uint64
	}
	sh := int(cursor >> 32)
	bucket := cursor & 0xFFFFFFFF
	if sh >= c.s.be.Shards() {
		return nil, 0
	}
	pg := read(c, sh, func(tx tm.Tx) page {
		keys, next := c.s.ix.ScanTx(tx, bucket, count)
		return page{keys, next}
	})
	keys, next = pg.keys, pg.next
	if next != 0 {
		return keys, uint64(sh)<<32 | next
	}
	if sh+1 < c.s.be.Shards() {
		return keys, uint64(sh+1) << 32
	}
	return keys, 0
}
