package kvserver

// The server: a TCP accept loop and, per connection, a loop over pipeline
// drains (drain.go) that turns client commands into transactions on a
// Backend.
//
// A drain is every complete command a connection's read buffer holds when
// the handler looks (at most drainCommands commands and about drainBytes
// bytes): one command from a request/response client, a whole window from a
// pipelining one. The handler turns the drain into a flat list of
// single-shard index operations plus one in-order reply record per command,
// runs each maximal same-shard run of that list as ONE transaction —
// through tm.AsyncUpdate (Update's transaction, its failure returned as the
// future's error) when the run holds a write, as Engine.Read when it does
// not — then writes every reply in order and flushes. One commit CAS
// and one persistence round per run, however many commands it holds; a lone
// command is a drain of one through the same code. Concurrent connections'
// drains commit as concurrent Updates do: retried on a lock-free engine,
// aggregated on a wait-free one.
//
// The contract with clients:
//
//   - Program order. A connection's commands take effect, and are answered,
//     in the order it sent them; each reads its predecessors' writes.
//   - Replies after durability. A reply is written only after the
//     transaction that holds its command committed — on persistent engines,
//     after it is durable. Acked implies recoverable; the killtest soak
//     checks exactly that.
//   - A same-shard run of a drain is one transaction: other connections see
//     all of it or none of it. Clients must not rely on that — where a drain
//     ends depends on how bytes arrived — with one exception that follows
//     from a command never straddling drains: MGET and multi-key DEL are a
//     snapshot / atomic over the keys that share a shard (all keys, on an
//     unsharded backend), and not across shards.
//   - Error isolation. A transaction that fails (write-set or heap
//     overflow, INCR of a non-integer) fails as a whole and leaves no trace,
//     so the handler re-runs it as its two halves until the failing command
//     stands alone: it gets the error, its neighbours succeed.
//
// Reads inside a drain that also writes run in the update transaction; a read-only drain stays a read transaction
// (DESIGN.md §10, "Pipeline drains").

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"onefile/internal/obs"
	"onefile/internal/shard"
	"onefile/internal/tm"
)

// Backend is the storage a Server runs on: one engine, or N engines behind
// a partitioner. Async must route through the engine's AsyncUpdate when
// it has one (tm.AsyncUpdate).
type Backend interface {
	// Shards returns the number of independent partitions.
	Shards() int
	// ShardFor returns the home shard of a key hash.
	ShardFor(h uint64) int
	// Async runs fn as an update transaction on the given shard and
	// returns its resolved future.
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
// a single-shard transaction on that shard's own engine and disjoint keys
// commit on independent streams.
type ShardedBackend struct{ St *shard.Store }

func (b ShardedBackend) Shards() int           { return b.St.Shards() }
func (b ShardedBackend) ShardFor(h uint64) int { return b.St.ShardFor(h) }
func (b ShardedBackend) Async(i int, fn func(tm.Tx) uint64) *tm.Future {
	return tm.AsyncUpdate(b.St.Engine(i), fn)
}
func (b ShardedBackend) Read(i int, fn func(tm.Tx) uint64) uint64 { return b.St.ReadOn(i, fn) }
func (b ShardedBackend) Stats() tm.Stats                          { return b.St.Stats() }

const metricStripes = 8

// cmdClass groups commands for the per-command metric families.
type cmdClass uint8

const (
	classGet cmdClass = iota
	classSet
	classDel
	classIncr
	classMGet
	classScan
	classOther
	numClasses
)

var classNames = [numClasses]string{"get", "set", "del", "incr", "mget", "scan", "other"}

// serverMetrics is the obs wiring. Without a registry every handle is nil,
// and a nil handle records nothing.
type serverMetrics struct {
	ops    [numClasses]*obs.Counter
	lat    [numClasses]*obs.Histogram
	errs   *obs.Counter
	conns  *obs.Counter
	drains *obs.Histogram
	splits *obs.Counter
}

func newServerMetrics(reg *obs.Registry, s *Server) serverMetrics {
	m := serverMetrics{
		errs:   reg.Counter("kv_errors_total", "KV commands answered with an error reply", metricStripes),
		conns:  reg.Counter("kv_connections_total", "client connections accepted", metricStripes),
		drains: reg.Histogram("kv_drain_commands", "commands sharing one transaction (a same-shard run of a pipeline drain)", "commands"),
		splits: reg.Counter("kv_drain_splits_total", "failed drain transactions re-run as two halves", metricStripes),
	}
	for c, name := range classNames {
		m.ops[c] = reg.Counter("kv_cmd_"+name+"_total", "KV "+strings.ToUpper(name)+" commands served", metricStripes)
		m.lat[c] = reg.Histogram("kv_"+name+"_latency", "KV "+strings.ToUpper(name)+" service latency (its drain parsed to replies ready)", "ns")
	}
	reg.GaugeFunc("kv_connections_active", "currently open client connections", func() float64 {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		return float64(n)
	})
	return m
}

// Server is the RESP front end. Create with NewServer, initialise the
// store with Init, then Serve/ListenAndServe; Shutdown drains gracefully.
type Server struct {
	be Backend
	ix *Index
	m  serverMetrics

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
	s.m = newServerMetrics(reg, s)
	return s
}

// Init creates (or re-attaches to) the index on every shard. Must be
// called once before serving.
func (s *Server) Init() error {
	for i := 0; i < s.be.Shards(); i++ {
		if _, err := s.be.Async(i, func(tx tm.Tx) uint64 { s.ix.InitTx(tx); return 0 }).Wait(); err != nil {
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

// Serve accepts connections on ln until Shutdown closes it. After a
// Shutdown, also one that came first, it closes ln and returns nil.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	if s.draining.Load() {
		// Shutdown found no listener to close; it will not look again.
		ln.Close()
		return nil
	}
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
		// Added under mu: Shutdown sets draining before it takes mu, so its
		// wg.Wait comes after every Add of a connection it did not refuse.
		s.wg.Add(1)
		s.mu.Unlock()
		slot := int(s.connSeq.Add(1) % metricStripes)
		s.m.conns.Inc(slot)
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
// read, and waits for the handlers to finish the drains they hold and
// flush those replies. When it returns nil every submitted transaction has
// resolved and every reply is flushed — the caller may close the engines
// and NVM. On ctx expiry remaining connections are closed hard and
// ctx.Err() is returned.
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
