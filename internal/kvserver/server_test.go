package kvserver

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"onefile/internal/core"
	"onefile/internal/obs"
	"onefile/internal/pmem"
	"onefile/internal/pmem/filedev"
	"onefile/internal/shard"
	"onefile/internal/tm"
)

func testOpts() []tm.Option {
	return []tm.Option{
		tm.WithHeapWords(1 << 17),
		tm.WithMaxThreads(32),
	}
}

// startServer boots a server over be on a loopback listener and returns a
// dialer plus a shutdown func.
func startServer(t *testing.T, be Backend, buckets int) (dial func() *Client, shutdown func()) {
	t.Helper()
	return serve(t, NewServer(be, NewIndex(buckets), obs.NewRegistry()))
}

// serve initialises srv and serves it on a loopback listener.
func serve(t *testing.T, srv *Server) (dial func() *Client, shutdown func()) {
	t.Helper()
	if err := srv.Init(); err != nil {
		t.Fatalf("init: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	addr := ln.Addr().String()
	dial = func() *Client {
		c, err := Dial(addr, 2*time.Second)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		c.SetDeadline(time.Now().Add(30 * time.Second))
		return c
	}
	shutdown = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
	return dial, shutdown
}

func mustDo(t *testing.T, c *Client, args ...string) Value {
	t.Helper()
	v, err := c.Do(args...)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return v
}

func TestServerCommands(t *testing.T) {
	e := core.NewLF(testOpts()...)
	defer e.Close()
	dial, shutdown := startServer(t, EngineBackend{E: e}, 1<<10)
	defer shutdown()
	c := dial()
	defer c.Close()

	if v := mustDo(t, c, "PING"); string(v.Str) != "PONG" {
		t.Fatalf("PING = %q", v.Str)
	}
	if v := mustDo(t, c, "GET", "missing"); !v.Null {
		t.Fatalf("GET missing = %+v, want null", v)
	}
	if v := mustDo(t, c, "SET", "k1", "hello"); string(v.Str) != "OK" {
		t.Fatalf("SET = %+v", v)
	}
	if v := mustDo(t, c, "GET", "k1"); string(v.Str) != "hello" {
		t.Fatalf("GET k1 = %q", v.Str)
	}
	// Overwrite with a different-length value (realloc path).
	mustDo(t, c, "SET", "k1", "a considerably longer value than before")
	if v := mustDo(t, c, "GET", "k1"); string(v.Str) != "a considerably longer value than before" {
		t.Fatalf("GET k1 after overwrite = %q", v.Str)
	}
	if v := mustDo(t, c, "INCR", "n"); v.Int != 1 {
		t.Fatalf("INCR n = %+v", v)
	}
	if v := mustDo(t, c, "INCRBY", "n", "41"); v.Int != 42 {
		t.Fatalf("INCRBY = %+v", v)
	}
	if v := mustDo(t, c, "DECR", "n"); v.Int != 41 {
		t.Fatalf("DECR = %+v", v)
	}
	if v := mustDo(t, c, "INCR", "k1"); v.Err() == nil {
		t.Fatalf("INCR on non-integer: want error, got %+v", v)
	}
	mustDo(t, c, "SET", "k2", "x")
	if v := mustDo(t, c, "MGET", "k1", "missing", "k2"); len(v.Arr) != 3 ||
		v.Arr[0].Null || !v.Arr[1].Null || string(v.Arr[2].Str) != "x" {
		t.Fatalf("MGET = %+v", v)
	}
	if v := mustDo(t, c, "DBSIZE"); v.Int != 3 {
		t.Fatalf("DBSIZE = %+v, want 3", v)
	}
	if v := mustDo(t, c, "DEL", "k1", "missing", "k2"); v.Int != 2 {
		t.Fatalf("DEL = %+v, want 2", v)
	}
	if v := mustDo(t, c, "DBSIZE"); v.Int != 1 {
		t.Fatalf("DBSIZE after DEL = %+v, want 1", v)
	}
	if v := mustDo(t, c, "NOSUCH"); v.Err() == nil {
		t.Fatalf("unknown command: want error, got %+v", v)
	}
	if v := mustDo(t, c, "SET", "only-key"); v.Err() == nil {
		t.Fatalf("SET arity: want error, got %+v", v)
	}
	if v := mustDo(t, c, "ECHO", "payload"); string(v.Str) != "payload" {
		t.Fatalf("ECHO = %+v", v)
	}
	if v := mustDo(t, c, "QUIT"); string(v.Str) != "OK" {
		t.Fatalf("QUIT = %+v", v)
	}
}

// TestServerScan verifies SCAN enumerates exactly the live keys, across
// cursor steps.
func TestServerScan(t *testing.T) {
	e := core.NewLF(testOpts()...)
	defer e.Close()
	dial, shutdown := startServer(t, EngineBackend{E: e}, 1<<10)
	defer shutdown()
	c := dial()
	defer c.Close()

	want := map[string]bool{}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%03d", i)
		mustDo(t, c, "SET", k, "v")
		want[k] = true
	}
	got := map[string]bool{}
	cursor := "0"
	for {
		v := mustDo(t, c, "SCAN", cursor, "COUNT", "17")
		if len(v.Arr) != 2 {
			t.Fatalf("SCAN reply shape: %+v", v)
		}
		for _, kv := range v.Arr[1].Arr {
			k := string(kv.Str)
			if got[k] {
				t.Fatalf("SCAN returned %q twice", k)
			}
			got[k] = true
		}
		cursor = string(v.Arr[0].Str)
		if cursor == "0" {
			break
		}
	}
	if len(got) != len(want) {
		t.Fatalf("SCAN found %d keys, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("SCAN missed %q", k)
		}
	}
}

// TestServerPipelining sends a burst of commands before reading any reply
// and checks the replies come back in order — the path where one drain
// holds a full window from one connection.
func TestServerPipelining(t *testing.T) {
	e := core.NewWF(testOpts()...)
	defer e.Close()
	dial, shutdown := startServer(t, EngineBackend{E: e}, 1<<10)
	defer shutdown()
	c := dial()
	defer c.Close()

	const n = 200
	for i := 0; i < n; i++ {
		c.SendStr("SET", "pk"+strconv.Itoa(i), "v"+strconv.Itoa(i))
		c.SendStr("INCR", "pipeline-counter")
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for i := 0; i < n; i++ {
		if v, err := c.Recv(); err != nil || string(v.Str) != "OK" {
			t.Fatalf("SET reply %d = %+v, %v", i, v, err)
		}
		if v, err := c.Recv(); err != nil || v.Int != int64(i+1) {
			t.Fatalf("INCR reply %d = %+v, %v (want %d)", i, v, err, i+1)
		}
	}
	if v := mustDo(t, c, "GET", "pk57"); string(v.Str) != "v57" {
		t.Fatalf("GET pk57 = %q", v.Str)
	}
}

// TestServerConcurrent hammers the server from several connections at once
// (the race-detector target): disjoint per-worker keys plus one shared
// counter whose final value checks exactly-once execution of every acked
// INCR.
func TestServerConcurrent(t *testing.T) {
	e := core.NewLF(testOpts()...)
	defer e.Close()
	dial, shutdown := startServer(t, EngineBackend{E: e}, 1<<10)
	defer shutdown()

	const workers = 8
	iters := 100
	if testing.Short() {
		iters = 30
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := dial()
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("w%d-k%d", w, rng.Intn(32))
				switch rng.Intn(4) {
				case 0:
					if v, err := c.Do("SET", key, strconv.Itoa(i)); err != nil || v.Err() != nil {
						errs <- fmt.Errorf("SET: %v %v", err, v.Err())
						return
					}
				case 1:
					if _, err := c.Do("GET", key); err != nil {
						errs <- fmt.Errorf("GET: %v", err)
						return
					}
				case 2:
					if v, err := c.Do("DEL", key); err != nil || v.Err() != nil {
						errs <- fmt.Errorf("DEL: %v %v", err, v.Err())
						return
					}
				case 3:
					if v, err := c.Do("INCR", "shared"); err != nil || v.Err() != nil {
						errs <- fmt.Errorf("INCR: %v %v", err, v.Err())
						return
					}
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	var incrs int64
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Count the INCRs each worker issued (deterministic rngs, replayed).
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < iters; i++ {
			rng.Intn(32)
			if rng.Intn(4) == 3 {
				incrs++
			}
		}
	}
	c := dial()
	defer c.Close()
	v := mustDo(t, c, "GET", "shared")
	if got, _ := strconv.ParseInt(string(v.Str), 10, 64); got != incrs {
		t.Fatalf("shared counter = %d, want %d (every acked INCR exactly once)", got, incrs)
	}
}

// TestServerSharded runs the command mix against a hash-partitioned store:
// keys land on different shards, DEL fans out, SCAN crosses shard cursors.
func TestServerSharded(t *testing.T) {
	st, err := shard.NewVolatile(3, false, nil, testOpts()...)
	if err != nil {
		t.Fatalf("NewVolatile: %v", err)
	}
	defer st.Close()
	dial, shutdown := startServer(t, ShardedBackend{St: st}, 1<<10)
	defer shutdown()
	c := dial()
	defer c.Close()

	const n = 300
	for i := 0; i < n; i++ {
		mustDo(t, c, "SET", "sk"+strconv.Itoa(i), "val"+strconv.Itoa(i))
	}
	if v := mustDo(t, c, "DBSIZE"); v.Int != n {
		t.Fatalf("DBSIZE = %d, want %d", v.Int, n)
	}
	for i := 0; i < n; i += 37 {
		if v := mustDo(t, c, "GET", "sk"+strconv.Itoa(i)); string(v.Str) != "val"+strconv.Itoa(i) {
			t.Fatalf("GET sk%d = %q", i, v.Str)
		}
	}
	// SCAN across shard cursor transitions finds everything exactly once.
	got := map[string]bool{}
	cursor := "0"
	for {
		v := mustDo(t, c, "SCAN", cursor, "COUNT", "50")
		for _, kv := range v.Arr[1].Arr {
			if got[string(kv.Str)] {
				t.Fatalf("sharded SCAN returned %q twice", kv.Str)
			}
			got[string(kv.Str)] = true
		}
		cursor = string(v.Arr[0].Str)
		if cursor == "0" {
			break
		}
	}
	if len(got) != n {
		t.Fatalf("sharded SCAN found %d keys, want %d", len(got), n)
	}
	if v := mustDo(t, c, "DEL", "sk1", "sk2", "sk3", "sk4", "nope"); v.Int != 4 {
		t.Fatalf("multi-shard DEL = %d, want 4", v.Int)
	}
}

// TestServerShutdownDrains checks the graceful-shutdown invariant: a
// client with acked writes in flight sees every reply, and the data is
// still in the engine afterwards.
func TestServerShutdownDrains(t *testing.T) {
	e := core.NewLF(testOpts()...)
	defer e.Close()
	ix := NewIndex(1 << 10)
	srv := NewServer(EngineBackend{E: e}, ix, nil)
	if err := srv.Init(); err != nil {
		t.Fatalf("init: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	c, err := Dial(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	const n = 100
	for i := 0; i < n; i++ {
		c.SendStr("SET", "dk"+strconv.Itoa(i), "v")
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// Shut down while the burst is in flight.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	// Every reply must have been written before the connection closed.
	c.SetDeadline(time.Now().Add(5 * time.Second))
	acked := 0
	for i := 0; i < n; i++ {
		v, err := c.Recv()
		if err != nil {
			break // connection closed after the drain point
		}
		if string(v.Str) != "OK" {
			t.Fatalf("reply %d = %+v", i, v)
		}
		acked++
	}
	// All commands the server read before the shutdown kick were answered;
	// everything acked must be in the engine.
	for i := 0; i < acked; i++ {
		key := []byte("dk" + strconv.Itoa(i))
		h := HashKey(key)
		var ok bool
		e.Read(func(tx tm.Tx) uint64 {
			_, ok = ix.GetTx(tx, h, key)
			return 0
		})
		if !ok {
			t.Fatalf("acked key %s lost after shutdown", key)
		}
	}
	t.Logf("acked %d/%d writes before drain point", acked, n)
}

// TestServerFileReattach writes through the service, shuts down cleanly,
// reopens the device file with attach, and reads the data back.
func TestServerFileReattach(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.img")
	opts := testOpts()
	openDev := func() (pmem.Device, bool) {
		cfg := core.DeviceConfig(pmem.StrictMode, 1, opts...)
		dev, created, err := filedev.OpenOrCreate(path, cfg)
		if err != nil {
			t.Fatalf("open device: %v", err)
		}
		return dev, !created
	}

	writeOnce := func() {
		dev, existed := openDev()
		e, err := core.NewPersistentLF(dev, existed, opts...)
		if err != nil {
			t.Fatalf("open engine: %v", err)
		}
		dial, shutdown := startServer(t, EngineBackend{E: e}, 1<<10)
		c := dial()
		for i := 0; i < 50; i++ {
			mustDo(t, c, "SET", "fk"+strconv.Itoa(i), "fv"+strconv.Itoa(i))
		}
		c.Close()
		shutdown()
		if err := e.Close(); err != nil {
			t.Fatalf("engine close: %v", err)
		}
		if err := dev.Close(); err != nil {
			t.Fatalf("device close: %v", err)
		}
	}
	writeOnce()

	dev, existed := openDev()
	if !existed {
		t.Fatalf("device file not recognised on reopen")
	}
	e, err := core.NewPersistentLF(dev, true, opts...)
	if err != nil {
		t.Fatalf("reattach: %v", err)
	}
	dial, shutdown := startServer(t, EngineBackend{E: e}, 1<<10)
	c := dial()
	for i := 0; i < 50; i++ {
		if v := mustDo(t, c, "GET", "fk"+strconv.Itoa(i)); string(v.Str) != "fv"+strconv.Itoa(i) {
			t.Fatalf("after reattach GET fk%d = %q", i, v.Str)
		}
	}
	if v := mustDo(t, c, "DBSIZE"); v.Int != 50 {
		t.Fatalf("DBSIZE after reattach = %d", v.Int)
	}
	c.Close()
	shutdown()
	if err := e.Close(); err != nil {
		t.Fatalf("engine close: %v", err)
	}
	if err := dev.Close(); err != nil {
		t.Fatalf("device close: %v", err)
	}
}

// TestRespProtocolLimits checks hostile input is rejected without
// wedging the connection handler.
func TestRespProtocolLimits(t *testing.T) {
	e := core.NewLF(testOpts()...)
	defer e.Close()
	dial, shutdown := startServer(t, EngineBackend{E: e}, 1<<10)
	defer shutdown()

	// Oversized bulk length.
	c := dial()
	fmt.Fprintf(clientConn(c), "*2\r\n$3\r\nGET\r\n$99999999\r\n")
	if v, err := c.Recv(); err == nil && v.Err() == nil {
		t.Fatalf("oversized bulk accepted: %+v", v)
	}
	c.Close()

	// Inline command still works.
	c2 := dial()
	defer c2.Close()
	fmt.Fprintf(clientConn(c2), "PING\r\n")
	if v, err := c2.Recv(); err != nil || string(v.Str) != "PONG" {
		t.Fatalf("inline PING = %+v, %v", v, err)
	}

	// Value above the store cap is rejected with an error reply, and the
	// connection survives.
	c3 := dial()
	defer c3.Close()
	big := make([]byte, MaxValLen+1)
	v, err := c3.Do("SET", "big", string(big))
	if err != nil || v.Err() == nil {
		t.Fatalf("oversized SET: %+v, %v", v, err)
	}
	if v := mustDo(t, c3, "PING"); string(v.Str) != "PONG" {
		t.Fatalf("connection dead after oversized SET: %+v", v)
	}
}

// clientConn exposes the raw conn for protocol-violation tests.
func clientConn(c *Client) net.Conn { return c.nc }
