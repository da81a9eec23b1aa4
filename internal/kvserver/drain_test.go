package kvserver

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"onefile/internal/core"
	"onefile/internal/obs"
	"onefile/internal/pmem"
	"onefile/internal/shard"
	"onefile/internal/tm"
)

// Every drain test runs on both persistent OneFile variants: the lock-free
// one, where a body runs on its caller, and the wait-free one, where it may
// run on helpers after the handler has moved on.
var ptmVariants = []struct {
	name     string
	waitFree bool
}{{"OF-LF-PTM", false}, {"OF-WF-PTM", true}}

func newSimDevice(t *testing.T, opts []tm.Option) pmem.Device {
	t.Helper()
	dev, err := pmem.New(core.DeviceConfig(pmem.StrictMode, 1, opts...))
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func newPTM(t *testing.T, waitFree bool, opts ...tm.Option) *core.Engine {
	t.Helper()
	open := core.NewPersistentLF
	if waitFree {
		open = core.NewPersistentWF
	}
	e, err := open(newSimDevice(t, opts), false, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// pipeline sends cmds in one Write and returns their replies.
func pipeline(t *testing.T, c *Client, cmds ...[]string) []Value {
	t.Helper()
	for _, cmd := range cmds {
		c.SendStr(cmd...)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	out := make([]Value, len(cmds))
	for i := range out {
		v, err := c.Recv()
		if err != nil {
			t.Fatalf("reply %d (%v): %v", i, cmds[i], err)
		}
		out[i] = v
	}
	return out
}

// TestDrainMatchesSequential: one Write holding eight dependent commands is
// answered exactly as eight round trips are, and ran as one transaction.
func TestDrainMatchesSequential(t *testing.T) {
	cmds := [][]string{
		{"SET", "k", "a"}, {"GET", "k"}, {"INCR", "n"}, {"SET", "k", "b"},
		{"GET", "k"}, {"DEL", "k"}, {"GET", "k"}, {"DBSIZE"},
	}
	for _, v := range ptmVariants {
		t.Run(v.name, func(t *testing.T) {
			srv := NewServer(EngineBackend{E: newPTM(t, v.waitFree, testOpts()...)}, NewIndex(1<<10), obs.NewRegistry())
			dial, shutdown := serve(t, srv)
			defer shutdown()
			c := dial()
			defer c.Close()
			piped := pipeline(t, c, cmds...)

			dial2, shutdown2 := startServer(t, EngineBackend{E: newPTM(t, v.waitFree, testOpts()...)}, 1<<10)
			defer shutdown2()
			c2 := dial2()
			defer c2.Close()
			for i, cmd := range cmds {
				if want := mustDo(t, c2, cmd...); !reflect.DeepEqual(piped[i], want) {
					t.Errorf("%v: pipelined reply %+v, sequential reply %+v", cmd, piped[i], want)
				}
			}
			if h := srv.m.drains.Snapshot(); h.Count != 1 || h.Sum != uint64(len(cmds)) {
				t.Errorf("kv_drain_commands: %d transactions holding %d commands, want 1 holding %d", h.Count, h.Sum, len(cmds))
			}
		})
	}
}

// TestDrainErrorIsolation: a command whose body fails takes its whole
// transaction down; the halving re-run must leave it alone with its error
// and run its neighbours exactly once.
func TestDrainErrorIsolation(t *testing.T) {
	for _, v := range ptmVariants {
		t.Run(v.name, func(t *testing.T) {
			srv := NewServer(EngineBackend{E: newPTM(t, v.waitFree, testOpts()...)}, NewIndex(1<<10), obs.NewRegistry())
			dial, shutdown := serve(t, srv)
			defer shutdown()
			c := dial()
			defer c.Close()
			mustDo(t, c, "SET", "text", "not a number")
			r := pipeline(t, c, []string{"INCR", "n"}, []string{"INCR", "text"}, []string{"INCR", "n"}, []string{"GET", "n"})
			if r[0].Int != 1 || r[2].Int != 2 || string(r[3].Str) != "2" {
				t.Errorf("neighbours of the failing INCR: %+v, %+v, then GET %+v; want 1, 2, \"2\"", r[0], r[2], r[3])
			}
			if err := r[1].Err(); err == nil || err.Error() != ErrNotInteger.Error() {
				t.Errorf("INCR of a non-integer answered %+v, want %q", r[1], ErrNotInteger)
			}
			if v := mustDo(t, c, "GET", "text"); string(v.Str) != "not a number" {
				t.Errorf("the failed INCR left %q behind", v.Str)
			}
			if srv.m.splits.Value() == 0 {
				t.Error("kv_drain_splits_total did not move")
			}
		})
	}
}

// TestDrainReadBodyPanic: a window with no write whose body panics splits
// as a window with a write does. The failing command alone answers -ERR,
// its neighbours answer normally, and the connection and the server stay
// up. The panic comes from the engine's own pointer check: a bucket head
// that points past the heap makes a GET of that bucket load out of range.
func TestDrainReadBodyPanic(t *testing.T) {
	for _, v := range ptmVariants {
		t.Run(v.name, func(t *testing.T) {
			opts := testOpts()
			e := newPTM(t, v.waitFree, opts...)
			ix := NewIndex(1 << 10)
			srv := NewServer(EngineBackend{E: e}, ix, obs.NewRegistry())
			dial, shutdown := serve(t, srv)
			defer shutdown()
			c := dial()
			defer c.Close()
			mustDo(t, c, "SET", "bad", "x")
			mustDo(t, c, "SET", "good", "y")
			mask := ix.Buckets() - 1
			bad := HashKey([]byte("bad")) & mask
			if bad == HashKey([]byte("good"))&mask {
				t.Fatal("the two keys share a bucket")
			}
			wild := uint64(tm.Apply(opts).HeapWords) // the first word past the heap
			e.Update(func(tx tm.Tx) uint64 {
				tx.Store(ix.bucketSlot(tx, bad, false), wild)
				return 0
			})

			r := pipeline(t, c, []string{"GET", "good"}, []string{"GET", "bad"}, []string{"DBSIZE"})
			if string(r[0].Str) != "y" || r[2].Int != 2 {
				t.Errorf("neighbours of the failing GET: %+v and DBSIZE %+v; want \"y\" and 2", r[0], r[2])
			}
			if err := r[1].Err(); err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Errorf("GET through a wild bucket head answered %+v, want an out-of-range error", r[1])
			}
			if srv.m.splits.Value() == 0 {
				t.Error("kv_drain_splits_total did not move")
			}
			if v := mustDo(t, c, "PING"); v.Str == nil || string(v.Str) != "PONG" {
				t.Errorf("PING on the same connection answered %+v", v)
			}
			c2 := dial()
			defer c2.Close()
			if v := mustDo(t, c2, "GET", "good"); string(v.Str) != "y" {
				t.Errorf("GET on a new connection answered %+v", v)
			}
		})
	}
}

// TestDrainOverflow: a window whose combined stores overflow the write-set
// still succeeds command by command (the halving path), and a command that
// overflows alone gets the overflow as its own reply.
func TestDrainOverflow(t *testing.T) {
	const window = 32
	opts := append(testOpts(), tm.WithMaxStores(64))
	for _, v := range ptmVariants {
		t.Run(v.name, func(t *testing.T) {
			srv := NewServer(EngineBackend{E: newPTM(t, v.waitFree, opts...)}, NewIndex(1<<10), obs.NewRegistry())
			dial, shutdown := serve(t, srv)
			defer shutdown()
			c := dial()
			defer c.Close()
			var sets, gets [][]string
			for i := 0; i < window; i++ {
				sets = append(sets, []string{"SET", "ok" + strconv.Itoa(i), "value-" + strconv.Itoa(i)})
				gets = append(gets, []string{"GET", "ok" + strconv.Itoa(i)})
			}
			for i, r := range pipeline(t, c, sets...) {
				if string(r.Str) != "OK" {
					t.Fatalf("SET %d of an overflowing window: %+v", i, r)
				}
			}
			if srv.m.splits.Value() == 0 {
				t.Fatal("the window fitted one write-set: the test does not reach the halving path")
			}
			for i, r := range pipeline(t, c, gets...) {
				if string(r.Str) != "value-"+strconv.Itoa(i) {
					t.Fatalf("GET ok%d = %+v", i, r)
				}
			}
			r := pipeline(t, c, []string{"SET", "a", "1"}, []string{"SET", "big", strings.Repeat("x", 2048)}, []string{"SET", "b", "2"}, []string{"MGET", "a", "big", "b"})
			if err := r[1].Err(); err == nil || !strings.Contains(err.Error(), tm.ErrTooManyStores.Error()) {
				t.Fatalf("SET overflowing alone answered %+v, want %q", r[1], tm.ErrTooManyStores)
			}
			if m := r[3].Arr; string(r[0].Str) != "OK" || string(r[2].Str) != "OK" ||
				len(m) != 3 || string(m[0].Str) != "1" || !m[1].Null || string(m[2].Str) != "2" {
				t.Fatalf("around the overflowing SET: %+v", r)
			}
		})
	}
}

// TestDrainSharded: commands of one window that alternate between shards
// split it into many transactions; per-connection order and
// read-your-writes must survive that.
func TestDrainSharded(t *testing.T) {
	const shards, rounds = 3, 24
	for _, v := range ptmVariants {
		t.Run(v.name, func(t *testing.T) {
			devs := make([]pmem.Device, shards)
			for i := range devs {
				devs[i] = newSimDevice(t, testOpts())
			}
			st, err := shard.NewPersistent(devs, v.waitFree, false, nil, testOpts()...)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			be := ShardedBackend{St: st}
			dial, shutdown := startServer(t, be, 1<<10)
			defer shutdown()
			c := dial()
			defer c.Close()

			// One key per shard, so consecutive commands change shard.
			keys := make([]string, 0, shards)
			for i := 0; len(keys) < shards; i++ {
				k := "sk" + strconv.Itoa(i)
				if be.ShardFor(HashKey([]byte(k))) == len(keys) {
					keys = append(keys, k)
				}
			}
			var cmds [][]string
			for r := 0; r < rounds; r++ {
				for _, k := range keys {
					cmds = append(cmds, []string{"SET", k, k + "=" + strconv.Itoa(r)}, []string{"INCR", "n" + k})
				}
				for _, k := range keys {
					cmds = append(cmds, []string{"GET", k})
				}
			}
			cmds = append(cmds, append([]string{"MGET"}, keys...), []string{"DBSIZE"}, append([]string{"DEL"}, keys...), []string{"DBSIZE"})
			rep := pipeline(t, c, cmds...)
			i := 0
			for r := 0; r < rounds; r++ {
				for range keys {
					if string(rep[i].Str) != "OK" || rep[i+1].Int != int64(r+1) {
						t.Fatalf("round %d: SET %+v, INCR %+v", r, rep[i], rep[i+1])
					}
					i += 2
				}
				for _, k := range keys {
					if want := k + "=" + strconv.Itoa(r); string(rep[i].Str) != want {
						t.Fatalf("round %d: GET %s = %q, want %q", r, k, rep[i].Str, want)
					}
					i++
				}
			}
			for j, k := range keys {
				if want := k + "=" + strconv.Itoa(rounds-1); string(rep[i].Arr[j].Str) != want {
					t.Fatalf("MGET %s = %q, want %q", k, rep[i].Arr[j].Str, want)
				}
			}
			if rep[i+1].Int != 2*shards || rep[i+2].Int != shards || rep[i+3].Int != shards {
				t.Fatalf("DBSIZE %+v, DEL %+v, DBSIZE %+v; want %d, %d, %d", rep[i+1], rep[i+2], rep[i+3], 2*shards, shards, shards)
			}
		})
	}
}

// TestDrainBounds: a burst larger than one drain, with commands cut at
// arbitrary byte boundaries, is answered completely and in order.
func TestDrainBounds(t *testing.T) {
	dial, shutdown := startServer(t, EngineBackend{E: newPTM(t, false, testOpts()...)}, 1<<10)
	defer shutdown()
	c := dial()
	defer c.Close()
	const n = 3*drainCommands + 17
	var wire []byte
	for i := 0; i < n; i++ {
		wire = append(wire, fmt.Sprintf("*3\r\n$3\r\nSET\r\n$4\r\nk%03d\r\n$%d\r\n%s\r\n", i%1000, 1+i%40, strings.Repeat("v", 1+i%40))...)
		wire = append(wire, "*2\r\n$4\r\nINCR\r\n$1\r\nn\r\n"...)
	}
	go func() {
		for step := 1; len(wire) > 0; step = step*7%1021 + 1 {
			k := min(step, len(wire))
			if _, err := clientConn(c).Write(wire[:k]); err != nil {
				return
			}
			wire = wire[k:]
		}
	}()
	for i := 0; i < n; i++ {
		if v, err := c.Recv(); err != nil || string(v.Str) != "OK" {
			t.Fatalf("SET %d: %+v, %v", i, v, err)
		}
		if v, err := c.Recv(); err != nil || v.Int != int64(i+1) {
			t.Fatalf("INCR %d: %+v, %v", i, v, err)
		}
	}
	// A value larger than the read buffer, then a command behind it.
	big := strings.Repeat("b", MaxValLen)
	r := pipeline(t, c, []string{"SET", "big", big}, []string{"GET", "big"}, []string{"PING"})
	if string(r[0].Str) != "OK" || string(r[1].Str) != big || string(r[2].Str) != "PONG" {
		t.Fatalf("around a %d-byte value: %.20q %.20q %q", len(big), r[0].Str, r[1].Str, r[2].Str)
	}
}

// TestServeAfterShutdown: a Shutdown that ran before Serve registered its
// listener must still stop it.
func TestServeAfterShutdown(t *testing.T) {
	srv := NewServer(EngineBackend{E: newPTM(t, false, testOpts()...)}, NewIndex(1<<10), nil)
	if err := srv.Init(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve after shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve keeps accepting after Shutdown")
	}
	if c, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		c.Close()
		t.Fatal("listener left open")
	}
}
