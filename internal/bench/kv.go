package bench

// KV service load harness: YCSB-style key-value mixes driven over real
// sockets against the RESP front end (internal/kvserver, cmd/onefile-kv).
// Unlike the engine benchmarks in this package, the measured path is the
// whole service — RESP parsing, the pipelining window (one transaction per
// drain), and the persistent engine — which is what
// `onefile-bench -fig kv` reports into BENCH_*.json.
//
// By default the harness starts an in-process server over a persistent
// engine on a loopback listener (still real TCP sockets and real client
// connections); -kv-addr points it at an externally started onefile-kv
// instead, in which case the server's engine and key sizing are whatever
// that process was given.
//
// Each connection runs a closed pipelined loop: fill the window, flush,
// drain every reply, repeat. Latency is measured per operation from the
// moment it is queued on the connection to the moment its reply is
// decoded, so it includes the pipelining queue delay — the figure a real
// pipelined client observes, not the bare server service time.

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"strings"
	"time"

	"onefile/internal/kvserver"
	"onefile/internal/pmem"
	"onefile/internal/tm"
)

// KVMix is one workload mix, in percentage points. Read+Update+Scan must
// not exceed 100; any remainder counts as reads.
type KVMix struct {
	Name   string
	Read   int
	Update int
	Scan   int
}

// KVMixes is the default sweep: the two canonical YCSB mixes plus a
// scan-bearing one (SCAN is the one cursor-paged multi-key operation the
// service exposes).
var KVMixes = []KVMix{
	{Name: "update-heavy", Read: 50, Update: 50},
	{Name: "read-heavy", Read: 95, Update: 5},
	{Name: "scan-mix", Read: 85, Update: 10, Scan: 5},
}

// KVConfig parameterises one KVBench run.
type KVConfig struct {
	Addr      string        // external server address; empty = start in-process
	Engine    string        // in-process engine name (default OF-LF-PTM)
	Keys      int           // key-space size (default 1<<20)
	ValueLen  int           // value payload bytes (default 16)
	Conns     int           // concurrent client connections (default 4)
	Pipeline  int           // commands in flight per connection (default 16)
	ScanCount int           // COUNT argument of SCAN ops (default 50)
	Duration  time.Duration // measurement time (default 2s)
	ZipfS     float64       // zipf exponent s>1 for key skew; 0 = uniform
	Seed      int64         // base RNG seed (default 1)
}

// KVOpStats is the per-operation-type outcome: completed operations,
// their rate, and submit→reply percentiles in microseconds.
type KVOpStats struct {
	Ops       uint64
	OpsPerSec float64
	P50       float64
	P99       float64
	P999      float64
}

// KVResult is one mix's measurement.
type KVResult struct {
	Mix        string
	Throughput float64 // all operations per second
	PerOp      map[string]KVOpStats
}

// kvOpNames indexes the latency buckets (opGet..opScan below).
var kvOpNames = []string{"get", "set", "scan"}

const (
	opGet = iota
	opSet
	opScan
)

func (c *KVConfig) defaults() {
	if c.Engine == "" {
		c.Engine = "OF-LF-PTM"
	}
	if c.Keys == 0 {
		c.Keys = 1 << 20
	}
	if c.ValueLen == 0 {
		c.ValueLen = 16
	}
	if c.Conns == 0 {
		c.Conns = 4
	}
	if c.Pipeline == 0 {
		c.Pipeline = 16
	}
	if c.ScanCount == 0 {
		c.ScanCount = 50
	}
	if c.Duration == 0 {
		c.Duration = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// kvServerFor starts the in-process server when cfg.Addr is empty and
// returns the dial address plus a shutdown func (nil shutdown for an
// external server).
func kvServerFor(cfg *KVConfig) (addr string, stop func() error, err error) {
	if cfg.Addr != "" {
		return cfg.Addr, nil, nil
	}
	buckets := kvBuckets(cfg.Keys)
	opts := []tm.Option{
		tm.WithHeapWords(kvHeapWords(cfg.Keys)),
		tm.WithMaxThreads(64),
		tm.WithMaxStores(1 << 15),
	}
	e, _, err := NewPersistent(cfg.Engine, pmem.RelaxedMode, cfg.Seed, opts...)
	if err != nil {
		return "", nil, err
	}
	srv := kvserver.NewServer(kvserver.EngineBackend{E: e}, kvserver.NewIndex(buckets), nil)
	if err := srv.Init(); err != nil {
		e.Close()
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.Close()
		return "", nil, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		<-done
		return e.Close()
	}
	return ln.Addr().String(), stop, nil
}

// kvBuckets is the hash-index size for keys entries: the next power of two.
func kvBuckets(keys int) int {
	buckets := 1
	for buckets < keys {
		buckets <<= 1
	}
	return buckets
}

// kvHeapWords is the transactional heap, in words, that holds keys entries
// of the harness's keys and values: the in-process server's size, and the
// -heap an external onefile-kv needs for the preload. An entry block is ~3
// header words plus the packed key+value bytes, allocator headers on top;
// 24 words/key is ample for short keys and small values, with the bucket
// array and slack.
func kvHeapWords(keys int) int {
	heap := 1
	for heap < keys*24+kvBuckets(keys)+1<<18 {
		heap <<= 1
	}
	return heap
}

// kvKeys precomputes the key strings ("k" + 7 digits: short, fixed-width,
// distinct) so the hot loop never formats.
func kvKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%07d", i)
	}
	return keys
}

// kvLoad fills the key space through cfg.Conns pipelined connections.
func kvLoad(addr string, keys []string, val string, cfg *KVConfig) error {
	type chunk struct{ lo, hi int }
	chunks := make(chan chunk, cfg.Conns)
	per := (len(keys) + cfg.Conns - 1) / cfg.Conns
	for lo := 0; lo < len(keys); lo += per {
		chunks <- chunk{lo, min(lo+per, len(keys))}
	}
	close(chunks)
	errs := make(chan error, cfg.Conns)
	for i := 0; i < cfg.Conns; i++ {
		go func() {
			c, err := kvserver.Dial(addr, 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for ch := range chunks {
				for lo := ch.lo; lo < ch.hi; lo += 256 {
					hi := min(lo+256, ch.hi)
					for k := lo; k < hi; k++ {
						c.SendStr("SET", keys[k], val)
					}
					if err := c.Flush(); err != nil {
						errs <- err
						return
					}
					for k := lo; k < hi; k++ {
						v, err := c.Recv()
						if err != nil {
							errs <- err
							return
						}
						if err := v.Err(); err != nil {
							if cfg.Addr != "" && strings.Contains(err.Error(), "heap exhausted") {
								err = fmt.Errorf("%w: the server at %s cannot hold %d keys; start onefile-kv with -heap %d or pass fewer -keys",
									err, cfg.Addr, cfg.Keys, kvHeapWords(cfg.Keys))
							}
							errs <- fmt.Errorf("load SET: %w", err)
							return
						}
					}
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < cfg.Conns; i++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	return nil
}

// kvWorker is one measurement connection's closed pipelined loop.
type kvWorker struct {
	ops  [3]uint64
	lats [3][]int64 // submit→reply ns per op type
	err  error
}

func (w *kvWorker) run(addr string, keys []string, val string, mix KVMix, cfg *KVConfig, seed int64, deadline time.Time) {
	c, err := kvserver.Dial(addr, 5*time.Second)
	if err != nil {
		w.err = err
		return
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(seed))
	var zipf *rand.Zipf
	if cfg.ZipfS > 1 {
		zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(keys)-1))
	}
	pick := func() string {
		if zipf != nil {
			return keys[zipf.Uint64()]
		}
		return keys[rng.Intn(len(keys))]
	}
	scanCount := strconv.Itoa(cfg.ScanCount)
	type pend struct {
		kind int8
		t    time.Time
	}
	window := make([]pend, 0, cfg.Pipeline)
	for time.Now().Before(deadline) {
		window = window[:0]
		for len(window) < cfg.Pipeline {
			p := rng.Intn(100)
			now := time.Now()
			switch {
			case p < mix.Update:
				c.SendStr("SET", pick(), val)
				window = append(window, pend{opSet, now})
			case p < mix.Update+mix.Scan:
				// A random resume point exercises the cursor path; out
				// of range cursors are valid and terminate immediately.
				c.SendStr("SCAN", strconv.FormatUint(rng.Uint64()&0xFFFF, 10), "COUNT", scanCount)
				window = append(window, pend{opScan, now})
			default:
				c.SendStr("GET", pick())
				window = append(window, pend{opGet, now})
			}
		}
		if err := c.Flush(); err != nil {
			w.err = err
			return
		}
		for _, pd := range window {
			v, err := c.Recv()
			if err != nil {
				w.err = err
				return
			}
			if err := v.Err(); err != nil {
				w.err = fmt.Errorf("%s reply: %w", kvOpNames[pd.kind], err)
				return
			}
			w.ops[pd.kind]++
			w.lats[pd.kind] = append(w.lats[pd.kind], time.Since(pd.t).Nanoseconds())
		}
	}
}

// KVBench measures one mix against the service and reports throughput and
// per-op-type latency percentiles.
func KVBench(mix KVMix, cfg KVConfig) (KVResult, error) {
	cfg.defaults()
	addr, stop, err := kvServerFor(&cfg)
	if err != nil {
		return KVResult{}, err
	}
	if stop != nil {
		defer stop()
	}
	keys := kvKeys(cfg.Keys)
	val := strconv.FormatInt(cfg.Seed, 10)
	for len(val) < cfg.ValueLen {
		val += "abcdefghijklmnop"
	}
	val = val[:cfg.ValueLen]
	if err := kvLoad(addr, keys, val, &cfg); err != nil {
		return KVResult{}, fmt.Errorf("load phase: %w", err)
	}

	workers := make([]kvWorker, cfg.Conns)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	done := make(chan int, cfg.Conns)
	for i := range workers {
		go func(i int) {
			workers[i].run(addr, keys, val, mix, &cfg, cfg.Seed+int64(i)*7919, deadline)
			done <- i
		}(i)
	}
	for range workers {
		<-done
	}
	elapsed := time.Since(start).Seconds()
	res := KVResult{Mix: mix.Name, PerOp: make(map[string]KVOpStats)}
	var total uint64
	for kind, name := range kvOpNames {
		var ops uint64
		var lats []int64
		for i := range workers {
			if workers[i].err != nil {
				return KVResult{}, fmt.Errorf("conn %d: %w", i, workers[i].err)
			}
			ops += workers[i].ops[kind]
			lats = append(lats, workers[i].lats[kind]...)
		}
		if ops == 0 {
			continue
		}
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		res.PerOp[name] = KVOpStats{
			Ops:       ops,
			OpsPerSec: float64(ops) / elapsed,
			P50:       kvPctl(lats, 50),
			P99:       kvPctl(lats, 99),
			P999:      kvPctl(lats, 99.9),
		}
		total += ops
	}
	res.Throughput = float64(total) / elapsed
	return res, nil
}

// kvPctl returns the p-th percentile of sorted nanosecond samples, in
// microseconds.
func kvPctl(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p / 100 * float64(len(sorted)-1))
	return float64(sorted[i]) / 1e3
}
