package bench

import (
	"context"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"onefile/internal/kvserver"
	"onefile/internal/pmem"
	"onefile/internal/tm"
)

// TestKVPreloadNamesTheHeapItNeeds: a preload that an external server's
// heap cannot hold fails with an error that names the -heap the key count
// needs, and a server started with that heap takes the whole preload.
func TestKVPreloadNamesTheHeapItNeeds(t *testing.T) {
	const keys = 4096
	serve := func(heap int) string {
		e, _, err := NewPersistent("OF-LF-PTM", pmem.StrictMode, 1,
			tm.WithHeapWords(heap), tm.WithMaxThreads(8), tm.WithMaxStores(1<<12))
		if err != nil {
			t.Fatal(err)
		}
		srv := kvserver.NewServer(kvserver.EngineBackend{E: e}, kvserver.NewIndex(kvBuckets(keys)), nil)
		if err := srv.Init(); err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			<-done
			e.Close()
		})
		return ln.Addr().String()
	}
	cfg := KVConfig{Keys: keys, Conns: 2, Duration: 50 * time.Millisecond}
	mix := KVMix{Name: "update-heavy", Read: 50, Update: 50}

	cfg.Addr = serve(1 << 15)
	_, err := KVBench(mix, cfg)
	want := fmt.Sprintf("-heap %d", kvHeapWords(keys))
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("preload of %d keys into a 2^15-word heap: error %v, want one naming %q", keys, err, want)
	}

	cfg.Addr = serve(kvHeapWords(keys))
	if _, err := KVBench(mix, cfg); err != nil {
		t.Fatalf("preload of %d keys into the heap the error names: %v", keys, err)
	}
}

// TestKVAggregatePercentiles: the all-operations percentiles are taken over
// every operation's samples, so the aggregate p50 is a real latency — above
// zero — and lies between the smallest and the largest per-operation p50.
func TestKVAggregatePercentiles(t *testing.T) {
	cfg := KVConfig{Keys: 4096, Conns: 2, Duration: 100 * time.Millisecond}
	res, err := KVBench(KVMix{Name: "scan-mix", Read: 45, Update: 45, Scan: 10}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerOp) != len(kvOpNames) {
		t.Fatalf("measured %d operation kinds, want %d: %+v", len(res.PerOp), len(kvOpNames), res.PerOp)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, st := range res.PerOp {
		lo, hi = math.Min(lo, st.P50), math.Max(hi, st.P50)
	}
	t.Logf("p50 all %.1f µs, per operation %.1f–%.1f µs; p99 %.1f, p999 %.1f", res.P50, lo, hi, res.P99, res.P999)
	if res.P50 <= 0 || res.P50 < lo || res.P50 > hi {
		t.Errorf("aggregate p50 %.1f µs, want above 0 and within the per-operation p50s [%.1f, %.1f]", res.P50, lo, hi)
	}
	if res.P99 < res.P50 || res.P999 < res.P99 {
		t.Errorf("aggregate percentiles out of order: p50 %.1f, p99 %.1f, p999 %.1f", res.P50, res.P99, res.P999)
	}
}
