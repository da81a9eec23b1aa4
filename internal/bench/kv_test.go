package bench

import (
	"context"
	"fmt"
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
