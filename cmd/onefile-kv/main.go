// onefile-kv is the network-facing durable KV service: a RESP-protocol
// server (GET/SET/DEL/INCR/MGET/SCAN, pipelining — redis-cli speaks to it)
// whose storage is a OneFile persistent transactional memory. Every write
// command is one transaction, and a pipelined window of them shares one
// (internal/kvserver/drain.go), so a pipelining client shares commit
// pipelines and persistence-fence rounds; a reply is only sent after the
// transaction is durable.
//
//	onefile-kv -addr :6380 -file /var/lib/onefile/kv.img -metrics :8080
//	redis-cli -p 6380 set hello world
//
// With -shards N the keyspace is hash-partitioned over N engines (one
// device file per shard under -file, now a directory); each shard has its
// own commit stream, so disjoint keys commit concurrently.
// Without -file the store runs on the in-process emulated NVM: same
// engine, same transactions, but state dies with the process — useful for
// benchmarking the service layer itself.
//
// Shutdown discipline: SIGINT/SIGTERM stops the accept loop, kicks every
// connection out of its blocking read, waits for all submitted
// transactions to resolve and their replies to flush, closes the engines,
// and only then closes the NVM — so a file-backed store's superblock is
// marked clean and the next start attaches without crash recovery.
// A load harness lives in onefile-bench (-fig kv).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"

	"onefile"
	"onefile/internal/core"
	"onefile/internal/kvserver"
	"onefile/internal/svc"
)

var (
	addr        = flag.String("addr", ":6380", "RESP listen address")
	metricsAddr = flag.String("metrics", "",
		"serve /metrics, /debug/vars and /debug/flightrecorder on this address (empty: disabled)")
	filePath = flag.String("file", "",
		"back the store with an mmap device file at this path (with -shards > 1: a directory of per-shard files); empty runs on emulated in-process NVM")
	numShards = flag.Int("shards", 1, "hash-partition the keyspace over this many engines")
	waitFree  = flag.Bool("waitfree", false, "use the bounded wait-free engine (default lock-free)")
	buckets   = flag.Int("buckets", 1<<20, "hash-index buckets per shard (rounded up to a power of two)")
	heapWords = flag.Int("heap", 1<<22, "transactional heap words per shard engine (onefile-bench -fig kv -kv-addr preloads 2^20 keys by default, which need 1<<25)")
	maxStores = flag.Int("maxstores", 0, "per-transaction write-set capacity (0: engine default)")
	seed      = flag.Int64("seed", 1, "seed for the emulated device's relaxed-ordering adversary")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		log.Fatalf("onefile-kv: %v", err)
	}
}

func run() error {
	ctx, stop := svc.SignalContext()
	defer stop()

	opts := []onefile.Option{onefile.WithHeapWords(*heapWords)}
	if *maxStores > 0 {
		opts = append(opts, onefile.WithMaxStores(*maxStores))
	}

	reg := onefile.NewMetricsRegistry()

	// Bring up the backend. closeStore tears the engines down and then the
	// device(s) — the order that leaves a clean superblock.
	var (
		be         kvserver.Backend
		closeStore func() error
	)
	if *numShards > 1 {
		var (
			st      *onefile.ShardedStore
			existed bool
			err     error
		)
		if *filePath != "" {
			st, existed, err = onefile.OpenShardedTM(*filePath, *numShards, *waitFree, onefile.Strict, *seed, nil, opts...)
		} else {
			st, err = onefile.NewShardedTM(*numShards, *waitFree, nil, opts...)
		}
		if err != nil {
			return err
		}
		if existed {
			log.Printf("recovered sharded store (%d shards) from %s", *numShards, *filePath)
			for i := 0; i < st.Shards(); i++ {
				log.Printf("shard %d recovery: %+v", i, st.Engine(i).LastRecovery())
			}
		}
		onefile.RegisterShardedMetrics(reg, st)
		be = kvserver.ShardedBackend{St: st}
		closeStore = st.Close
	} else {
		var (
			nvm     *onefile.NVM
			existed bool
			err     error
		)
		if *filePath != "" {
			nvm, existed, err = onefile.NewFileNVM(*filePath, onefile.Strict, *seed, opts...)
		} else {
			nvm, err = onefile.NewNVM(onefile.Strict, *seed, opts...)
		}
		if err != nil {
			return err
		}
		open := nvm.OpenLockFree
		if *waitFree {
			open = nvm.OpenWaitFree
		}
		e, err := open(existed)
		if err != nil {
			nvm.Close()
			return err
		}
		if existed {
			log.Printf("recovered store from %s", *filePath)
			if r, ok := e.(interface{ LastRecovery() core.RecoveryReport }); ok {
				log.Printf("recovery: %+v", r.LastRecovery())
			}
		}
		onefile.RegisterMetrics(reg, e)
		be = kvserver.EngineBackend{E: e}
		closeStore = func() error {
			if err := e.Close(); err != nil {
				nvm.Close()
				return err
			}
			return nvm.Close()
		}
	}

	srv := kvserver.NewServer(be, kvserver.NewIndex(*buckets), reg)
	if err := srv.Init(); err != nil {
		closeStore()
		return err
	}

	// Metrics endpoint, if asked for. It drains with the same context;
	// failures there should not take the KV service down.
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		reg.Mount(mux)
		go func() {
			if err := svc.ServeHTTP(ctx, *metricsAddr, mux); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		closeStore()
		return err
	}
	// The ready line goes to stdout so scripts and the kill harness can
	// scrape the bound address (meaningful with -addr :0).
	fmt.Printf("onefile-kv: listening on %s\n", ln.Addr())
	os.Stdout.Sync()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		closeStore()
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard

	log.Printf("draining...")
	sctx, cancel := context.WithTimeout(context.Background(), svc.DefaultDrainTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Printf("shutdown: %v (closing store anyway)", err)
	}
	<-errc // Serve has returned; no new work can reach the engines
	if err := closeStore(); err != nil {
		return fmt.Errorf("close store: %w", err)
	}
	log.Printf("clean shutdown")
	return nil
}
