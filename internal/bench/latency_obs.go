package bench

import (
	"fmt"
	"sync"

	"onefile/internal/core"
	"onefile/internal/obs"
	"onefile/internal/pmem"
	"onefile/internal/tm"
)

// Engine-side latency percentiles, measured by the observability layer
// (internal/obs) rather than by caller-side stopwatches: the engine's own
// begin→commit histograms see every path — direct updates, read-only
// transactions, AsyncUpdate and BatchUpdate — at
// the point where the paper's progress argument applies, and the
// log-bucketed histograms hold the full distribution (no reservoir, no
// sample cap), so the p999 comes from every operation issued.

// ObsLatencyConfig parameterises the mixed workload of ObsLatency.
type ObsLatencyConfig struct {
	Threads   int
	PerThread int // direct Update transactions per thread
	Reads     int // read-only transactions per thread
	Async     int // AsyncUpdate submissions per thread (solo-path feed)
	Windows   int // BatchUpdate windows per thread
	WinSize   int // operations per window
	Stores    int // words written per update transaction
}

// PathLatency is one execution path's measured distribution (nanoseconds).
type PathLatency struct {
	Path  string // "update", "read", "solo", "batch_op"
	Count uint64
	P50   uint64
	P99   uint64
	P999  uint64
}

// NewOneFile builds one of the four OneFile variants as a concrete
// *core.Engine (the type the metrics registry attaches to). Benchmarks
// that only need tm.Engine should use NewVolatile/NewPersistent instead.
func NewOneFile(name string, opts ...tm.Option) (*core.Engine, error) {
	switch name {
	case "OF-LF":
		return core.NewLF(opts...), nil
	case "OF-WF":
		return core.NewWF(opts...), nil
	case "OF-LF-PTM", "OF-WF-PTM":
		dev, err := pmem.New(core.DeviceConfig(pmem.StrictMode, 1, opts...))
		if err != nil {
			return nil, err
		}
		if name == "OF-WF-PTM" {
			return core.NewPersistentWF(dev, false, opts...)
		}
		return core.NewPersistentLF(dev, false, opts...)
	}
	return nil, fmt.Errorf("bench: unknown OneFile variant %q", name)
}

// ObsLatency runs the mixed workload on the named OneFile variant with a
// metrics registry attached and returns each path's percentiles, in a
// fixed order (update, read, solo, batch_op; paths with no samples are
// omitted — e.g. solo on the wait-free variants, which always queue).
func ObsLatency(name string, cfg ObsLatencyConfig) ([]PathLatency, error) {
	if cfg.Threads <= 0 {
		cfg.Threads = 4
	}
	if cfg.Stores <= 0 {
		cfg.Stores = 4
	}
	e, err := NewOneFile(name,
		tm.WithHeapWords(1<<16),
		tm.WithMaxThreads(cfg.Threads+2),
		tm.WithMaxStores(1<<12),
	)
	if err != nil {
		return nil, err
	}
	o := e.RegisterMetrics(obs.NewRegistry(), core.MetricsPrefix(name))
	block := tm.Ptr(e.Update(func(tx tm.Tx) uint64 {
		b := tx.Alloc(1 << 10)
		tx.Store(tm.Root(0), uint64(b))
		return uint64(b)
	}))
	var wg sync.WaitGroup
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			base := tm.Ptr(id * 64)
			body := func(tx tm.Tx) uint64 {
				for i := 0; i < cfg.Stores; i++ {
					p := block + base + tm.Ptr(i)
					tx.Store(p, tx.Load(p)+1)
				}
				return 0
			}
			for i := 0; i < cfg.PerThread; i++ {
				e.Update(body)
			}
			for i := 0; i < cfg.Reads; i++ {
				e.Read(func(tx tm.Tx) uint64 { return tx.Load(block + base) })
			}
			for i := 0; i < cfg.Async; i++ {
				if _, err := e.AsyncUpdate(body).Wait(); err != nil {
					panic(err)
				}
			}
			if cfg.Windows > 0 && cfg.WinSize > 0 {
				fns := make([]func(tm.Tx) uint64, cfg.WinSize)
				for i := range fns {
					fns[i] = body
				}
				for b := 0; b < cfg.Windows; b++ {
					for _, r := range e.BatchUpdate(fns) {
						if r.Err != nil {
							panic(r.Err)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var out []PathLatency
	for _, h := range []struct {
		path string
		hist *obs.Histogram
	}{
		{"update", o.UpdateLat},
		{"read", o.ReadLat},
		{"solo", o.SoloLat},
		{"batch_op", o.BatchLat},
	} {
		s := h.hist.Snapshot()
		if s.Count == 0 {
			continue
		}
		out = append(out, PathLatency{
			Path:  h.path,
			Count: s.Count,
			P50:   s.Percentile(50),
			P99:   s.Percentile(99),
			P999:  s.Percentile(99.9),
		})
	}
	return out, nil
}
