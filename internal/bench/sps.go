package bench

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"onefile/internal/tm"
)

// SPSConfig parameterises the swap microbenchmark of Figs. 2, 3 and 8.
type SPSConfig struct {
	Entries    int // array size (10^3 volatile, 10^6 persistent)
	SwapsPerTx int // r: swaps per transaction (the swept parameter)
	Threads    int
	Duration   time.Duration
	Alloc      bool // Fig. 3 variant: entries point at 2-word objects
}

// SPS runs the swap benchmark on e and returns swaps per second. Each
// transaction picks 2·r random indices and swaps r pairs; in the Alloc
// variant a swap replaces each entry's object with a freshly allocated one
// carrying the other's payload, freeing the old objects (§V-A).
func SPS(e tm.Engine, cfg SPSConfig) float64 {
	arr := newBigArray(e, 0, cfg.Entries)
	if cfg.Alloc {
		// Initialise every entry with a pointer to a 2-word object.
		for i := 0; i < cfg.Entries; i += 512 {
			lo, hi := i, min(i+512, cfg.Entries)
			e.Update(func(tx tm.Tx) uint64 {
				for j := lo; j < hi; j++ {
					if arr.get(tx, j) == 0 {
						p := tx.Alloc(2)
						tx.Store(p, uint64(j))
						arr.set(tx, j, uint64(p))
					}
				}
				return 0
			})
		}
	}
	// On a wait-free engine a transaction body may run on helper goroutines,
	// also after Update has returned.
	helped := strings.Contains(e.Name(), "WF")
	var ops atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]int, 2*cfg.SwapsPerTx)
			for {
				select {
				case <-stop:
					return
				default:
				}
				idx := buf // a variable of this iteration: the closure below captures it alone
				if helped {
					// A helper may still be running the previous
					// transaction's closure: it keeps the buffer it captured.
					idx = make([]int, len(buf))
				}
				for k := range idx {
					idx[k] = rng.Intn(cfg.Entries)
				}
				e.Update(func(tx tm.Tx) uint64 {
					for s := 0; s < cfg.SwapsPerTx; s++ {
						i, j := idx[2*s], idx[2*s+1]
						if cfg.Alloc {
							spsAllocSwap(tx, arr, i, j)
						} else {
							a, b := arr.get(tx, i), arr.get(tx, j)
							arr.set(tx, i, b)
							arr.set(tx, j, a)
						}
					}
					return 0
				})
				ops.Add(uint64(cfg.SwapsPerTx))
			}
		}(int64(w + 1))
	}
	time.Sleep(cfg.Duration)
	close(stop)
	wg.Wait()
	return float64(ops.Load()) / cfg.Duration.Seconds()
}

// spsAllocSwap swaps entries i and j by re-allocating their objects: the
// Fig. 3 pattern of allocate + install pointer + de-allocate.
func spsAllocSwap(tx tm.Tx, arr *bigArray, i, j int) {
	pi, pj := tm.Ptr(arr.get(tx, i)), tm.Ptr(arr.get(tx, j))
	if pi == 0 || pj == 0 || pi == pj {
		return
	}
	vi, vj := tx.Load(pi), tx.Load(pj)
	ni := tx.Alloc(2)
	tx.Store(ni, vj)
	nj := tx.Alloc(2)
	tx.Store(nj, vi)
	arr.set(tx, i, uint64(ni))
	arr.set(tx, j, uint64(nj))
	tx.Free(pi)
	tx.Free(pj)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
