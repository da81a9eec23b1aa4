package bench

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"onefile/internal/tm"
)

// This file is the group-commit sweep (`onefile-bench -fig batch`): SPS
// throughput and persistence-fence cost of the batch entries
// (internal/core/combine.go) as the batch window grows, against the direct
// per-op commit path as baseline. Two regimes:
//
//   - Contended (Threads > 1): several submitters drive tm.Batch against a
//     small hot working set — the scenario group commit exists for (think
//     database group commit amortising a log fsync across clients). Each
//     batch is one transaction, so the write-set dedupe collapses its
//     repeated hot-word writes and the whole batch pays one commit and one
//     fence round; concurrent batches conflict as concurrent Updates do.
//   - Single submitter (Threads <= 1): each measured batch is exactly one
//     engine transaction, isolating the commit-pipeline amortisation itself
//     (one curTx advance, one apply pass, one fence round per batch) from
//     scheduling and dedupe effects.
//
// The solo-latency pair measures the other side of the bargain: a lone
// AsyncUpdate, which is Update with its failure returned, must stay at
// parity with Update.

// BatchEngines are the engines the sweep runs: the four OneFile variants
// (only they implement tm.Combining).
var BatchEngines = []string{"OF-LF", "OF-WF", "OF-LF-PTM", "OF-WF-PTM"}

// BatchWindows are the swept batch sizes.
var BatchWindows = []int{1, 2, 4, 8, 16, 32, 64}

// BatchConfig parameterises the group-commit sweep.
type BatchConfig struct {
	Entries    int // SPS array size (Increment: number of hot counters)
	SwapsPerOp int // swaps each submitted operation performs
	Threads    int // concurrent submitters (<= 1: single submitter)
	// Increment switches the operation from SwapsPerOp random swaps to one
	// hot-counter increment (load + store of one of Entries words) — the
	// canonical group-commit operation (sequence numbers, log appends),
	// where the commit pipeline dominates the op body.
	Increment bool
	Duration  time.Duration
	Reps      int // measurements per point; the median is reported (0 = 1)
}

// BatchPoint is one measurement of the sweep.
type BatchPoint struct {
	SPS         float64 // swaps per second
	FencesPerOp float64 // ordering fences (pfence + drain) per operation; 0 when volatile
}

// batchRun measures one point on e: window <= 0 is the direct baseline
// (one Update per operation), otherwise each round submits window
// operations through tm.Batch. cfg.Threads submitters run concurrently,
// each batch one transaction of its own caller's.
func batchRun(e tm.Engine, cfg BatchConfig, window int) BatchPoint {
	arr := newBigArray(e, 0, cfg.Entries)
	round := window
	if round <= 0 {
		round = 16 // direct baseline: check the clock every 16 ops
	}
	threads := max(cfg.Threads, 1)
	var total atomic.Uint64
	var wg sync.WaitGroup
	s0 := e.Stats()
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(worker + 1)))
			idx := make([][]int, round)
			fns := make([]func(tm.Tx) uint64, round)
			for k := range idx {
				if cfg.Increment {
					c := (worker + k) % cfg.Entries
					fns[k] = func(tx tm.Tx) uint64 {
						v := arr.get(tx, c) + 1
						arr.set(tx, c, v)
						return v
					}
					continue
				}
				kidx := make([]int, 2*cfg.SwapsPerOp)
				idx[k] = kidx
				fns[k] = func(tx tm.Tx) uint64 {
					for s := 0; s < cfg.SwapsPerOp; s++ {
						i, j := kidx[2*s], kidx[2*s+1]
						a, b := arr.get(tx, i), arr.get(tx, j)
						arr.set(tx, i, b)
						arr.set(tx, j, a)
					}
					return 0
				}
			}
			var ops uint64
			for time.Now().Before(deadline) {
				if !cfg.Increment {
					for k := range idx {
						for x := range idx[k] {
							idx[k][x] = rng.Intn(cfg.Entries)
						}
					}
				}
				if window <= 0 {
					for _, fn := range fns {
						e.Update(fn)
					}
				} else {
					tm.Batch(e, fns)
				}
				ops += uint64(round)
			}
			total.Add(ops)
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	d := e.Stats().Sub(s0)
	ops := total.Load()
	perOp := float64(cfg.SwapsPerOp)
	if cfg.Increment || perOp == 0 {
		perOp = 1 // an increment counts as one operation
	}
	p := BatchPoint{SPS: float64(ops) * perOp / elapsed}
	if ops > 0 {
		// OneFile issues no explicit pfence: the commit CAS orders prior
		// pwbs (Table I counts it as the fence), modelled as pmem.Drain.
		// Fence cost per op is therefore pfences plus drains.
		p.FencesPerOp = float64(d.Pfence+d.Pdrain) / float64(ops)
	}
	return p
}

// BatchSweep measures the group-commit sweep for the named engine: the
// returned slice holds the direct baseline at index 0, then one point per
// window. A fresh engine is built per data point; with Reps > 1 the
// repetitions are interleaved across points and each point reports its
// median (the OversubSweep discipline — host-load drift lands on every
// point, not one).
func BatchSweep(name string, windows []int, cfg BatchConfig) ([]BatchPoint, error) {
	reps := cfg.Reps
	if reps < 1 {
		reps = 1
	}
	n := len(windows) + 1
	sps := make([][]float64, n)
	pf := make([][]float64, n)
	for r := 0; r < reps; r++ {
		for i := 0; i < n; i++ {
			e, err := newOversubEngine(name)
			if err != nil {
				return nil, err
			}
			w := 0 // index 0: direct
			if i > 0 {
				w = windows[i-1]
			}
			p := batchRun(e, cfg, w)
			sps[i] = append(sps[i], p.SPS)
			pf[i] = append(pf[i], p.FencesPerOp)
		}
	}
	out := make([]BatchPoint, n)
	for i := range out {
		out[i] = BatchPoint{SPS: median(sps[i]), FencesPerOp: median(pf[i])}
	}
	return out, nil
}

// BatchSoloLatency measures single-submitter latency in ns/op for the named
// engine: direct Update versus a lone AsyncUpdate (Update with its failure
// returned, which must stay at parity). Interleaved
// repetitions, median of each side.
func BatchSoloLatency(name string, cfg BatchConfig, iters, reps int) (direct, combined float64, err error) {
	if reps < 1 {
		reps = 1
	}
	measure := func(e tm.Engine, async bool) float64 {
		arr := newBigArray(e, 0, cfg.Entries)
		rng := rand.New(rand.NewSource(1))
		idx := make([]int, 2*cfg.SwapsPerOp)
		fn := func(tx tm.Tx) uint64 {
			for s := 0; s < cfg.SwapsPerOp; s++ {
				i, j := idx[2*s], idx[2*s+1]
				a, b := arr.get(tx, i), arr.get(tx, j)
				arr.set(tx, i, b)
				arr.set(tx, j, a)
			}
			return 0
		}
		run := func(n int) time.Duration {
			start := time.Now()
			for k := 0; k < n; k++ {
				for x := range idx {
					idx[x] = rng.Intn(cfg.Entries)
				}
				if async {
					tm.AsyncUpdate(e, fn).Wait()
				} else {
					e.Update(fn)
				}
			}
			return time.Since(start)
		}
		run(iters / 10) // warm-up: slot claim, scratch growth
		runtime.GC()    // keep engine-construction garbage out of the window
		return float64(run(iters).Nanoseconds()) / float64(iters)
	}
	var ds, cs []float64
	for r := 0; r < reps; r++ {
		for _, async := range []bool{false, true} {
			e, err := newOversubEngine(name)
			if err != nil {
				return 0, 0, err
			}
			ns := measure(e, async)
			if async {
				cs = append(cs, ns)
			} else {
				ds = append(ds, ns)
			}
		}
	}
	return median(ds), median(cs), nil
}
