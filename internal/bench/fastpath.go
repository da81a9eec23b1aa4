package bench

import (
	"fmt"
	"sync"
	"time"

	"onefile/internal/dcas"
	"onefile/internal/pmem"
	"onefile/internal/tm"
)

// This file is the small-transaction fast-path sweep (`onefile-bench -fig
// fastpath`, ISSUE 10): latency of a one/two-word update through four
// commit routes — the raw emulated DCAS (the floor any TM pays per word),
// the small-transaction fast path (tm.UpdateSmall), the full STM commit
// (Update), and a solo AsyncUpdate through the combiner (which probes the
// fast path when its queue is idle) — solo and under contention, plus the
// persistence cost (pwb and pfence per committed op) on the PTM variants.

// FastpathEngines are the engines the sweep runs: the four OneFile
// variants (only they implement the fast path).
var FastpathEngines = []string{"OF-LF", "OF-WF", "OF-LF-PTM", "OF-WF-PTM"}

// FastpathPaths are the measured commit routes, in report order.
var FastpathPaths = []string{"fast", "full", "async"}

// FastConfig parameterises one fast-path measurement.
type FastConfig struct {
	Words   int // stored words per transaction (1 or 2)
	Threads int // concurrent updaters (1 = solo)
	Iters   int // operations per thread per rep
	Reps    int // measurements; the median is reported (0 = 1)
}

// FastPoint is one measurement.
type FastPoint struct {
	NsOp       float64 // wall latency per operation
	PwbPerOp   float64 // persistent write-backs per op (0 when volatile)
	FencePerOp float64 // pfence+pdrain per op (0 when volatile)
}

// RawDCAS measures the baseline: one DCAS (load + double-word CAS) per
// operation on a private TM word, the floor cost any commit route pays per
// written word. Returns ns/op.
func RawDCAS(iters, reps int) float64 {
	if reps <= 0 {
		reps = 1
	}
	w := &dcas.NewSlab(1)[0]
	samples := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			val, seq := w.Load()
			if !w.CompareAndSwap(val, seq, val+1, seq+1) {
				panic("bench: uncontended DCAS failed")
			}
		}
		samples = append(samples, float64(time.Since(start).Nanoseconds())/float64(iters))
	}
	return median(samples)
}

func newFastEngine(name string) (tm.Engine, error) {
	opts := []tm.Option{
		tm.WithHeapWords(1 << 16),
		tm.WithMaxThreads(64),
		tm.WithMaxStores(1 << 12),
	}
	switch name {
	case "OF-LF", "OF-WF":
		return NewVolatile(name, opts...)
	default:
		e, _, err := NewPersistent(name, pmem.StrictMode, 1, opts...)
		return e, err
	}
}

// FastpathRun measures one (engine, path, config) point. The transaction
// body stores cfg.Words adjacent root words (adjacent ⇒ one pair cache
// line ⇒ PTM fast-path eligible). Under contention every thread hits the
// same words, so fast-path attempts race on the commit CAS and exercise
// the bounded-retry fallback.
func FastpathRun(engine, path string, cfg FastConfig) (FastPoint, error) {
	reps := max(cfg.Reps, 1)
	samples := make([]float64, 0, reps)
	var pwb, fence, commits float64
	for r := 0; r < reps; r++ {
		e, err := newFastEngine(engine)
		if err != nil {
			return FastPoint{}, err
		}
		ns, st, err := fastpathRep(e, path, cfg)
		e.Close()
		if err != nil {
			return FastPoint{}, err
		}
		samples = append(samples, ns)
		ops := float64(cfg.Iters * max(cfg.Threads, 1))
		pwb += float64(st.Pwb) / ops
		fence += float64(st.Pfence+st.Pdrain) / ops
		commits++
	}
	return FastPoint{
		NsOp:       median(samples),
		PwbPerOp:   pwb / commits,
		FencePerOp: fence / commits,
	}, nil
}

func fastpathRep(e tm.Engine, path string, cfg FastConfig) (nsOp float64, d tm.Stats, err error) {
	threads := max(cfg.Threads, 1)
	base := tm.Root(0)
	words := cfg.Words
	body := func(tx tm.Tx) uint64 {
		v := tx.Load(base) + 1
		tx.Store(base, v)
		if words == 2 {
			tx.Store(base+1, v*2)
		}
		return v
	}
	op, err := fastpathOp(e, path, body)
	if err != nil {
		return 0, d, err
	}
	// Warm up: slot claims, log regions.
	for i := 0; i < 128; i++ {
		op()
	}
	s0 := e.Stats()
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cfg.Iters; i++ {
				op()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	d = e.Stats().Sub(s0)
	return float64(elapsed.Nanoseconds()) / float64(threads*cfg.Iters), d, nil
}

func fastpathOp(e tm.Engine, path string, body func(tm.Tx) uint64) (func(), error) {
	switch path {
	case "fast":
		su, ok := e.(tm.SmallUpdater)
		if !ok {
			return nil, fmt.Errorf("bench: %s has no small-transaction fast path", e.Name())
		}
		// The assertion is hoisted out of the loop: the figure measures the
		// engine's commit route, not the convenience wrapper's dispatch.
		return func() { su.UpdateSmall(body) }, nil
	case "full":
		return func() { e.Update(body) }, nil
	case "async":
		if _, ok := e.(tm.Combining); !ok {
			return nil, fmt.Errorf("bench: %s has no combiner", e.Name())
		}
		return func() { tm.AsyncUpdate(e, body).Wait() }, nil
	}
	return nil, fmt.Errorf("bench: unknown fast-path route %q", path)
}
