package bench

import (
	"onefile/internal/core"
	"onefile/internal/pmem"
	"onefile/internal/tm"
)

// OpCounts is the per-transaction persistence-instruction audit of the
// paper's Table I (end of §V-B): pwb, pfence and CAS/DCAS counts of an
// update transaction as a function of the number of modified words N_w.
type OpCounts struct {
	Engine string
	Nw     int
	Pwb    float64
	Pfence float64
	// Pdrain counts the ordering points taken as atomic RMWs instead of
	// explicit pfences (the paper's "the CAS acts as a fence"). The OneFile
	// PTMs order exclusively this way — their Pfence column is 0 — so
	// dropping Pdrain (as this table did before) hides their entire
	// ordering cost.
	Pdrain float64
	CAS    float64 // single- plus double-word CAS together, as in the table
}

// PaperOpCounts returns the closed-form expectation the paper states for
// an engine, for comparison in EXPERIMENTS.md ("-1" marks quantities the
// paper gives only bounds for).
func PaperOpCounts(engine string, nw int) (pwb, pfence, cas float64) {
	n := float64(nw)
	switch engine {
	case "PMDK":
		return 2.25 * n, 2 + 2*n, 1
	case "RomulusLog", "RomulusLR":
		return 3 + 2*n, 4, 1
	case "OF-LF-PTM":
		return 1 + 1.25*n, 0, 2 + n
	case "OF-WF-PTM":
		return 2 + 1.25*n, 0, 3 + n
	}
	return -1, -1, -1
}

// MeasureOpCounts measures the real per-transaction counts on a fresh
// engine: iters single-threaded transactions each storing nw distinct
// contiguous words. Contiguous write-sets share cache lines, so on the
// OneFile PTMs the flush-coalescing apply phase issues fewer pwbs than the
// paper's per-word 1+1.25·N_w accounting; use MeasureOpCountsStride with a
// stride of at least pmem.PairLineWords to reproduce the paper's
// one-line-per-word regime.
func MeasureOpCounts(engine string, nw, iters int) (OpCounts, error) {
	return MeasureOpCountsStride(engine, nw, iters, 1)
}

// MeasureOpCountsStride is MeasureOpCounts with the written words spaced
// stride heap words apart (stride 1 = contiguous). The OneFile PTMs are
// measured through UpdatePublished, so the OF-WF-PTM row is the paper's
// published path (§III-E) and not the lock-free commit a lone Update takes.
func MeasureOpCountsStride(engine string, nw, iters, stride int) (OpCounts, error) {
	return measureOpCounts(engine, nw, iters, stride, true)
}

// measureOpCounts is MeasureOpCountsStride; published=false measures a
// OneFile PTM through Update instead.
func measureOpCounts(engine string, nw, iters, stride int, published bool) (OpCounts, error) {
	opts := []tm.Option{
		tm.WithHeapWords(1 << 16),
		tm.WithMaxThreads(8),
		tm.WithMaxStores(1 << 12),
	}
	e, _, err := NewPersistent(engine, pmem.StrictMode, 1, opts...)
	if err != nil {
		return OpCounts{}, err
	}
	update := e.Update
	if of, ok := e.(*core.Engine); ok && published {
		update = of.UpdatePublished
	}
	block := tm.Ptr(update(func(tx tm.Tx) uint64 {
		b := tx.Alloc(nw * stride)
		tx.Store(tm.Root(0), uint64(b))
		return uint64(b)
	}))
	// Warm-up (first transactions pay one-off costs).
	update(func(tx tm.Tx) uint64 {
		for i := 0; i < nw; i++ {
			tx.Store(block+tm.Ptr(i*stride), 1)
		}
		return 0
	})
	before := e.Stats()
	for it := 0; it < iters; it++ {
		v := uint64(it + 2)
		update(func(tx tm.Tx) uint64 {
			for i := 0; i < nw; i++ {
				tx.Store(block+tm.Ptr(i*stride), v)
			}
			return 0
		})
	}
	d := e.Stats().Sub(before)
	k := float64(iters)
	return OpCounts{
		Engine: engine,
		Nw:     nw,
		Pwb:    float64(d.Pwb) / k,
		Pfence: float64(d.Pfence) / k,
		Pdrain: float64(d.Pdrain) / k,
		CAS:    float64(d.CAS+d.DCAS) / k,
	}, nil
}
