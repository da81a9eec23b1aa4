package core

import (
	"sync/atomic"
	"testing"

	"onefile/containers"
	"onefile/internal/pmem"
	"onefile/internal/tm"
)

// Hot-path microbenchmarks. Run with -benchmem: the allocation counts here
// are the acceptance numbers for the flat-TM-word and closure-elimination
// work (see EXPERIMENTS.md "Go-specific hot-path costs").

func benchOpts() []tm.Option {
	return []tm.Option{
		tm.WithHeapWords(1 << 16),
		tm.WithMaxThreads(8),
		tm.WithMaxStores(1 << 12),
	}
}

func newBenchPTM(b *testing.B, waitFree bool) *Engine {
	b.Helper()
	dev, err := pmem.New(DeviceConfig(pmem.StrictMode, 1, benchOpts()...))
	if err != nil {
		b.Fatal(err)
	}
	var e *Engine
	if waitFree {
		e, err = NewPersistentWF(dev, false, benchOpts()...)
	} else {
		e, err = NewPersistentLF(dev, false, benchOpts()...)
	}
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// updateTxBody is hoisted so the benchmark measures engine allocations, not
// the cost of materialising a fresh closure per iteration.
func updateTxBody(tx tm.Tx) uint64 {
	tx.Store(tm.Root(0), tx.Load(tm.Root(0))+1)
	return 0
}

func readTxBody(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) }

func emptyTxBody(tx tm.Tx) uint64 { return 0 }

func BenchmarkUpdateTx(b *testing.B) {
	for _, tc := range []struct {
		name string
		mk   func(b *testing.B) tm.Engine
	}{
		{"LF", func(b *testing.B) tm.Engine { return NewLF(benchOpts()...) }},
		{"WF", func(b *testing.B) tm.Engine { return NewWF(benchOpts()...) }},
		{"LF-PTM", func(b *testing.B) tm.Engine { return newBenchPTM(b, false) }},
		{"WF-PTM", func(b *testing.B) tm.Engine { return newBenchPTM(b, true) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			e := tc.mk(b)
			// Warm up lazy initialisation (scratch slices, retire lists).
			for i := 0; i < 1024; i++ {
				e.Update(updateTxBody)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Update(updateTxBody)
			}
		})
	}
}

// BenchmarkUpdateTxWide measures a 16-store transaction over two contiguous
// cache lines — the flush-coalescing showcase on the persistent engines.
func BenchmarkUpdateTxWide(b *testing.B) {
	for _, tc := range []struct {
		name string
		mk   func(b *testing.B) tm.Engine
	}{
		{"LF", func(b *testing.B) tm.Engine { return NewLF(benchOpts()...) }},
		{"LF-PTM", func(b *testing.B) tm.Engine { return newBenchPTM(b, false) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			e := tc.mk(b)
			block := tm.Ptr(e.Update(func(tx tm.Tx) uint64 { return uint64(tx.Alloc(16)) }))
			body := func(tx tm.Tx) uint64 {
				for i := tm.Ptr(0); i < 16; i++ {
					tx.Store(block+i, tx.Load(block+i)+1)
				}
				return 0
			}
			for i := 0; i < 256; i++ {
				e.Update(body)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Update(body)
			}
		})
	}
}

func BenchmarkReadTx(b *testing.B) {
	for _, tc := range []struct {
		name string
		mk   func(b *testing.B) tm.Engine
	}{
		{"LF", func(b *testing.B) tm.Engine { return NewLF(benchOpts()...) }},
		{"WF", func(b *testing.B) tm.Engine { return NewWF(benchOpts()...) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			e := tc.mk(b)
			e.Update(updateTxBody)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Read(readTxBody)
			}
		})
	}
}

// BenchmarkAsyncUpdate is a lone AsyncUpdate: Update's transaction on the
// caller, with the failure returned. Its one allocation is the future (CI
// fails above it).
func BenchmarkAsyncUpdate(b *testing.B) {
	for _, wf := range []bool{false, true} {
		b.Run(map[bool]string{false: "LF-PTM", true: "WF-PTM"}[wf], func(b *testing.B) {
			e := newBenchPTM(b, wf)
			for i := 0; i < 1024; i++ {
				e.AsyncUpdate(updateTxBody)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.AsyncUpdate(updateTxBody)
			}
		})
	}
}

// BenchmarkBatchUpdate is one BatchUpdate of 16 operations, each
// incrementing its own word: one transaction of 16 stores.
func BenchmarkBatchUpdate(b *testing.B) {
	fns := make([]func(tm.Tx) uint64, 16)
	for i := range fns {
		p := tm.Root(i)
		fns[i] = func(tx tm.Tx) uint64 { tx.Store(p, tx.Load(p)+1); return 0 }
	}
	for _, wf := range []bool{false, true} {
		b.Run(map[bool]string{false: "LF-PTM", true: "WF-PTM"}[wf], func(b *testing.B) {
			e := newBenchPTM(b, wf)
			for i := 0; i < 1024; i++ {
				e.BatchUpdate(fns)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.BatchUpdate(fns)
			}
		})
	}
}

func BenchmarkEmptyUpdateTx(b *testing.B) {
	e := NewLF(benchOpts()...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Update(emptyTxBody)
	}
}

func newBenchWS(capacity int) *writeSet {
	num := new(atomic.Uint64)
	ent := make([]atomic.Uint64, 2*capacity)
	ws := newWriteSet(num, ent, capacity)
	return &ws
}

func BenchmarkWriteSetLookupLinear(b *testing.B) {
	ws := newBenchWS(1 << 10)
	ws.reset()
	for i := 0; i < linearMax; i++ {
		ws.addOrReplace(uint64(100+i), uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.lookup(uint64(100 + i%linearMax))
	}
}

// BenchmarkWriteSetLookupMiss probes addresses the write-set does not hold:
// two entries (a wait-free aggregate's result words) and a walk over
// node-sized strides, the load pattern of a tree descent.
func BenchmarkWriteSetLookupMiss(b *testing.B) {
	ws := newBenchWS(1 << 10)
	ws.reset()
	ws.addOrReplace(40, 1)
	ws.addOrReplace(41, 2)
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if _, ok := ws.lookup(uint64(1000 + 6*i)); ok {
			hits++
		}
	}
	if hits != 0 {
		b.Fatalf("%d absent addresses found", hits)
	}
}

func BenchmarkWriteSetLookupHashed(b *testing.B) {
	ws := newBenchWS(1 << 10)
	ws.reset()
	n := linearMax * 4
	for i := 0; i < n; i++ {
		ws.addOrReplace(uint64(100+i), uint64(i))
	}
	if !ws.hashed {
		b.Fatal("write-set not in hashed regime")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.lookup(uint64(100 + i%n))
	}
}

func BenchmarkWriteSetAddOrReplace(b *testing.B) {
	ws := newBenchWS(1 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%16 == 0 {
			ws.reset()
		}
		ws.addOrReplace(uint64(1+i%16), uint64(i))
	}
}

// BenchmarkAttach is recovery's cost alone: Crash and attach of the 2²¹-word
// heap txn-wf runs on, about 45 % of it populated through the containers the
// way that workload preloads them. Run with -cpu 1,2: at one P the walk is
// inline, at two it is split. loaded_frac is the share of heap words the image
// holds non-zero.
func BenchmarkAttach(b *testing.B) {
	const heapWords, keys = 1 << 21, 3 << 15
	opts := []tm.Option{tm.WithHeapWords(heapWords), tm.WithMaxThreads(16), tm.WithMaxStores(1 << 15)}
	dev, err := pmem.New(DeviceConfig(pmem.StrictMode, 1, opts...))
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewPersistentWF(dev, false, opts...)
	if err != nil {
		b.Fatal(err)
	}
	hs, tmp := containers.NewHashSet(e, 0), containers.NewTreeMap(e, 1)
	for lo := uint64(0); lo < keys; lo += 64 {
		e.Update(func(tx tm.Tx) uint64 {
			for k := lo; k < lo+64; k++ {
				hs.AddTx(tx, k)
				tmp.PutTx(tx, k, 2*k+1)
			}
			return 0
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Close()
		dev.Crash()
		if e, err = NewPersistentWF(dev, true, opts...); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	rep := e.LastRecovery()
	b.ReportMetric(float64(rep.WordsLoaded)/heapWords, "loaded_frac")
	if n := containers.NewTreeMap(e, 1).Len(); n != keys {
		b.Fatalf("tree map holds %d keys after %d recoveries, want %d", n, b.N, keys)
	}
}
