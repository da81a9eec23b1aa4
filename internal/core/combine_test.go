package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"onefile/internal/pmem"
	"onefile/internal/tm"
)

// combineEngines builds all four OneFile variants for combiner tests.
func combineEngines(t *testing.T) map[string]*Engine {
	t.Helper()
	devLF, err := pmem.New(DeviceConfig(pmem.StrictMode, 1, smallOpts()...))
	if err != nil {
		t.Fatalf("pmem.New: %v", err)
	}
	devWF, err := pmem.New(DeviceConfig(pmem.StrictMode, 2, smallOpts()...))
	if err != nil {
		t.Fatalf("pmem.New: %v", err)
	}
	ptmLF, err := NewPersistentLF(devLF, false, smallOpts()...)
	if err != nil {
		t.Fatalf("NewPersistentLF: %v", err)
	}
	ptmWF, err := NewPersistentWF(devWF, false, smallOpts()...)
	if err != nil {
		t.Fatalf("NewPersistentWF: %v", err)
	}
	return map[string]*Engine{
		"lf":     NewLF(smallOpts()...),
		"wf":     NewWF(smallOpts()...),
		"lf-ptm": ptmLF,
		"wf-ptm": ptmWF,
	}
}

// TestCombineExactlyOnce submits many increments concurrently through
// AsyncUpdate and checks every one executed exactly once: the counter is
// the total, and no future carries an error.
func TestCombineExactlyOnce(t *testing.T) {
	const goroutines, perG = 8, 200
	for name, e := range combineEngines(t) {
		t.Run(name, func(t *testing.T) {
			root := tm.Root(0)
			inc := func(tx tm.Tx) uint64 {
				v := tx.Load(root)
				tx.Store(root, v+1)
				return v
			}
			var wg sync.WaitGroup
			errc := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						if _, err := e.AsyncUpdate(inc).Wait(); err != nil {
							errc <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatalf("AsyncUpdate: %v", err)
			}
			got := e.Read(func(tx tm.Tx) uint64 { return tx.Load(root) })
			if got != goroutines*perG {
				t.Fatalf("counter = %d, want %d (lost or duplicated ops)", got, goroutines*perG)
			}
			if hv := e.HEViolations(); hv != 0 {
				t.Fatalf("%d hazard-era violations", hv)
			}
		})
	}
}

// TestCombineBatchUpdateOrder checks a batch executes in submission order
// with each op reading its predecessors' writes, and that the batch is one
// (or at most a few) engine commits, not one per op.
func TestCombineBatchUpdateOrder(t *testing.T) {
	const n = 64
	for name, e := range combineEngines(t) {
		t.Run(name, func(t *testing.T) {
			root := tm.Root(0)
			before := e.Stats()
			fns := make([]func(tm.Tx) uint64, n)
			for i := range fns {
				fns[i] = func(tx tm.Tx) uint64 {
					v := tx.Load(root)
					tx.Store(root, v+1)
					return v
				}
			}
			res := tm.Batch(e, fns)
			for i, r := range res {
				if r.Err != nil {
					t.Fatalf("op %d: %v", i, r.Err)
				}
				if r.Val != uint64(i) {
					t.Fatalf("op %d saw counter %d: batch not in submission order", i, r.Val)
				}
			}
			d := e.Stats().Sub(before)
			if d.BatchedOps != n {
				t.Fatalf("BatchedOps = %d, want %d", d.BatchedOps, n)
			}
			if d.Batches >= n {
				t.Fatalf("Batches = %d for %d ops: nothing was combined", d.Batches, n)
			}
		})
	}
}

// TestCombineErrorIsolation checks one op's panic resolves only its own
// future and rolls back only its own stores — batchmates commit untouched.
func TestCombineErrorIsolation(t *testing.T) {
	for name, e := range combineEngines(t) {
		t.Run(name, func(t *testing.T) {
			a, b, c := tm.Root(0), tm.Root(1), tm.Root(2)
			boom := errors.New("op failure")
			res := tm.Batch(e, []func(tm.Tx) uint64{
				func(tx tm.Tx) uint64 { tx.Store(a, 11); return 0 },
				func(tx tm.Tx) uint64 {
					tx.Store(b, 99) // must roll back
					tx.Store(a, 99) // replacement of a batchmate's store: must roll back too
					panic(boom)
				},
				func(tx tm.Tx) uint64 { tx.Store(c, 33); return tx.Load(a) },
			})
			if res[0].Err != nil || res[2].Err != nil {
				t.Fatalf("batchmates poisoned: %v / %v", res[0].Err, res[2].Err)
			}
			if !errors.Is(res[1].Err, boom) {
				t.Fatalf("panicking op's error = %v, want %v", res[1].Err, boom)
			}
			if res[2].Val != 11 {
				t.Fatalf("op 3 read a = %d, want 11 (rollback broke read-your-writes)", res[2].Val)
			}
			av := e.Read(func(tx tm.Tx) uint64 { return tx.Load(a) })
			bv := e.Read(func(tx tm.Tx) uint64 { return tx.Load(b) })
			cv := e.Read(func(tx tm.Tx) uint64 { return tx.Load(c) })
			if av != 11 || bv != 0 || cv != 33 {
				t.Fatalf("committed (a,b,c) = (%d,%d,%d), want (11,0,33)", av, bv, cv)
			}
		})
	}
}

// TestCombineOverflowSolo: a batch whose combined write-set overflows must
// fall back to solo commits (every op still succeeds), while a single op
// that alone overflows gets ErrTooManyStores on its future.
func TestCombineOverflowSolo(t *testing.T) {
	opts := []tm.Option{
		tm.WithHeapWords(1 << 14),
		tm.WithMaxThreads(4),
		tm.WithMaxStores(64),
	}
	for _, wf := range []bool{false, true} {
		t.Run(fmt.Sprintf("wf=%v", wf), func(t *testing.T) {
			var e *Engine
			if wf {
				e = NewWF(opts...)
			} else {
				e = NewLF(opts...)
			}
			// 4 ops × 40 distinct words = 160 stores > 64: overflows
			// combined, fits solo.
			fns := make([]func(tm.Tx) uint64, 4)
			for i := range fns {
				base := tm.Ptr(uint64(tm.Root(0)) + uint64(i*40))
				fns[i] = func(tx tm.Tx) uint64 {
					for j := 0; j < 40; j++ {
						tx.Store(base+tm.Ptr(j), 7)
					}
					return 1
				}
			}
			for i, r := range tm.Batch(e, fns) {
				if r.Err != nil {
					t.Fatalf("op %d after solo fallback: %v", i, r.Err)
				}
			}
			// A lone op that overflows by itself must fail for real.
			_, err := e.AsyncUpdate(func(tx tm.Tx) uint64 {
				for j := 0; j < 65; j++ {
					tx.Store(tm.Root(0)+tm.Ptr(j), 1)
				}
				return 0
			}).Wait()
			if !errors.Is(err, tm.ErrTooManyStores) {
				t.Fatalf("solo overflow error = %v, want ErrTooManyStores", err)
			}
		})
	}
}

// TestCombineAfterCloseCarriesErrEngineClosed: AsyncUpdate and
// BatchUpdate on a closed engine run nothing and carry ErrEngineClosed.
func TestCombineAfterCloseCarriesErrEngineClosed(t *testing.T) {
	e := NewLF(smallOpts()...)
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var ran atomic.Bool
	body := func(tx tm.Tx) uint64 { ran.Store(true); return 1 }
	if _, err := e.AsyncUpdate(body).Wait(); !errors.Is(err, tm.ErrEngineClosed) {
		t.Fatalf("submit after Close: err = %v, want ErrEngineClosed", err)
	}
	for _, r := range e.BatchUpdate([]func(tm.Tx) uint64{body, body}) {
		if !errors.Is(r.Err, tm.ErrEngineClosed) {
			t.Fatalf("batch after Close: err = %v, want ErrEngineClosed", r.Err)
		}
	}
	if ran.Load() {
		t.Fatal("a body ran on a closed engine")
	}
}

// TestCombineSoloFastPath: AsyncUpdate runs the op on the caller, and an
// alloc/free op behaves exactly like Update.
func TestCombineSoloFastPath(t *testing.T) {
	for name, e := range combineEngines(t) {
		t.Run(name, func(t *testing.T) {
			fut := e.AsyncUpdate(func(tx tm.Tx) uint64 {
				p := tx.Alloc(4)
				tx.Store(p, 5)
				v := tx.Load(p)
				tx.Free(p)
				return v
			})
			if v, err := fut.Wait(); err != nil || v != 5 {
				t.Fatalf("Wait = (%d, %v), want (5, nil)", v, err)
			}
			if s := e.Stats(); s.Batches != 1 || s.BatchedOps != 1 {
				t.Fatalf("stats = %d batches / %d ops, want 1/1", s.Batches, s.BatchedOps)
			}
		})
	}
}

// TestAsyncUpdateSoloRunsBodyOnce: with nothing to conflict with, a solo
// AsyncUpdate runs its body exactly once on every variant, however many
// words it stores — a body is never executed as a probe and then again as
// the real thing.
func TestAsyncUpdateSoloRunsBodyOnce(t *testing.T) {
	// Root(0) is heap word 1; one pair line further is another persistence unit.
	words := []tm.Ptr{tm.Root(0), tm.Root(0) + pmem.PairLineWords, tm.Root(1)}
	for name, e := range combineEngines(t) {
		for n := 1; n <= len(words); n++ {
			t.Run(fmt.Sprintf("%s/%d-word", name, n), func(t *testing.T) {
				var runs atomic.Int32 // a wait-free body may run on a helper
				_, err := e.AsyncUpdate(func(tx tm.Tx) uint64 {
					runs.Add(1)
					for _, w := range words[:n] {
						tx.Store(w, tx.Load(w)+1)
					}
					return 0
				}).Wait()
				if err != nil {
					t.Fatal(err)
				}
				if got := runs.Load(); got != 1 {
					t.Fatalf("body ran %d times, want 1", got)
				}
			})
		}
	}
}

// TestCombineConcurrentBatches drives BatchUpdate from several goroutines
// at once, mixing batch sizes, and checks global exactly-once execution.
func TestCombineConcurrentBatches(t *testing.T) {
	const goroutines = 6
	sizes := []int{1, 3, 17, 64}
	for name, e := range combineEngines(t) {
		t.Run(name, func(t *testing.T) {
			root := tm.Root(0)
			inc := func(tx tm.Tx) uint64 {
				v := tx.Load(root)
				tx.Store(root, v+1)
				return v
			}
			total := 0
			for _, s := range sizes {
				total += s
			}
			var wg sync.WaitGroup
			errc := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, size := range sizes {
						fns := make([]func(tm.Tx) uint64, size)
						for i := range fns {
							fns[i] = inc
						}
						for _, r := range e.BatchUpdate(fns) {
							if r.Err != nil {
								errc <- r.Err
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatalf("BatchUpdate: %v", err)
			}
			got := e.Read(func(tx tm.Tx) uint64 { return tx.Load(root) })
			if got != uint64(goroutines*total) {
				t.Fatalf("counter = %d, want %d", got, goroutines*total)
			}
		})
	}
}
