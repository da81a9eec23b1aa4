package core

import (
	"errors"
	"fmt"
	"testing"

	"onefile/internal/pmem"
	"onefile/internal/tm"
)

func TestSlotLogStrideAligned(t *testing.T) {
	for _, ms := range []int{1, 3, 100, 1 << 10} {
		s := slotLogStride(ms)
		if s%pmem.LineWords != 0 {
			t.Errorf("stride(%d) = %d not line-aligned", ms, s)
		}
		if s < 2+2*ms {
			t.Errorf("stride(%d) = %d too small", ms, s)
		}
	}
}

func TestDeviceConfigSizes(t *testing.T) {
	cfg := DeviceConfig(pmem.StrictMode, 0, smallOpts()...)
	c := tm.Apply(smallOpts())
	if cfg.PairWords != c.HeapWords+1 {
		t.Errorf("PairWords = %d, want heap+1", cfg.PairWords)
	}
	if cfg.RawWords < c.MaxThreads*(2+2*c.MaxStores) {
		t.Errorf("RawWords = %d too small for %d slots", cfg.RawWords, c.MaxThreads)
	}
	if cfg.MaxSlots != c.MaxThreads {
		t.Errorf("MaxSlots = %d", cfg.MaxSlots)
	}
}

func TestNewPersistentRejectsSmallDevice(t *testing.T) {
	dev, err := pmem.New(pmem.Config{RawWords: 64, PairWords: 64, MaxSlots: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPersistentLF(dev, false, smallOpts()...); !errors.Is(err, ErrBadDevice) {
		t.Fatalf("err = %v, want ErrBadDevice", err)
	}
}

func TestNewEngineRejectsTinyHeapForThreads(t *testing.T) {
	// 256 slots × 2 result words exceed a minimal heap.
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic from tm.Apply or a constructor error")
		}
	}()
	e, err := newEngine(tm.Config{HeapWords: 200, MaxThreads: 256, MaxStores: 8, ReadTries: 1}, false, nil, false)
	if err == nil {
		t.Fatalf("tiny heap accepted: %v", e.dynBase)
	}
	panic("got expected error") // normalise both failure modes
}

func TestOutOfRangePointerPanics(t *testing.T) {
	e := NewLF(smallOpts()...)
	for name, f := range map[string]func(tx tm.Tx){
		"load-nil":    func(tx tm.Tx) { tx.Load(0) },
		"load-beyond": func(tx tm.Tx) { tx.Load(tm.Ptr(e.cfg.HeapWords)) },
		"store-nil":   func(tx tm.Tx) { tx.Store(0, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			e.Update(func(tx tm.Tx) uint64 {
				f(tx)
				return 0
			})
		})
	}
}

func TestTooManyStoresPanics(t *testing.T) {
	e := NewLF(tm.WithHeapWords(1<<14), tm.WithMaxThreads(4), tm.WithMaxStores(16))
	defer func() {
		if r := recover(); r != tm.ErrTooManyStores {
			t.Fatalf("recover() = %v, want ErrTooManyStores", r)
		}
	}()
	e.Update(func(tx tm.Tx) uint64 {
		p := tx.Alloc(8)
		for i := tm.Ptr(0); i < 32; i++ {
			tx.Store(p+i%8, uint64(i))
		}
		// Distinct addresses are what count; alloc more.
		q := tx.Alloc(32)
		for i := tm.Ptr(0); i < 32; i++ {
			tx.Store(q+i, uint64(i))
		}
		return 0
	})
}

// TestWaitFreePanicDelivery pins the wait-free panic contract: a published
// operation whose body panics delivers that panic on the submitter's
// goroutine and on no other — the descriptor is unpublished afterwards, so
// neither the submitter's next transaction nor a concurrent helper
// aggregating the heap ever re-executes the poisoned operation.
func TestWaitFreePanicDelivery(t *testing.T) {
	e := NewWF(tm.WithHeapWords(1<<14), tm.WithMaxThreads(8), tm.WithMaxStores(16))
	defer e.Close()

	boom := errors.New("body boom")
	caught := func() (r any) {
		defer func() { r = recover() }()
		e.UpdatePublished(func(tx tm.Tx) uint64 {
			tx.Store(tm.Root(0), 7)
			panic(boom)
		})
		return nil
	}()
	if caught != boom {
		t.Fatalf("submitter recovered %v, want the body's panic value", caught)
	}
	if n := e.published.Load(); n != 0 {
		t.Fatalf("published counter = %d after the panic, want 0: every later update would skip its unpublished rounds", n)
	}
	if got := e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) }); got != 0 {
		t.Fatalf("failed op leaked a store: root = %d", got)
	}

	// The poisoned descriptor must be gone: concurrent innocent updates
	// (which aggregate every published op) and the submitter's own next
	// update all succeed.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			e.UpdatePublished(func(tx tm.Tx) uint64 {
				tx.Store(tm.Root(1), tx.Load(tm.Root(1))+1)
				return 0
			})
		}
	}()
	for i := 0; i < 100; i++ {
		e.UpdatePublished(func(tx tm.Tx) uint64 {
			tx.Store(tm.Root(2), tx.Load(tm.Root(2))+1)
			return 0
		})
	}
	<-done
	sum := e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(1)) + tx.Load(tm.Root(2)) })
	if sum != 200 {
		t.Fatalf("post-panic updates lost work: %d commits, want 200", sum)
	}
}

// TestWaitFreeOverflowAggregationInnocent: an operation that fits MaxStores
// on its own must never fail with ErrTooManyStores just because it was
// aggregated with other published operations (the aggregate skips and
// retries it instead).
func TestWaitFreeOverflowAggregationInnocent(t *testing.T) {
	e := NewWF(tm.WithHeapWords(1<<14), tm.WithMaxThreads(8), tm.WithMaxStores(16))
	defer e.Close()

	const goroutines, rounds = 6, 50
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		gg := g
		go func() {
			defer func() {
				if r := recover(); r != nil {
					errs <- fmt.Errorf("goroutine %d: %v", gg, r)
					return
				}
				errs <- nil
			}()
			for i := 0; i < rounds; i++ {
				// 6 distinct stores each: any two ops fit MaxStores=16
				// with the result-word reservations, three do not.
				e.UpdatePublished(func(tx tm.Tx) uint64 {
					for w := 0; w < 6; w++ {
						tx.Store(tm.Root(8+gg*6+w), uint64(i+1))
					}
					return 0
				})
			}
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for g := 0; g < goroutines; g++ {
		for w := 0; w < 6; w++ {
			if got := e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(8 + g*6 + w)) }); got != rounds {
				t.Fatalf("slot %d word %d = %d, want %d", g, w, got, rounds)
			}
		}
	}
}

// TestWaitFreeOverflowBatchOfOneInnocent is the same promise for an
// AsyncUpdate, whose body runs inside the aggregate as its operation: when
// it overflows only because another published operation filled the
// write-set, the aggregate drops it for a later, smaller one instead of
// resolving it with ErrTooManyStores; when it overflows alone, that is still
// its error.
func TestWaitFreeOverflowBatchOfOneInnocent(t *testing.T) {
	e := NewWF(tm.WithHeapWords(1<<14), tm.WithMaxThreads(4), tm.WithMaxStores(16))
	defer e.Close()
	stores := func(first, n int, v uint64) func(tm.Tx) uint64 {
		return func(tx tm.Tx) uint64 {
			for i := 0; i < n; i++ {
				tx.Store(tm.Root(first+i), v)
			}
			return uint64(n)
		}
	}
	// Slot 0 holds a published operation of 6 stores, placed by hand; the
	// AsyncUpdate's submitter is admitted on slot 1, so its aggregate
	// executes slot 0's operation first: 2+6 entries, then 2+10 of the
	// AsyncUpdate's, and 20 > 16.
	e.slots[0].claimed.Store(1)
	e.published.Add(1)
	e.slots[0].opSlot.Store(&opDesc{fn: stores(32, 6, 1), tag: 1, birth: seqOf(e.curTx.Load())})
	if v, err := e.AsyncUpdate(stores(8, 10, 2)).Wait(); err != nil || v != 10 {
		t.Fatalf("AsyncUpdate beside another operation: (%d, %v), want (10, nil)", v, err)
	}
	_, tagW := e.resultWord(0)
	got := e.Read(func(tx tm.Tx) uint64 { return tx.Load(tagW)<<32 | tx.Load(tm.Root(37))<<16 | tx.Load(tm.Root(17)) })
	if want := uint64(1<<32 | 1<<16 | 2); got != want {
		t.Fatalf("tag<<32|Root(37)<<16|Root(17) = %#x, want %#x: both operations committed", got, want)
	}
	e.slots[0].opSlot.Store(nil)

	// Still published, so the AsyncUpdate is aggregated, alone: 2+15 entries.
	if _, err := e.AsyncUpdate(stores(8, 15, 3)).Wait(); !errors.Is(err, tm.ErrTooManyStores) {
		t.Fatalf("AsyncUpdate overflowing alone: err %v, want ErrTooManyStores", err)
	}
	e.published.Add(-1)
	if got := e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(8)) }); got != 2 {
		t.Fatalf("Root(8) = %d after the failed AsyncUpdate, want 2", got)
	}
}

// TestWaitFreeStoreLimitIsPathFree: on a wait-free engine whether a body
// fits must not depend on the path it commits on. Published, the aggregate
// reserves two result words beside it, so every update is held to
// MaxStores−2: that many stores commit through Update (unpublished, on an
// idle engine) and through UpdatePublished alike, and MaxStores−1 or
// MaxStores fail with ErrTooManyStores on both.
func TestWaitFreeStoreLimitIsPathFree(t *testing.T) {
	const maxStores = 16
	e := NewWF(tm.WithHeapWords(1<<14), tm.WithMaxThreads(4), tm.WithMaxStores(maxStores))
	defer e.Close()
	if got := e.MaxStores(); got != maxStores-2 {
		t.Errorf("MaxStores() = %d on a wait-free engine, want %d", got, maxStores-2)
	}
	verdict := func(update func(func(tm.Tx) uint64) uint64, n int) (r any) {
		defer func() { r = recover() }()
		update(func(tx tm.Tx) uint64 {
			for i := 0; i < n; i++ {
				tx.Store(tm.Root(i), uint64(n))
			}
			return 0
		})
		return nil
	}
	for _, n := range []int{maxStores - 2, maxStores - 1, maxStores} {
		var want any
		if n > maxStores-2 {
			want = tm.ErrTooManyStores
		}
		if got := verdict(e.Update, n); got != want {
			t.Errorf("Update of %d stores (MaxStores %d): %v, want %v", n, maxStores, got, want)
		}
		if got := verdict(e.UpdatePublished, n); got != want {
			t.Errorf("UpdatePublished of %d stores (MaxStores %d): %v, want %v", n, maxStores, got, want)
		}
	}
}

func TestRecoverOnVolatileEngineErrors(t *testing.T) {
	e := NewLF(smallOpts()...)
	if err := e.Recover(); err == nil {
		t.Fatal("Recover on a volatile engine succeeded")
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	e := NewLF(smallOpts()...)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineNames(t *testing.T) {
	if NewLF(smallOpts()...).Name() != "OF-LF" || NewWF(smallOpts()...).Name() != "OF-WF" {
		t.Fatal("volatile names wrong")
	}
	e, _ := newPTM(t, false, pmem.StrictMode, 0)
	if e.Name() != "OF-LF-PTM" {
		t.Fatalf("PTM name = %s", e.Name())
	}
	w, _ := newPTM(t, true, pmem.StrictMode, 0)
	if w.Name() != "OF-WF-PTM" {
		t.Fatalf("WF PTM name = %s", w.Name())
	}
}

// TestSequentialOpacity: a doomed reader must abort rather than observe a
// mixed snapshot, even mid-body.
func TestSequentialOpacity(t *testing.T) {
	e := NewLF(smallOpts()...)
	x, y := tm.Root(0), tm.Root(1)
	e.Update(func(tx tm.Tx) uint64 {
		tx.Store(x, 1)
		tx.Store(y, 1)
		return 0
	})
	// Interleave manually: a read tx loads x, then an update changes both,
	// then the read tx loads y — it must abort (seq check), not return 1+2.
	started := make(chan struct{})
	proceed := make(chan struct{})
	done := make(chan uint64, 1)
	go func() {
		first := true
		done <- e.Read(func(tx tm.Tx) uint64 {
			a := tx.Load(x)
			if first {
				first = false
				close(started)
				<-proceed
			}
			b := tx.Load(y)
			return a + b
		})
	}()
	<-started
	e.Update(func(tx tm.Tx) uint64 {
		tx.Store(x, 2)
		tx.Store(y, 2)
		return 0
	})
	close(proceed)
	if got := <-done; got != 2 && got != 4 {
		t.Fatalf("observed mixed snapshot: %d", got)
	}
}

func TestHeapPointerErrorMessage(t *testing.T) {
	e := NewLF(smallOpts()...)
	defer func() {
		r := recover()
		err, ok := r.(error)
		if !ok {
			t.Fatalf("recover() = %v, want error", r)
		}
		if want := fmt.Sprintf("heap pointer %d out of range", e.cfg.HeapWords+5); err.Error() == "" || !contains(err.Error(), want) {
			t.Fatalf("err = %q, want mention of %q", err, want)
		}
	}()
	e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Ptr(e.cfg.HeapWords + 5)) })
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}
