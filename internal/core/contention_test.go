package core

import (
	"sync"
	"testing"
	"time"

	"onefile/internal/tm"
)

// TestClaimHintWrap drives the slot-claim hint across the uint32 wrap: the
// seed computed int(hint)%n in signed space, so a wrapped (or, on 32-bit
// ints, truncated) counter produced a negative slot index and panicked.
func TestClaimHintWrap(t *testing.T) {
	e := NewLF(smallOpts()...)
	defer e.Close()
	e.claimHint.Store(^uint32(0) - 4)
	for i := uint64(1); i <= 16; i++ {
		got := e.Update(func(tx tm.Tx) uint64 {
			v := tx.Load(tm.Root(0)) + 1
			tx.Store(tm.Root(0), v)
			return v
		})
		if got != i {
			t.Fatalf("update %d across the hint wrap returned %d", i, got)
		}
	}
	// Concurrent acquirers around a second wrap.
	e.claimHint.Store(^uint32(0) - 2)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				e.Update(func(tx tm.Tx) uint64 {
					tx.Store(tm.Root(1), tx.Load(tm.Root(1))+1)
					return 0
				})
			}
		}()
	}
	wg.Wait()
	if got := e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(1)) }); got != 8*32 {
		t.Fatalf("lost updates across hint wrap: counter = %d, want %d", got, 8*32)
	}
}

// TestBeginAfterClose verifies that transactions begun after Close fail
// fast with tm.ErrEngineClosed instead of spinning (or parking forever) on
// slots that will never be released.
func TestBeginAfterClose(t *testing.T) {
	for name, mk := range map[string]func() *Engine{
		"lf": func() *Engine { return NewLF(smallOpts()...) },
		"wf": func() *Engine { return NewWF(smallOpts()...) },
	} {
		t.Run(name, func(t *testing.T) {
			e := mk()
			e.Update(func(tx tm.Tx) uint64 { tx.Store(tm.Root(0), 7); return 0 })
			if err := e.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			for op, fn := range map[string]func(){
				"Update": func() { e.Update(func(tx tm.Tx) uint64 { return 0 }) },
				"Read":   func() { e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) }) },
			} {
				got := recoveredPanic(fn)
				if got != tm.ErrEngineClosed {
					t.Errorf("%s after Close panicked with %v, want tm.ErrEngineClosed", op, got)
				}
			}
		})
	}
}

func recoveredPanic(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// TestAcquireParkWake exercises the admission parking path directly: with
// every slot claimed, an acquirer must park (not spin), and a release must
// wake it and let it complete.
func TestAcquireParkWake(t *testing.T) {
	e := NewLF(tm.WithHeapWords(1<<12), tm.WithMaxThreads(1), tm.WithMaxStores(64))
	defer e.Close()
	s := e.acquire() // hold the only slot
	done := make(chan uint64, 1)
	go func() {
		done <- e.Update(func(tx tm.Tx) uint64 {
			tx.Store(tm.Root(0), 42)
			return 42
		})
	}()
	waitFor(t, "acquirer to register as waiter", func() bool {
		return e.cm.waiters.Load() > 0
	})
	waitFor(t, "acquirer to park", func() bool {
		return e.cm.parks.Load() > 0
	})
	e.release(s)
	select {
	case v := <-done:
		if v != 42 {
			t.Fatalf("parked update returned %d, want 42", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked acquirer was never woken by release")
	}
}

// TestAcquireParkClose verifies that Close wakes parked acquirers and they
// fail fast with tm.ErrEngineClosed rather than sleeping forever.
func TestAcquireParkClose(t *testing.T) {
	e := NewLF(tm.WithHeapWords(1<<12), tm.WithMaxThreads(1), tm.WithMaxStores(64))
	e.acquire() // hold the only slot; never released
	got := make(chan any, 1)
	go func() {
		got <- recoveredPanic(func() {
			e.Update(func(tx tm.Tx) uint64 { return 0 })
		})
	}()
	waitFor(t, "acquirer to park", func() bool { return e.cm.parks.Load() > 0 })
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case v := <-got:
		if v != tm.ErrEngineClosed {
			t.Fatalf("parked acquirer saw %v, want tm.ErrEngineClosed", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not wake the parked acquirer")
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestHelpTicket exercises the helper-deduplication ticket: first claimant
// wins, a loser backs off and (a) returns false when the claimant closes
// the request, (b) falls back to full helping when it does not.
func TestHelpTicket(t *testing.T) {
	e := NewLF(smallOpts()...)
	defer e.Close()
	owner := &e.slots[0]
	e.cm.helpBackoff.Store(helpBackoffMin) // keep the fallback loops short

	owner.request.Store(42)
	if !e.claimHelp(owner, 42) {
		t.Fatal("first claim of an open request must win")
	}
	if got := owner.helpTicket.Load(); got != 42 {
		t.Fatalf("ticket = %d after claim, want 42", got)
	}
	// Losing claimant, request still open: bounded backoff must expire into
	// the full-help fallback (true), never block progress.
	if !e.claimHelp(owner, 42) {
		t.Fatal("backoff with the request still open must fall back to helping")
	}
	// Losing claimant, request closed meanwhile: helper stands down.
	owner.request.Store(0)
	if e.claimHelp(owner, 42) {
		t.Fatal("claim of a closed request must report done")
	}
	// Tickets only grow: an older transaction can never reclaim.
	if got := owner.helpTicket.Load(); got != 42 {
		t.Fatalf("ticket moved backwards: %d", got)
	}
}

// TestAdaptiveBudgetBounds drives tune() through both contended and quiet
// regimes and asserts every adaptive budget stays inside its bounds.
func TestAdaptiveBudgetBounds(t *testing.T) {
	e := NewLF(smallOpts()...)
	defer e.Close()
	check := func(when string) {
		t.Helper()
		if v := e.cm.spinBudget.Load(); v < acquireSpinMin || v > acquireSpinMax {
			t.Fatalf("%s: spinBudget %d outside [%d,%d]", when, v, acquireSpinMin, acquireSpinMax)
		}
		if v := e.cm.helpBackoff.Load(); v < helpBackoffMin || v > helpBackoffMax {
			t.Fatalf("%s: helpBackoff %d outside [%d,%d]", when, v, helpBackoffMin, helpBackoffMax)
		}
	}
	check("initial")
	for i := 0; i < 40; i++ {
		e.slots[0].st.aborts.Add(1000) // contended regime
		e.tune()
		check("contended")
	}
	for i := 0; i < 40; i++ {
		e.slots[0].st.commits.Add(100000) // quiet regime
		e.tune()
		check("quiet")
	}
}
