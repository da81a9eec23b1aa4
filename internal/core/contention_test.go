package core

import (
	"sync"
	"testing"
	"time"

	"onefile/internal/tm"
)

// TestClaimHintStaysReduced: acquire indexes the slot array with the hint
// unreduced, so every rotation must store it below the slot count — however
// the rotations of concurrent acquirers interleave.
func TestClaimHintStaysReduced(t *testing.T) {
	e := NewLF(smallOpts()...)
	defer e.Close()
	n := uint32(len(e.slots))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 256; i++ {
				e.Update(func(tx tm.Tx) uint64 {
					tx.Store(tm.Root(1), tx.Load(tm.Root(1))+1)
					return 0
				})
				if h := e.claimHint.Load(); h >= n {
					t.Errorf("claim hint %d not below the %d slots", h, n)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(1)) }); got != 8*256 {
		t.Fatalf("lost updates: counter = %d, want %d", got, 8*256)
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
	s := e.acquire(false) // hold the only slot
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
	e.acquire(false) // hold the only slot; never released
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
	e.cm.helpBackoff = helpBackoffMin // keep the fallback loops short

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

// TestBudgetSizing: the two budgets are sized once from GOMAXPROCS and stay
// inside their bounds — helpBackoffMax is the constant in the progress
// argument — from one schedulable thread to more than any host has.
func TestBudgetSizing(t *testing.T) {
	for _, procs := range []int{1, 2, 8, 64, 1024} {
		var c contention
		c.init(procs)
		if c.spinBudget < acquireSpinMin || c.spinBudget > acquireSpinMax {
			t.Errorf("procs=%d: spinBudget %d outside [%d,%d]", procs, c.spinBudget, acquireSpinMin, acquireSpinMax)
		}
		if c.helpBackoff < helpBackoffMin || c.helpBackoff > helpBackoffMax {
			t.Errorf("procs=%d: helpBackoff %d outside [%d,%d]", procs, c.helpBackoff, helpBackoffMin, helpBackoffMax)
		}
	}
	var one contention
	one.init(1)
	if one.spinBudget != acquireSpinMin {
		t.Errorf("one schedulable thread spins %d passes before parking, want %d", one.spinBudget, acquireSpinMin)
	}
}
