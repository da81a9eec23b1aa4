package core

import (
	"runtime"
	"sync"
	"sync/atomic"
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

	// Under load: a goroutine parked for the only slot must complete its
	// quota while another loops Update on that slot. The looping one would
	// find the slot in its P's cache on its next acquire; release skips the
	// cache while someone is parked, so the parked one is not starved by it.
	const quota = 200
	s = e.acquire(false)
	parksBefore := e.cm.parks.Load()
	var completed atomic.Int32
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for i := 0; i < quota; i++ {
			e.Update(func(tx tm.Tx) uint64 {
				tx.Store(tm.Root(2), tx.Load(tm.Root(2))+1)
				return 0
			})
			completed.Add(1)
		}
	}()
	waitFor(t, "the quota goroutine to park", func() bool {
		return e.cm.parks.Load() > parksBefore
	})
	stop := make(chan struct{})
	hogDone := make(chan struct{})
	go func() {
		defer close(hogDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			e.Update(func(tx tm.Tx) uint64 {
				// Hold the slot long enough for the other goroutine's scan
				// passes to run out, so that it parks again.
				for t0 := time.Now(); time.Since(t0) < 20*time.Microsecond; {
				}
				tx.Store(tm.Root(1), tx.Load(tm.Root(1))+1)
				return 0
			})
		}
	}()
	e.release(s)
	select {
	case <-finished:
	case <-time.After(20 * time.Second):
		t.Fatalf("a parked goroutine sharing the only slot with a looping one finished %d of %d updates in 20 s",
			completed.Load(), quota)
	}
	close(stop)
	<-hogDone
	if got := e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(2)) }); got != quota {
		t.Fatalf("counter = %d, want %d", got, quota)
	}
	t.Logf("%d parks while two goroutines shared one slot", e.cm.parks.Load()-parksBefore)
}

// TestSoloGoroutineKeepsItsSlot: a goroutine alone on an engine runs every
// Read and Update on one slot — the slot its P cached, or the hint's when a
// collection emptied the cache or the goroutine moved to another P.
func TestSoloGoroutineKeepsItsSlot(t *testing.T) {
	for name, mk := range map[string]func() *Engine{
		"lf": func() *Engine { return NewLF(smallOpts()...) },
		"wf": func() *Engine { return NewWF(smallOpts()...) },
	} {
		t.Run(name, func(t *testing.T) {
			e := mk()
			defer e.Close()
			for i := 0; i < 2000; i++ {
				e.Update(func(tx tm.Tx) uint64 {
					tx.Store(tm.Root(0), tx.Load(tm.Root(0))+1)
					return 0
				})
				e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) })
				if i%500 == 0 {
					runtime.GC() // empties the per-P cache
				}
			}
			used := 0
			for i := range e.slots {
				st := &e.slots[i].st
				if st.commits.Load()+st.readCommits.Load() > 0 {
					used++
				}
			}
			if used != 1 {
				t.Fatalf("one goroutine ran its transactions on %d slots, want 1", used)
			}
		})
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
// wins, a loser waits and (a) returns false when the claimant closes the
// request, (b) falls back to full helping when it does not — with the spin
// phase on, as on more than one P, and with it off.
func TestHelpTicket(t *testing.T) {
	for _, spin := range []int{0, waitSpinPolls} {
		e := NewLF(smallOpts()...)
		owner := &e.slots[0]
		e.cm.helpBackoff = helpBackoffMin // keep the fallback loops short
		e.cm.waitSpin = spin

		owner.request.Store(42)
		if !e.claimHelp(owner, 42) {
			t.Fatalf("spin %d: first claim of an open request must win", spin)
		}
		if got := owner.helpTicket.Load(); got != 42 {
			t.Fatalf("spin %d: ticket = %d after claim, want 42", spin, got)
		}
		// Losing claimant, request still open: the bounded wait must expire
		// into the full-help fallback (true), never block progress.
		if !e.claimHelp(owner, 42) {
			t.Fatalf("spin %d: a wait with the request still open must fall back to helping", spin)
		}
		// Losing claimant, request closed meanwhile: helper stands down.
		owner.request.Store(0)
		if e.claimHelp(owner, 42) {
			t.Fatalf("spin %d: claim of a closed request must report done", spin)
		}
		// Tickets only grow: an older transaction can never reclaim.
		if got := owner.helpTicket.Load(); got != 42 {
			t.Fatalf("spin %d: ticket moved backwards: %d", spin, got)
		}
		e.Close()
	}
}

// TestBudgetSizing: the budgets are sized once from GOMAXPROCS and stay
// inside their bounds — helpBackoffMax yields and waitSpinPolls polls are
// the constants in the progress argument — from one schedulable thread to
// more than any host has. On one P nothing spins: the goroutine a wait
// waits for cannot run while the waiter polls.
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
		if procs > 1 && (c.waitSpin < 1 || c.waitSpin > waitSpinPolls) {
			t.Errorf("procs=%d: waitSpin %d outside [1,%d]", procs, c.waitSpin, waitSpinPolls)
		}
	}
	var one contention
	one.init(1)
	if one.spinBudget != acquireSpinMin {
		t.Errorf("one schedulable thread spins %d passes before parking, want %d", one.spinBudget, acquireSpinMin)
	}
	if one.waitSpin != 0 {
		t.Errorf("one schedulable thread polls %d times before yielding, want 0", one.waitSpin)
	}
}
