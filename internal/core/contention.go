package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"onefile/internal/obs"
	"onefile/internal/tm"
)

// This file is the engine's contention-management layer. The paper's
// evaluation runs one worker per hardware thread; a Go service runs
// goroutines ≫ cores, where the seed's behaviour collapsed in two ways:
//
//  1. acquire() spun unboundedly (one Gosched per scan) while every slot was
//     busy, timeslicing against the very workers it was waiting on;
//  2. every goroutine that observed a committed-but-unapplied transaction
//     re-executed the whole apply phase — per-word DCAS scan and
//     (persistent) flush traffic — even though §III-E's progress bound only
//     needs *some* thread to finish it.
//
// The fixes: slot admission parks excess goroutines on a FIFO wait list
// (release wakes exactly one), and helpers deduplicate through a CAS-claimed
// per-slot help ticket with a *bounded* backoff that falls back to full
// helping (preserving lock-/wait-freedom; see DESIGN.md). The two budgets
// are sized once, from GOMAXPROCS, when the engine is built: the
// oversubscription sweep (`onefile-bench -fig 13 -procs 1`) cannot tell a
// budget re-tuned from the help/abort rate from one left at its initial
// value (EXPERIMENTS.md, "Contention knobs, pinned").
//
// Nothing here rotates workers at transaction boundaries: with flat TM words
// a worker preempted mid-transaction pins nothing other workers' reads
// depend on (DESIGN.md §9, EXPERIMENTS.md "Oversubscription without the
// boundary yield").

// Bounds of the two budgets contention.init sizes from GOMAXPROCS.
const (
	// acquireSpinMin/Max bound how many full claim-scan passes (one
	// Gosched between passes) an acquiring goroutine makes before parking.
	acquireSpinMin = 1
	acquireSpinMax = 64
	// helpBackoffMin/Max bound the request-recheck rounds a deduplicated
	// helper waits for the claimant before falling back to full helping.
	// The upper bound is what keeps the §III-E progress argument intact:
	// a helper is delayed by at most helpBackoffMax yields, then helps.
	helpBackoffMin = 8
	helpBackoffMax = 512
	// retryPauseMax caps the yields of contendedPause (bounded backoff
	// after a lost commit CAS or failed validation).
	retryPauseMax = 4
)

// contention is the engine's contention-management state: the two budgets,
// fixed once the engine is built, and the parking list of the
// slot-admission path.
type contention struct {
	// spinBudget is how many claim-scan passes acquire makes (with one
	// Gosched between passes) before parking.
	spinBudget int
	// helpBackoff is how many request-recheck rounds a helper that lost
	// the help-ticket race waits before falling back to full helping.
	helpBackoff int
	// waiters counts goroutines registered on (or entering) the parking
	// list; release skips the park mutex entirely while it is zero.
	waiters atomic.Int32

	// parks counts park events (observability; tests assert it moved).
	parks atomic.Uint64

	parkMu sync.Mutex
	parked []chan struct{} // FIFO of parked acquirers
}

// init sizes the budgets for the host. With a single schedulable thread,
// spinning can never observe a release made by a concurrently *running*
// thread, so admission parks almost immediately; with more, a short spin
// frequently catches a release without paying a park/wake round trip.
func (c *contention) init(procs int) {
	c.spinBudget = acquireSpinMin
	if procs > 1 {
		c.spinBudget = min(4*procs, acquireSpinMax)
	}
	c.helpBackoff = min(max(32*procs, helpBackoffMin), helpBackoffMax)
}

// tryClaim makes one scan over the slots from start, claiming the first
// free one.
func (e *Engine) tryClaim(start int) *slot {
	n := len(e.slots)
	for i := 0; i < n; i++ {
		s := &e.slots[(start+i)%n]
		if s.claimed.Load() == 0 && s.claimed.CompareAndSwap(0, 1) {
			return s
		}
	}
	return nil
}

// park blocks the acquiring goroutine until a slot release wakes it (or the
// engine closes), then re-scans once. A nil return sends the caller back to
// its bounded-spin loop: the wakeup is a hint that one slot was freed, not
// a hand-off, and a concurrently spinning acquirer may have claimed it.
func (e *Engine) park(start int) *slot {
	c := &e.cm
	ch := make(chan struct{})
	c.waiters.Add(1)
	defer c.waiters.Add(-1)
	c.parkMu.Lock()
	c.parked = append(c.parked, ch)
	c.parkMu.Unlock()
	// Re-scan after registering: a release between the caller's last
	// failed scan and the registration found no waiter to wake, and must
	// not strand us.
	if s := e.tryClaim(start); s != nil {
		e.cancelPark(ch)
		return s
	}
	// Same reasoning for Close: its wake-all may have drained the list
	// just before we appended.
	if e.closed.Load() {
		e.cancelPark(ch)
		panic(tm.ErrEngineClosed)
	}
	c.parks.Add(1)
	e.obsEvent(obs.EvPark, -1, uint64(c.waiters.Load()))
	<-ch
	e.obsEvent(obs.EvUnpark, -1, uint64(c.waiters.Load()))
	if e.closed.Load() {
		panic(tm.ErrEngineClosed)
	}
	return e.tryClaim(start)
}

// cancelPark deregisters ch after a late successful claim. If a releaser
// already popped ch, its wake token was consumed here and is passed on so
// that no other sleeper misses the release it announced.
func (e *Engine) cancelPark(ch chan struct{}) {
	c := &e.cm
	c.parkMu.Lock()
	for i := range c.parked {
		if c.parked[i] == ch {
			c.parked = append(c.parked[:i], c.parked[i+1:]...)
			c.parkMu.Unlock()
			return
		}
	}
	c.parkMu.Unlock()
	e.wakeOne()
}

// wakeOne pops and wakes the longest-parked acquirer, if any.
func (e *Engine) wakeOne() {
	c := &e.cm
	if c.waiters.Load() == 0 {
		return
	}
	c.parkMu.Lock()
	if len(c.parked) == 0 {
		c.parkMu.Unlock()
		return
	}
	ch := c.parked[0]
	k := copy(c.parked, c.parked[1:])
	c.parked[k] = nil
	c.parked = c.parked[:k]
	c.parkMu.Unlock()
	close(ch)
}

// wakeAll empties the parking list (Close): every parked acquirer wakes,
// observes closed and fails fast.
func (e *Engine) wakeAll() {
	c := &e.cm
	c.parkMu.Lock()
	list := c.parked
	c.parked = nil
	c.parkMu.Unlock()
	for _, ch := range list {
		close(ch)
	}
}

// claimHelp decides whether the caller should run the full helping path for
// txid, whose owner slot is owner. The ticket holds the highest txid whose
// apply phase some thread has claimed (values only grow: a CAS can only
// install a larger txid, and the owner's commit-time store installs the
// globally newest one). On a lost claim the helper backs off re-checking
// whether the claimant closed the request; the backoff is bounded, and on
// expiry the helper falls back to full helping — a preempted (or dead)
// claimant therefore delays completion by at most helpBackoff yields, which
// preserves the lock-free and §III-E wait-free progress bounds.
// Returns false iff the request closed during the backoff.
func (e *Engine) claimHelp(owner *slot, txid uint64) bool {
	t := owner.helpTicket.Load()
	if t < txid && owner.helpTicket.CompareAndSwap(t, txid) {
		return true // sole claimant: do the work
	}
	for i := 0; i < e.cm.helpBackoff; i++ {
		if owner.request.Load() != txid {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// contendedPause yields briefly after a lost commit CAS or a failed
// validation, letting the winner finish its apply phase instead of
// immediately re-colliding with it. round is the caller's consecutive
// failure count; the pause is bounded (at most retryPauseMax+1 yields), so
// every retry loop keeps its progress property.
func (e *Engine) contendedPause(round int) {
	if round > retryPauseMax {
		round = retryPauseMax
	}
	for i := 0; i <= round; i++ {
		runtime.Gosched()
	}
}
