package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"onefile/internal/obs"
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
// helping (preserving lock-/wait-freedom; see DESIGN.md).
//
// The two waits for an apply phase — a deduplicated helper waiting for the
// claimant to close the request, a loser of the commit CAS waiting for the
// winner to close — first poll their condition up to waitSpin times (spin),
// and only then fall back to their bounded Gosched loops. What is awaited
// is another P finishing an apply phase of a few hundred nanoseconds; a
// yield there hands the CPU to nobody and costs a trip through the
// scheduler. On one P the awaited goroutine cannot run while we poll, so
// waitSpin is 0 there and every wait is the yield loop alone. Slot
// admission does not poll: an acquirer that found every slot claimed waits
// for goroutines that may need the very P it would keep polling
// (EXPERIMENTS.md, "A loser waits for the winner's close").
//
// A released slot goes to a per-P cache (a sync.Pool, whose items are
// P-local), and acquire tries that slot first: a goroutine keeps reusing its
// P's slot, whose claim word no other P touches in steady state.
//
// The three budgets are sized once, from GOMAXPROCS, when the engine is
// built: the oversubscription sweep (`onefile-bench -fig 13 -procs 1`)
// cannot tell a budget re-tuned from the help/abort rate from one left at
// its initial value (EXPERIMENTS.md, "Contention knobs, pinned").
//
// Nothing here rotates workers at transaction boundaries: with flat TM words
// a worker preempted mid-transaction pins nothing other workers' reads
// depend on (DESIGN.md §9, EXPERIMENTS.md "Oversubscription without the
// boundary yield").

// Bounds of the budgets contention.init sizes from GOMAXPROCS.
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
	// waitSpinPolls is how many times a wait polls its condition before
	// its yield loop when more than one P can run. It adds at most that
	// many loads to the delay constant of the progress argument.
	waitSpinPolls = 4096
)

// contention is the engine's contention-management state: the budgets,
// fixed once the engine is built, the per-P slot cache and the parking list
// of the slot-admission path.
type contention struct {
	// spinBudget is how many claim-scan passes acquire makes (with one
	// Gosched between passes) before parking.
	spinBudget int
	// helpBackoff is how many request-recheck rounds a helper that lost
	// the help-ticket race waits before falling back to full helping.
	helpBackoff int
	// waitSpin is how many polls a wait makes before its first yield:
	// waitSpinPolls with more than one P, 0 with one.
	waitSpin int
	// slotCache holds released slots per P (release, acquire).
	slotCache sync.Pool
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
	if procs > 1 {
		c.waitSpin = waitSpinPolls
	}
}

// spin polls done up to waitSpin times and reports whether it held. It is
// the first phase of claimHelp's and contendedPause's waits; the caller's
// bounded yield loop is the second.
func (c *contention) spin(done func() bool) bool {
	for i := 0; i < c.waitSpin; i++ {
		if done() {
			return true
		}
	}
	return false
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
// its bounded-spin loop — the wakeup is a hint that one slot was freed, not
// a hand-off, and a concurrently spinning acquirer may have claimed it — or,
// on a closed engine, out of acquire.
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
		return nil
	}
	c.parks.Add(1)
	e.obsEvent(obs.EvPark, -1, uint64(c.waiters.Load()))
	<-ch
	e.obsEvent(obs.EvUnpark, -1, uint64(c.waiters.Load()))
	if e.closed.Load() {
		return nil
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
// globally newest one). On a lost claim the helper waits for the claimant
// to close the request: waitSpin polls, then helpBackoff rounds of recheck
// and yield. The wait is bounded, and on expiry the helper falls back to
// full helping — a preempted (or dead) claimant therefore delays completion
// by at most waitSpin polls and helpBackoff yields, which preserves the
// lock-free and §III-E wait-free progress bounds.
// Returns false iff the request closed during the wait.
func (e *Engine) claimHelp(owner *slot, txid uint64) bool {
	t := owner.helpTicket.Load()
	if t < txid && owner.helpTicket.CompareAndSwap(t, txid) {
		return true // sole claimant: do the work
	}
	closed := func() bool { return owner.request.Load() != txid }
	if e.cm.spin(closed) {
		return false
	}
	for i := 0; i < e.cm.helpBackoff; i++ {
		if closed() {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// contendedPause waits after a lost commit CAS or a failed validation,
// letting the winner finish its apply phase instead of immediately
// re-colliding with it: it polls until curTx is no longer pending — the
// winner closed — and then returns at once. When the spin runs out (or on
// one P, where it is 0) it yields round+1 times. round is the caller's
// consecutive failure count; the pause is bounded (waitSpin polls and at
// most retryPauseMax+1 yields), so every retry loop keeps its progress
// property.
func (e *Engine) contendedPause(round int) {
	if e.cm.spin(func() bool { return !e.pending(e.curTx.Load()) }) {
		return
	}
	for i := 0; i <= min(round, retryPauseMax); i++ {
		runtime.Gosched()
	}
}
