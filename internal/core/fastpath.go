package core

import (
	"sync/atomic"

	"onefile/internal/pmem"
	"onefile/internal/tm"
)

// This file is the small commit (DESIGN.md §14): the commit stage's case for
// a write-set of at most two distinct words built without Alloc or Free.
// Such a transaction commits without the full §III-B persistence round: no
// log-line flush, no curTx-image flush, and no drains. What it keeps is
// exactly the part helpers depend on — the published redo log and the open
// request — so the helping protocol's invariant holds unchanged: any thread
// that observes the committed curTx can finish the transaction from the
// shared log, and no reader or aggregate ever sees a torn snapshot.
//
// It is not a route of its own. The body runs on the same handle (uTx) into
// the same write-set as every other update; commit (txn.go) takes this case
// when the caller allows it — UpdateSmall and a solo AsyncUpdate, never
// Update, BatchUpdate, UpdateExclusive or a wait-free aggregate, so Table I
// counts the full protocol — and smallFit accepts the finished write-set.
//
// Protocol (vs the ten steps of §III-B):
//
//  1. load curTx, help any pending transaction;
//  2. run the body into the slot's write-set, as always;
//  3. publish the 1–2 log entries and numStores with plain atomic stores
//     (volatile — never flushed by the owner) and open the request;
//  4. commit by CASing curTx; on loss the request is left stale-open,
//     which is harmless — a stale identifier never matches a future curTx
//     (the same situation a full-path loser leaves behind);
//  5. apply the 1–2 words with the usual seq-guarded DCAS;
//  6. persistent variants only: ONE FlushPairLine covering the written
//     words (eligibility requires them to share a pair-region cache line)
//     + ONE Fence — the minimal 1 pwb + 1 pfence commit;
//  7. close the request with a plain store — no drain: the fence in step 6
//     already made the words durable.
//
// Durability argument (PTM): the small commit never flushes the curTx image,
// so after a crash the durable words may run AHEAD of the durable curTx —
// the inverse of the §III-D invariant. Recovery (engine.go attach) handles
// it by adoption: the maximum durable word sequence S is itself proof that
// every transaction before S completed (committing S required the previous
// request closed, and a fast request closes only after its flush+fence),
// and the words of S are durable all-or-nothing because they share one
// atomic line flush. attach therefore adopts curTx = S when the image lags.
//
// Flush snapshot guard (flushWords): the owner flushes only word snapshots
// still at its own sequence. A snapshot beyond it — or torn, which means a
// newer DCAS is landing on the word right now — means a helper closed our
// request early (helpers flush all our words and drain before closing), so
// our transaction is already durable, and flushing the newer value would
// risk persisting a subset of a LATER small transaction's writes — the one
// torn-state hazard of third-party flushes.
//
// Progress: the probe is fastTries bounded rounds, after which update
// (txn.go) continues on the lock-free loop or publishes the operation, so
// the engine's lock-free/wait-free bounds are preserved.

// fastTries is how many rounds of an UpdateSmall or solo AsyncUpdate may
// take the small commit before the transaction continues on the full path.
const fastTries = 3

// fastStats are one slot's small-commit counters: owner-written (load+store
// via bump, no RMW — the whole point is a cheap commit), summed by
// Engine.Stats. There is no attempts counter: every probe with something to
// commit ends as exactly one commit or one fallback, so Stats derives
// FastAttempts as their sum and the hot path pays one counter update, not
// two.
type fastStats struct {
	commits      atomic.Uint64
	fbConflict   atomic.Uint64
	fbIneligible atomic.Uint64
	fbCrossLine  atomic.Uint64
}

// bump increments an owner-written counter without an RMW: only the slot
// owner writes it, readers (Stats) tolerate the load/store window.
func bump(a *atomic.Uint64) { a.Store(a.Load() + 1) }

// UpdateSmall implements tm.SmallUpdater: run fn as an update transaction,
// committing with the small commit when the body qualifies and the engine is
// quiet, on the regular lock-free/wait-free path otherwise. The returned
// outcome tells steady-state callers whether probing again is worthwhile.
func (e *Engine) UpdateSmall(fn func(tx tm.Tx) uint64) (uint64, tm.SmallOutcome) {
	return e.run(fn, modeSmall)
}

// smallFit reports whether the slot's finished write-set qualifies for the
// small commit: at most two distinct words, no Alloc/Free in the body (the
// allocator's metadata updates are not part of the two-word durability
// argument), and on a PTM both words on one pair cache line — two
// persistence units would break the single-atomic-flush argument above. A
// write-set that does not fit is counted as the probe's fallback, by reason;
// the caller ends the probe, so that happens once per transaction.
func (e *Engine) smallFit(s *slot) bool {
	ws := &s.ws
	if ws.n > 2 || s.utx.allocs {
		bump(&s.fst.fbIneligible)
		return false
	}
	if e.dev != nil && ws.n == 2 && ws.keys[0]/pmem.PairLineWords != ws.keys[1]/pmem.PairLineWords {
		bump(&s.fst.fbCrossLine)
		return false
	}
	return true
}

// fastFallbackCounts sums the per-reason fallback counters across slots
// (obs.go exposes them as individual metrics; the registry has no labels).
func (e *Engine) fastFallbackCounts() (conflict, ineligible, crossLine uint64) {
	for i := range e.slots {
		f := &e.slots[i].fst
		conflict += f.fbConflict.Load()
		ineligible += f.fbIneligible.Load()
		crossLine += f.fbCrossLine.Load()
	}
	return
}
