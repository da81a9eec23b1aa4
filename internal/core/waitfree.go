package core

import "onefile/internal/tm"

// opFailBit marks a committed result tag as a terminal failure: an
// aggregate executed the operation, its body panicked with a non-retry
// value, and the operation's heap effects were rolled back before the
// commit. Success tags can never collide with it — opTag counters stay far
// below 2^63, and recovery strips the bit before resuming a counter.
const opFailBit uint64 = 1 << 63

// resultWord returns the heap words carrying slot tid's operation result:
// the value word and the tag word. Both are ordinary TM words (the paper's
// results array of TMTypes), so results commit atomically with the
// transaction that produced them and, on the PTMs, are durable.
func (e *Engine) resultWord(tid int) (val, tag tm.Ptr) {
	base := e.resultsBase + tm.Ptr(2*tid)
	return base, base + 1
}

// updateWF is the bounded wait-free update path (§III-E): publish the
// operation, then alternate between helping the pending transaction and
// committing an aggregate transaction that executes every published
// operation — including, necessarily, our own. The published counter is
// raised before the descriptor is stored and lowered after it is cleared, so
// while any descriptor can be seen, no slot starts an unpublished round.
// fail is the operation's failure, wherever it ran.
func (e *Engine) updateWF(s *slot, fn func(tx tm.Tx) uint64) (res uint64, fail any) {
	s.opTag++
	e.published.Add(1)
	d := &opDesc{fn: fn, tag: s.opTag, birth: seqOf(e.curTx.Load())}
	s.opSlot.Store(d)
	// Unpublish on every exit, panics included: a descriptor left behind
	// would be re-executed by every later aggregate — the submitter's own
	// next Update, or any helper's — raising one operation's failure on
	// arbitrary innocent transactions, and would keep every update on this
	// path. A helper may still hold d after this; the garbage collector
	// frees it when none does.
	defer func() {
		s.opSlot.Store(nil)
		e.published.Add(-1)
	}()
	return e.runPublished(s, d)
}

// runPublished drives a published operation to completion.
func (e *Engine) runPublished(s *slot, d *opDesc) (uint64, any) {
	for attempt := 0; ; attempt++ {
		oldTx := e.curTx.Load()
		if res, fail, done := e.opResult(s, d); done {
			return res, fail
		}
		if e.curTx.Load() != oldTx {
			// A commit landed while opResult looked: an aggregate built
			// on oldTx would lose its commit CAS and pay contendedPause.
			continue
		}
		// One round of the shared pipeline with the aggregate as its body.
		// However it ends — helped, aborted (the bounded pause in round
		// lets the commit that beat us, which may be about to execute our
		// operation, finish its apply phase; the §III-E bound is untouched),
		// committed, or empty because every published operation was already
		// tagged done — the next iteration looks for our result. The
		// aggregate itself fails only when no operation fits beside its
		// result words at all (aggregateBody).
		if _, st, fail := e.round(s, oldTx, e.aggregateBody, attempt); st == roundFailed {
			return 0, fail
		}
	}
}

// aggregateBody is the body of the aggregate transaction: it builds one
// write-set executing every published operation that is not yet done,
// storing each result and its tag through ordinary transactional stores —
// so exactly-once execution follows from the single commit CAS (two
// aggregates never both commit for the same sequence, and the loser
// re-reads the tags). It is a method value only on the engine (no per-call
// closure) and pulls the executing slot back out of the transaction handle.
//
// Each operation runs under the per-op containment batch members get
// (contain), the engine's other place that learns of a body's failure
// (runBody is the first): a body panic must not escape on whichever thread
// happens to be aggregating — it is the submitter's outcome, and reaches the
// submitter as a value. Outcomes, per operation:
//   - success: result and tag stored; exactly-once via the commit CAS.
//   - abortSignal: the whole aggregate's concern; propagates.
//   - tm.ErrTooManyStores with other operations' stores already present:
//     the aggregate, not the operation, overflowed. Its stores are dropped
//     and it stays published for a later, smaller aggregate — aggregation
//     never turns a fitting transaction into an overflow.
//   - any other panic (an overflow alone in the write-set included):
//     terminal. The operation's stores are rolled back, the panic value
//     parked in the descriptor, and the tag committed with opFailBit so
//     every racing aggregate agrees the op is done and the submitter
//     receives it exactly once (runPublished).
func (e *Engine) aggregateBody(tx tm.Tx) uint64 {
	u := tx.(*uTx)
	s := u.s
	ws := &s.ws
	ws.beginUndo()           // contain rolls single operations back out of the shared write-set
	ws.cap = e.cfg.MaxStores // the whole log: each body's own limit leaves room for its two result words
	for t := range e.slots {
		d := e.slots[t].opSlot.Load()
		if d == nil {
			continue
		}
		if d.birth > u.startSeq {
			// Published after our snapshot: its caller may have seen
			// newer transactions complete, its own last update among
			// them, so this snapshot predates the operation. This
			// aggregate cannot commit (curTx has moved past
			// startSeq), but a run here is not invisible: a panic on
			// the stale state would park in d.fail, where the
			// submitter may receive it. A newer aggregate runs it.
			continue
		}
		valW, tagW := e.resultWord(t)
		if got := u.Load(tagW); got == d.tag || got == d.tag|opFailBit {
			continue // already executed (or terminally failed) by a committed transaction
		}
		// Reserve the result words before the body runs, so delivering a
		// success or failure verdict afterwards only replaces existing
		// entries and can never itself overflow.
		m := ws.mark()
		if m.n+2 > ws.cap {
			if m.n == 0 {
				// MaxStores < 2: no wait-free operation can ever
				// complete. Nothing to contain.
				panic(tm.ErrTooManyStores)
			}
			continue // no room left in this aggregate; a later one runs it
		}
		u.Store(valW, 0)
		u.Store(tagW, 0)
		res, pv := contain(u, d.fn)
		switch {
		case pv == nil:
			u.Store(valW, res)
			u.Store(tagW, d.tag)
		case isOverflow(pv) && m.n > 0:
			ws.rollbackTo(m) // drop the reservation too
			continue
		default:
			fail := pv // a fresh variable: only this cold branch heap-allocates
			d.fail.Store(&fail)
			u.Store(tagW, d.tag|opFailBit)
		}
		if t != s.id {
			s.st.aggregated.Add(1)
		}
	}
	return 0
}

// opResult reports whether slot s's operation d has been executed by a
// committed transaction and, if so, returns its result once that transaction
// has closed, or its failure: with the terminal-failure verdict (opFailBit)
// the body panicked, its effects were rolled back, and the panic value is
// parked in d — before the commit that tagged it, so it is there to load.
//
// The tag word is applied, so the transaction that executed the operation
// committed at the tag's sequence, but it may still be applying the
// operation's other words. The operation must not complete before they
// are: a Read's first attempt reads before a pending transaction (readLoop),
// so the submitter's next Read would miss them. If that transaction is still
// curTx and open, the submitter helps it closed — one helpApply, which
// returns with the request closed; if curTx has moved on, it closed before.
func (e *Engine) opResult(s *slot, d *opDesc) (res uint64, fail any, done bool) {
	valW, tagW := e.resultWord(s.id)
	tagVal, tagSeq, ok := e.words[tagW].Snapshot()
	if !ok || (tagVal != d.tag && tagVal != d.tag|opFailBit) {
		return 0, nil, false
	}
	if cur := e.curTx.Load(); seqOf(cur) == tagSeq && e.pending(cur) {
		e.helpApply(cur, s)
	}
	if tagVal != d.tag {
		return 0, *d.fail.Load(), true
	}
	// Closed: the value word holds what the tag's transaction stored, and no
	// later transaction writes it before this slot publishes again.
	res, _ = e.words[valW].Load()
	return res, nil, true
}
