package tm

// Small-transaction fast path (DESIGN.md §14). Engines that can commit a
// tiny write set (at most two words, no Alloc/Free) without the full
// write-set-publication/apply-loop machinery implement SmallUpdater; the
// OneFile variants commit such transactions with a direct seq-guarded DCAS
// per word and, on the persistent variants, a single pwb + pfence.
//
// UpdateSmall never fails: an engine that cannot take the shortcut (the
// body is too large, allocates, or keeps losing the commit race) runs fn on
// its regular update path and reports how it went through the outcome, so
// callers can stop probing for bodies that keep proving ineligible.

// SmallOutcome reports how a SmallUpdater.UpdateSmall call committed.
type SmallOutcome uint8

const (
	// SmallCommitted: the body committed on the fast path — or stored
	// nothing, which needs no commit at all.
	SmallCommitted SmallOutcome = iota
	// SmallContended: the body is fast-path eligible but the engine fell
	// back to the full update path (commit races, pending transactions).
	// Worth probing again — contention is transient.
	SmallContended
	// SmallIneligible: the body is not a small transaction (more than two
	// distinct stored words, an Alloc/Free, or stores that cannot share a
	// persistence unit); it committed on the full update path. Callers with
	// a stable body should stop probing.
	SmallIneligible
)

// SmallUpdater is implemented by engines with a small-transaction fast
// path. UpdateSmall has Update's semantics (fn may run more than once and
// must be side-effect free except through the Tx) plus the outcome report.
type SmallUpdater interface {
	UpdateSmall(fn func(Tx) uint64) (uint64, SmallOutcome)
}

// UpdateSmall runs fn as an update transaction, riding e's fast path when e
// has one and the body qualifies. It is the drop-in Update replacement for
// call sites whose bodies are usually tiny (counters, pointer swings).
func UpdateSmall(e Engine, fn func(Tx) uint64) uint64 {
	if s, ok := e.(SmallUpdater); ok {
		res, _ := s.UpdateSmall(fn)
		return res
	}
	return e.Update(fn)
}
