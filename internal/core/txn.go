package core

import (
	"fmt"
	"slices"
	"time"

	"onefile/internal/obs"
	"onefile/internal/pmem"
	"onefile/internal/talloc"
	"onefile/internal/tm"
)

// uTx is the transaction handle of the transform phase of an update
// transaction: loads are interposed with the sequence check of Alg. 1 and
// consult the write-set first (read-your-writes); stores go to the redo log
// only.
type uTx struct {
	e        *Engine
	s        *slot
	startSeq uint64
}

var _ tm.Tx = (*uTx)(nil)

// checkPtr panics on a heap pointer outside the engine's heap. The failure
// branch is out of line so the check itself inlines into Load and Store.
func (e *Engine) checkPtr(p tm.Ptr) {
	if p == 0 || int(p) >= e.cfg.HeapWords {
		badPtr(p)
	}
}

func badPtr(p tm.Ptr) { panic(fmt.Errorf("core: heap pointer %d out of range", p)) }

// Load implements tm.Tx. Aborting on a sequence newer than the transaction's
// start guarantees an opaque snapshot and, per §IV-A Proposition 1, makes
// reads of de-allocated memory harmless. The value is read before the
// sequence, as in Alg. 1: a value torn from its sequence by a racing DCAS
// arrives with that DCAS's sequence, which is above startSeq, and aborts.
func (t *uTx) Load(p tm.Ptr) uint64 {
	t.e.checkPtr(p)
	if ws := &t.s.ws; ws.mayHold(uint64(p)) { // most loads skip the call: an empty or unrelated write-set
		if v, ok := ws.lookup(uint64(p)); ok {
			return v
		}
	}
	val, seq := t.e.words[p].Load()
	if seq > t.startSeq {
		panic(abortSignal{})
	}
	return val
}

// Store implements tm.Tx: it records the store in the redo log (Alg. 1
// store interposition); nothing is written in place until the apply phase.
func (t *uTx) Store(p tm.Ptr, v uint64) {
	t.e.checkPtr(p)
	t.s.ws.addOrReplace(uint64(p), v)
}

// Alloc implements tm.Tx.
func (t *uTx) Alloc(n int) tm.Ptr { return talloc.Alloc(t, n) }

// Free implements tm.Tx.
func (t *uTx) Free(p tm.Ptr) { talloc.Free(t, p) }

// rTx is the read-only transaction handle: seq-validated loads straight off
// the heap — no write-set consultation, no mutation. It is the one handle
// with LoadN: an update's loads consult the write-set word by word, and
// doing that behind one call cost txn-wf's preload transactions 22 %
// (EXPERIMENTS.md, "A read-only transaction reads a tree node in one
// call", which also measures why view is not embedded).
type rTx struct {
	e        *Engine
	startSeq uint64
	// view backs LoadN's result: the handle's own, because a caller's
	// buffer would escape through the tm.RangeLoader interface and
	// heap-allocate per call. It is allocated apart, not embedded, so the
	// slot keeps its size and every field its offset: txn-wf's mode mix
	// moves with layouts (ROADMAP item 10).
	view *[tm.MaxLoadN]uint64
}

var (
	_ tm.Tx          = (*rTx)(nil)
	_ tm.RangeLoader = (*rTx)(nil)
)

func (t *rTx) Load(p tm.Ptr) uint64 {
	t.e.checkPtr(p)
	val, seq := t.e.words[p].Load()
	if seq > t.startSeq {
		panic(abortSignal{})
	}
	return val
}

// LoadN implements tm.RangeLoader: Load's sequence check on each of n
// consecutive words, behind one bounds check.
func (t *rTx) LoadN(p tm.Ptr, n int) []uint64 {
	if p == 0 || n < 1 || n > tm.MaxLoadN || uint64(p) > uint64(t.e.cfg.HeapWords-n) {
		badRange(p, n)
	}
	words := t.e.words[p : int(p)+n]
	view := t.view[:len(words)]
	for i := range words {
		val, seq := words[i].Load()
		if seq > t.startSeq {
			panic(abortSignal{})
		}
		view[i] = val
	}
	return view
}

func badRange(p tm.Ptr, n int) {
	panic(fmt.Errorf("core: heap range of %d words at %d out of range", n, p))
}

func (t *rTx) Store(tm.Ptr, uint64) { panic(tm.ErrUpdateInReadTx) }
func (t *rTx) Alloc(int) tm.Ptr     { panic(tm.ErrUpdateInReadTx) }
func (t *rTx) Free(tm.Ptr)          { panic(tm.ErrUpdateInReadTx) }

// runBody executes fn against tx and reports whether it completed (ok),
// aborted on seq validation, or failed: fail is what it panicked with. The
// deferred recover captures nothing but the results, so the whole call is
// allocation-free — unlike wrapping the body in a fresh closure, which costs
// one heap allocation per attempt.
func runBody(fn func(tm.Tx) uint64, tx tm.Tx) (res uint64, fail any, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, isAbort := r.(abortSignal); !isAbort {
				fail = r
			}
		}
	}()
	return fn(tx), nil, true
}

// raise re-raises a failure on the caller: the tm.Tx contract of the entries
// that return a bare value.
func raise(res uint64, fail any) uint64 {
	if fail != nil {
		panic(fail)
	}
	return res
}

// The update pipeline (DESIGN.md §4). Every public update entry — Update,
// UpdateExclusive, UpdatePublished, AsyncUpdate and BatchUpdate — is an
// adapter over run, which walks the stages
//
//	admit → run the body into the slot's write-set → commit → apply →
//	persist → resolve
//
// with one round of §III-B (load curTx, help if pending, transform, commit)
// written once, in round, and looped by update: unbounded on the lock-free
// path, at most fastRounds times unpublished on the wait-free one, and once
// per aggregate by the wait-free publication loop (runPublished). There is
// one commit, the paper's ten steps; the entries differ only in the mode
// they pass. A body's failure comes back through the stages as a value, and
// each entry delivers it as its contract says (raise, or combine.go).
type updateMode uint8

const (
	// modeFull: Update, AsyncUpdate and BatchUpdate. The lock-free loop, or
	// on a wait-free engine its unpublished rounds, then publication.
	modeFull updateMode = iota
	// modeExclusive: UpdateExclusive. Admission bypasses the exclusivity
	// gate and the lock-free loop is used even on the wait-free engines
	// (exclusive.go).
	modeExclusive
	// modePublished: UpdatePublished. Publication at once on a wait-free
	// engine, the lock-free loop on a lock-free one.
	modePublished
)

// fastRounds bounds the unpublished rounds a wait-free update runs before
// it publishes. A round is lost only to another transaction's commit, so an
// update publishes within fastRounds commits of its start and the §III-E
// bound runs from there. A constant, not an option: EXPERIMENTS.md ("Wait-free
// when it has to be") measures 1, 2, 4 and 8.
const fastRounds = 8

// roundStatus is how one round of §III-B ended.
type roundStatus uint8

const (
	roundRetry     roundStatus = iota // helped a pending transaction, aborted on validation, or lost the commit CAS
	roundEmpty                        // the body stored nothing: there is nothing to commit
	roundCommitted                    // committed through the ten steps
	roundFailed                       // the body failed: nothing commits, nothing retries
)

// Update implements tm.Engine: a mutative transaction with lock-free
// (NewLF/NewPersistentLF) or bounded wait-free (NewWF/NewPersistentWF)
// progress.
func (e *Engine) Update(fn func(tx tm.Tx) uint64) uint64 { return raise(e.run(fn, modeFull)) }

// UpdateSmall is Update plus a zero outcome.
//
// Deprecated: the small commit is removed (DESIGN.md §8). The method stays
// only because the frozen benchmark/floors.go:167 and benchmark/trace.go:319
// call it; the benchmark-only PR that drops core.small_update_ns deletes it.
func (e *Engine) UpdateSmall(fn func(tx tm.Tx) uint64) (uint64, tm.SmallOutcome) {
	return e.Update(fn), 0
}

// run is the pipeline's admission and resolution around update: claim a
// slot, drive fn to a commit, release. It is also the one place begin→commit
// timing attaches — UpdateLat and one commit event, unless it failed. fail
// is the body's, wherever it ran, or tm.ErrEngineClosed if nothing ran.
func (e *Engine) run(fn func(tm.Tx) uint64, mode updateMode) (res uint64, fail any) {
	s := e.acquire(mode == modeExclusive)
	if s == nil {
		return 0, tm.ErrEngineClosed
	}
	defer e.release(s)
	o := e.obsv.Load()
	var start time.Time
	if o != nil {
		start = time.Now()
	}
	res, fail = e.update(s, fn, mode)
	if o != nil && fail == nil {
		o.UpdateLat.RecordSince(start)
		o.Rec.Record(obs.EvCommit, s.id, seqOf(e.curTx.Load()))
	}
	return res, fail
}

// UpdatePublished is Update without the unpublished rounds: on a wait-free
// engine it publishes fn at once and runs the paper's §III-E path alone, so
// Table I and the single-engine crash matrix keep measuring that path. A
// lock-free engine publishes nothing; there it is Update.
func (e *Engine) UpdatePublished(fn func(tx tm.Tx) uint64) uint64 {
	return raise(e.run(fn, modePublished))
}

// update drives fn to a commit on the claimed slot s by looping rounds until
// one commits: without bound on a lock-free engine and for UpdateExclusive.
// A wait-free update loops at most fastRounds of them, with no descriptor
// and no result words, and only while no operation is published — the
// counter is read before every round, so once one is, each other slot
// finishes at most the one unpublished commit it had begun. Then it
// publishes (updateWF). modePublished publishes at once.
func (e *Engine) update(s *slot, fn func(tm.Tx) uint64, mode updateMode) (uint64, any) {
	wf := e.waitFree && mode != modeExclusive
	limit := fastRounds
	if mode == modePublished {
		limit = 0
	}
	for attempt := 0; !wf || attempt < limit && e.published.Load() == 0; attempt++ {
		oldTx := e.curTx.Load() // step 1
		res, st, fail := e.round(s, oldTx, fn, attempt)
		switch st {
		case roundRetry:
			continue
		case roundEmpty:
			// A read-only body: the snapshot was consistent at oldTx. It is
			// a read commit, never an update commit.
			s.st.readCommits.Add(1)
		}
		return res, fail
	}
	return e.updateWF(s, fn)
}

// round is one pass over steps 2–10 of §III-B against the curTx value the
// caller loaded: help a pending transaction, or run the body into the
// slot's write-set and commit it. Abort bookkeeping and the bounded pause
// after a lost round happen here, so callers just loop.
func (e *Engine) round(s *slot, oldTx uint64, fn func(tm.Tx) uint64, attempt int) (uint64, roundStatus, any) {
	if e.pending(oldTx) { // step 2: help the ongoing transaction
		e.helpApply(oldTx, s)
		return 0, roundRetry, nil
	}
	// Step 3, transform: run the body, building the write-set (redo log).
	// The slot's embedded handle is reused: a stack-local one would escape
	// through the tm.Tx interface and heap-allocate per attempt.
	s.ws.reset()
	s.utx.startSeq = seqOf(oldTx)
	res, fail, ok := runBody(fn, &s.utx)
	if fail != nil {
		return 0, roundFailed, fail
	}
	if !ok {
		e.aborted(s, oldTx, attempt)
		return 0, roundRetry, nil
	}
	if s.ws.n == 0 { // step 4: no stores
		return res, roundEmpty, nil
	}
	if !e.commit(s, oldTx) {
		e.aborted(s, oldTx, attempt)
		return 0, roundRetry, nil
	}
	return res, roundCommitted, nil
}

// logStamp returns the stamp txid's redo-log entries carry in their address
// words (engine.go): zero on a volatile engine.
func (e *Engine) logStamp(txid uint64) uint64 { return (seqOf(txid) & e.stamps) << addrBits }

// aborted accounts for a round lost to validation or to the commit CAS and
// pauses briefly (bounded, contention.go) before the caller's next one.
func (e *Engine) aborted(s *slot, oldTx uint64, attempt int) {
	s.st.aborts.Add(1)
	e.obsEvent(obs.EvAbort, s.id, seqOf(oldTx))
	e.contendedPause(attempt)
}

// commit performs steps 5–10 of §III-B on the slot's finished write-set:
// open the request, persist the write-set, commit by CASing curTx, apply
// every entry with a DCAS, persist the modified words, close the request.
// It returns false if the commit CAS lost; the request is then left
// stale-open, which is harmless — a stale identifier never matches a future
// curTx.
func (e *Engine) commit(s *slot, oldTx uint64) bool {
	newTx := makeTx(seqOf(oldTx)+1, s.id)
	s.ws.publish(e.logStamp(newTx)) // numStores and the entries become visible to helpers
	s.request.Store(newTx)          // step 5: open the request
	if e.dev != nil {
		// Step 6: one pwb per cache line of the write-set (the request
		// and numStores words share the log's first line).
		e.dev.Flush(s.id, s.logOff, 2+2*s.ws.n)
	}
	s.st.cas.Add(1)
	if !e.curTx.CompareAndSwap(oldTx, newTx) { // step 7: commit
		return false
	}
	s.st.commits.Add(1)
	// Claim the apply phase (helper deduplication, contention.go): the
	// committer is the newest transaction on this slot, so a plain store
	// keeps the ticket monotonic. Helpers that observe the claim back off
	// instead of duplicating the per-word scan and flush traffic.
	s.helpTicket.Store(newTx)
	if e.dev != nil {
		// The successful CAS orders the prior pwbs (x86: a locked RMW
		// acts as a persistence fence) — hence Drain, not Fence.
		e.dev.Drain(s.id)
		e.dev.FlushPair(s.id, e.curTxImg, newTx, newTx)
		// The first DCAS of the apply phase orders curTx's pwb.
		e.dev.Drain(s.id)
	}
	e.applyOwn(s, newTx) // steps 8–9
	e.closeRequest(s, newTx)
	return true
}

// applyOwn applies the slot's own write-set (no snapshot copy needed: the
// owner's log is frozen until its request closes), reading the owner-private
// mirror instead of the shared atomic log. The DCAS loop runs first; on the
// persistent variants the modified words are then flushed with one pwb per
// cache line.
func (e *Engine) applyOwn(s *slot, txid uint64) {
	n := s.ws.n
	seq := seqOf(txid)
	var dcas uint64
	for i, j := 0, applyStart(s.id, n); i < n; i++ {
		dcas += e.applyWord(s.ws.keys[j], s.ws.vals[j], seq)
		if j++; j == n {
			j = 0
		}
	}
	s.st.dcas.Add(dcas)
	if e.dev != nil {
		e.flushWords(s, s.ws.keys[:n], 1, seq)
	}
}

// applyStart is where slot tid's write-set of n entries starts being
// applied: owner and helpers walk the same ring from the same entry (the
// paper staggers by tid*8). At most one division per apply phase.
func applyStart(tid, n int) int {
	s := tid * 8
	if s >= n {
		s %= n
	}
	return s
}

// applyWord performs the seq-guarded DCAS of Alg. 1 on one heap word.
// Persistence of the word is deferred to the caller's coalesced flush pass.
// The loop is the paper's: a DCAS fails only because another one landed on
// the word, and while seq is being applied the only ones that can are seq's
// own — so the second round finds the word at seq or beyond. A torn Load
// needs no care of its own: its sequence is the newer one (done), or the
// DCAS compares against a pair the word does not hold and fails (reload).
// Returns the number of DCAS issued; the caller adds a whole apply phase's
// to its counter at once.
func (e *Engine) applyWord(addr, val, seq uint64) (dcas uint64) {
	if addr == 0 || addr >= uint64(e.cfg.HeapWords) {
		return 0 // an entry helpApply zeroed, or a corrupt recovered log: must not crash apply
	}
	w := &e.words[addr]
	for {
		oldVal, oldSeq := w.Load()
		if oldSeq >= seq {
			return dcas // already applied (possibly by a newer transaction)
		}
		dcas++
		if w.CompareAndSwap(oldVal, oldSeq, val, seq) {
			return dcas
		}
	}
}

// flushWords persists every heap word listed in addrs as transaction seq
// left it (step 9 — every address is flushed even when another helper won
// the DCAS, so the word is durable before the request closes). Addresses are
// read from addrs at the given stride (1 for the write-set key mirror, 2
// for an interleaved addr/value log copy), sorted, and flushed with one pwb
// per pair-region cache line — the §IV pwb accounting.
//
// The snapshots are taken at flush time, after the DCAS loop, so every word
// is at seq or beyond. One that reads beyond seq, or torn (a newer DCAS is
// landing), is skipped: a newer transaction committed, which it could only
// do after some thread closed seq's request — and the first thread to close
// it flushed every word at seq and drained, because before that close no
// newer DCAS existed to make it skip.
func (e *Engine) flushWords(s *slot, addrs []uint64, stride int, seq uint64) {
	buf := s.flushAddrs[:0]
	for i := 0; i < len(addrs); i += stride {
		buf = append(buf, addrs[i])
	}
	sortUint64(buf)
	s.flushAddrs = buf

	l := &s.line
	k := 0
	curLine := -1
	prev := ^uint64(0)
	for _, addr := range buf {
		if addr == 0 || addr >= uint64(e.cfg.HeapWords) || addr == prev {
			continue // as applyWord skips; dedupe repeats
		}
		prev = addr
		val, wseq, ok := e.words[addr].Snapshot()
		if !ok || wseq != seq {
			continue
		}
		line := int(addr) / pmem.PairLineWords
		if k > 0 && line != curLine {
			e.dev.FlushPairLine(s.id, k, &l.idx, &l.vals, &l.seqs)
			k = 0
		}
		curLine = line
		l.idx[k], l.vals[k], l.seqs[k] = int(addr), val, wseq
		k++
	}
	if k > 0 {
		e.dev.FlushPairLine(s.id, k, &l.idx, &l.vals, &l.seqs)
	}
}

// closeRequest closes the slot's request (step 10); committer and helpers
// race benignly on the CAS.
func (e *Engine) closeRequest(s *slot, txid uint64) {
	owner := &e.slots[tidOf(txid)]
	if e.dev != nil {
		e.dev.Drain(s.id) // the close CAS orders the apply-phase pwbs
	}
	s.st.cas.Add(1)
	owner.request.CompareAndSwap(txid, txid+1)
}

// helpApply applies the committed-but-unapplied transaction txid on behalf
// of its owner: copy the owner's write-set, re-validate the request, then
// run the same apply phase the owner would (§III-A).
//
// Helpers first pass the help-ticket gate (claimHelp): when another thread
// — normally the owner, which claims at commit — is already applying txid,
// the redundant copy/apply/flush work is skipped in favour of a
// bounded wait for the request to close. On return the request is closed
// unless a newer transaction superseded txid. stale is the number of log
// entries it skipped as another transaction's (non-zero only on a recovered
// log; attach reports it).
func (e *Engine) helpApply(txid uint64, helper *slot) (stale int) {
	owner := &e.slots[tidOf(txid)]
	if owner.request.Load() != txid {
		return 0
	}
	if !e.claimHelp(owner, txid) {
		return 0 // the claimant closed the request while we backed off
	}
	n := owner.logNum.Load()
	if n == 0 || n > uint64(e.cfg.MaxStores) {
		return 0
	}
	if uint64(cap(helper.helpBuf)) < 2*n {
		helper.helpBuf = make([]uint64, 2*n)
	}
	buf := helper.helpBuf[:2*n]
	for i := range buf {
		buf[i] = owner.logEnt[i].Load()
	}
	if owner.request.Load() != txid {
		return 0 // the write-set was re-used; the transaction is done
	}
	helper.st.helps.Add(1)
	e.obsEvent(obs.EvHelp, helper.id, seqOf(txid))
	if e.dev != nil {
		// A helper persists curTx before applying, so a word flushed at
		// sequence s is never durable before curTx reaches s (§III-D).
		e.dev.FlushPair(helper.id, e.curTxImg, txid, txid)
		e.dev.Drain(helper.id)
	}
	// Entries beyond the first log line that are stamped for another
	// transaction (a later attempt's, in a log recovered half-overwritten:
	// engine.go, headEntries) are zeroed, which both apply and flush skip.
	stamp := e.logStamp(txid)
	for i := uint64(headEntries); i < n; i++ {
		if buf[2*i]&^addrMask != stamp {
			buf[2*i] = 0
			stale++
		}
		buf[2*i] &= addrMask
	}
	seq := seqOf(txid)
	var dcas uint64
	for i, j := 0, applyStart(tidOf(txid), int(n)); i < int(n); i++ {
		dcas += e.applyWord(buf[2*j], buf[2*j+1], seq)
		if j++; j == int(n) {
			j = 0
		}
	}
	helper.st.dcas.Add(dcas)
	if e.dev != nil {
		e.flushWords(helper, buf, 2, seq)
	}
	e.closeRequest(helper, txid)
	return stale
}

// Read implements tm.Engine: a read-only transaction. It runs the body with
// seq-validated loads at a snapshot that needs no helping — the one before
// curTx if curTx is still being applied — and helps apply a pending
// transaction only when that attempt aborts, retrying on validation failure.
// On the wait-free variants a body that fails ReadTries helped attempts is
// published as an operation, bounding the retries (§III-E).
//
// The fast path snapshots curTx exactly once, reuses the slot's embedded
// read handle and runs the body with no closure — a conflict-free read-only
// transaction performs one atomic load beyond the body's own.
func (e *Engine) Read(fn func(tx tm.Tx) uint64) uint64 {
	s := e.acquire(false)
	if s == nil {
		panic(tm.ErrEngineClosed)
	}
	defer e.release(s)
	if o := e.obsv.Load(); o != nil {
		start := time.Now()
		res := e.readLoop(s, fn)
		o.ReadLat.RecordSince(start)
		return res
	}
	return e.readLoop(s, fn)
}

// readLoop is the retry loop shared by the observed and unobserved Read
// entry points.
//
// Its first attempt helps nobody. If curTx is pending — committed, its
// request still open — the attempt reads at the sequence before it: the
// snapshot a reader that loaded curTx just before the commit CAS would have
// used. That transaction's own predecessor closed before the CAS, so every
// word is at its value of that snapshot until the pending apply phase
// overwrites it, and every overwrite carries a newer sequence, which aborts
// the load as Alg. 1 always did. The read then linearizes before the pending
// transaction, which has not completed: no operation returns while a
// transaction it observed is open (its committer closes before returning,
// helpers close what they help, runPublished closes what executed its
// operation; DESIGN.md §8). Only when that attempt aborts does the read help
// and retry as before; the extra attempt is not one of the ReadTries.
func (e *Engine) readLoop(s *slot, fn func(tx tm.Tx) uint64) uint64 {
	oldTx := e.curTx.Load()
	if e.pending(oldTx) {
		s.rtx.startSeq = seqOf(oldTx) - 1
		res, fail, ok := runBody(fn, &s.rtx)
		if ok {
			s.st.readCommits.Add(1)
			s.st.readsBeforePending.Add(1)
			return res
		}
		raise(0, fail)
		s.st.readAborts.Add(1)
		e.obsEvent(obs.EvReadAbort, s.id, seqOf(oldTx))
		e.helpApply(oldTx, s)
	}
	for tries := 0; ; tries++ {
		s.rtx.startSeq = seqOf(oldTx)
		res, fail, ok := runBody(fn, &s.rtx)
		if ok {
			s.st.readCommits.Add(1)
			return res
		}
		raise(0, fail)
		s.st.readAborts.Add(1)
		e.obsEvent(obs.EvReadAbort, s.id, seqOf(oldTx))
		if e.waitFree && tries+1 >= e.cfg.ReadTries {
			// Escalate: published like an update operation, some thread
			// executes the body within a bounded number of transactions.
			return raise(e.updateWF(s, fn))
		}
		e.contendedPause(tries)
		if oldTx = e.curTx.Load(); e.pending(oldTx) {
			e.helpApply(oldTx, s)
		}
	}
}

// sortSmall is the length up to which sortUint64 sorts by insertion: below
// it the quadratic loop beats slices.Sort's set-up.
const sortSmall = 24

// sortUint64 sorts the address batch of flushWords without allocating. Most
// batches are a handful of addresses: straight insertion. A pipeline drain's
// is ~150 addresses made of ascending runs, one per record written, where
// slices.Sort (pattern-defeating quicksort) does about half the work of the
// shell sort this replaces, which made log n full passes whatever the input.
func sortUint64(a []uint64) {
	if len(a) > sortSmall {
		slices.Sort(a)
		return
	}
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i
		for ; j > 0 && a[j-1] > v; j-- {
			a[j] = a[j-1]
		}
		a[j] = v
	}
}
