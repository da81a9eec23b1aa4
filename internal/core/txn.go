package core

import (
	"fmt"
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

func (t *uTx) check(p tm.Ptr) {
	if p == 0 || int(p) >= t.e.cfg.HeapWords {
		panic(fmt.Errorf("core: heap pointer %d out of range", p))
	}
}

// Load implements tm.Tx. Aborting on a sequence newer than the transaction's
// start guarantees an opaque snapshot and, per §IV-A Proposition 1, makes
// reads of de-allocated memory harmless. The value is read before the
// sequence, as in Alg. 1: a value torn from its sequence by a racing DCAS
// arrives with that DCAS's sequence, which is above startSeq, and aborts.
func (t *uTx) Load(p tm.Ptr) uint64 {
	t.check(p)
	if v, ok := t.s.ws.lookup(uint64(p)); ok {
		return v
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
	t.check(p)
	t.s.ws.addOrReplace(uint64(p), v)
}

// Alloc implements tm.Tx.
func (t *uTx) Alloc(n int) tm.Ptr { return talloc.Alloc(t, n) }

// Free implements tm.Tx.
func (t *uTx) Free(p tm.Ptr) { talloc.Free(t, p) }

// rTx is the read-only transaction handle: seq-validated loads straight off
// the heap — no write-set consultation, no mutation.
type rTx struct {
	e        *Engine
	startSeq uint64
}

var _ tm.Tx = (*rTx)(nil)

func (t *rTx) Load(p tm.Ptr) uint64 {
	if p == 0 || int(p) >= t.e.cfg.HeapWords {
		panic(fmt.Errorf("core: heap pointer %d out of range", p))
	}
	val, seq := t.e.words[p].Load()
	if seq > t.startSeq {
		panic(abortSignal{})
	}
	return val
}

func (t *rTx) Store(tm.Ptr, uint64) { panic(tm.ErrUpdateInReadTx) }
func (t *rTx) Alloc(int) tm.Ptr     { panic(tm.ErrUpdateInReadTx) }
func (t *rTx) Free(tm.Ptr)          { panic(tm.ErrUpdateInReadTx) }

// runBody executes fn against tx and reports whether it completed (ok) or
// aborted on seq validation. The deferred recover captures nothing, so the
// whole call is allocation-free — unlike wrapping the body in a fresh
// closure, which costs one heap allocation per attempt.
func runBody(fn func(tm.Tx) uint64, tx tm.Tx) (res uint64, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, isAbort := r.(abortSignal); !isAbort {
				panic(r)
			}
		}
	}()
	return fn(tx), true
}

// Update implements tm.Engine: a mutative transaction with lock-free
// (NewLF/NewPersistentLF) or bounded wait-free (NewWF/NewPersistentWF)
// progress.
func (e *Engine) Update(fn func(tx tm.Tx) uint64) uint64 {
	s := e.acquire()
	defer e.release(s)
	if o := e.obsv.Load(); o != nil {
		return e.updateObserved(o, s, fn)
	}
	if e.waitFree {
		return e.updateWF(s, fn)
	}
	return e.updateLF(s, fn)
}

// updateObserved is the Update body with an observability sink attached:
// it times begin→commit and records a commit event. Kept out of line so
// the unobserved path above stays one load and one branch.
func (e *Engine) updateObserved(o *EngineObs, s *slot, fn func(tx tm.Tx) uint64) uint64 {
	start := time.Now()
	var res uint64
	if e.waitFree {
		res = e.updateWF(s, fn)
	} else {
		res = e.updateLF(s, fn)
	}
	o.UpdateLat.RecordSince(start)
	o.Rec.Record(obs.EvCommit, s.id, seqOf(e.curTx.Load()))
	return res
}

// updateLF is the lock-free update path: the ten steps of §III-B.
func (e *Engine) updateLF(s *slot, fn func(tx tm.Tx) uint64) uint64 {
	for round := 0; ; round++ {
		oldTx := e.curTx.Load() // step 1
		if e.pending(oldTx) {   // step 2: help the ongoing transaction
			e.helpApply(oldTx, s)
			continue
		}
		res, ok := e.transform(s, fn, seqOf(oldTx)) // step 3
		if !ok {
			s.st.aborts.Add(1)
			e.obsEvent(obs.EvAbort, s.id, seqOf(oldTx))
			e.contendedPause(round)
			continue
		}
		if s.ws.n == 0 { // step 4: no stores — a read-only body
			s.st.readCommits.Add(1)
			return res
		}
		newTx := makeTx(seqOf(oldTx)+1, s.id)
		if !e.commitAndApply(s, oldTx, newTx) {
			s.st.aborts.Add(1)
			e.obsEvent(obs.EvAbort, s.id, seqOf(oldTx))
			e.contendedPause(round)
			continue
		}
		return res
	}
}

// transform runs the user body, building the write-set (redo log). It
// reuses the slot's embedded transaction handle: a stack-local one would
// escape through the tm.Tx interface and heap-allocate per attempt.
func (e *Engine) transform(s *slot, fn func(tx tm.Tx) uint64, startSeq uint64) (res uint64, ok bool) {
	s.ws.reset()
	s.utx.startSeq = startSeq
	return runBody(fn, &s.utx)
}

// commitAndApply performs steps 5–10 of §III-B: open the request, persist
// the write-set, commit by CASing curTx, apply every entry with a DCAS,
// persist the modified words, close the request. Returns false if the
// commit CAS lost.
func (e *Engine) commitAndApply(s *slot, oldTx, newTx uint64) bool {
	s.ws.publish()         // numStores becomes visible to helpers
	s.request.Store(newTx) // step 5: open the request
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
	n := uint64(s.ws.n)
	seq := seqOf(txid)
	for i := uint64(0); i < n; i++ {
		j := (uint64(s.id)*8 + i) % n
		e.applyWord(s, s.ws.keys[j], s.ws.vals[j], seq)
	}
	if e.dev != nil {
		e.flushWords(s, s.ws.keys[:n], 1, seq)
	}
}

// applyWord performs the seq-guarded DCAS of Alg. 1 on one heap word.
// Persistence of the word is deferred to the caller's coalesced flush pass.
// The loop is the paper's: a DCAS fails only because another one landed on
// the word, and while seq is being applied the only ones that can are seq's
// own — so the second round finds the word at seq or beyond. A torn Load
// needs no care of its own: its sequence is the newer one (done), or the
// DCAS compares against a pair the word does not hold and fails (reload).
func (e *Engine) applyWord(s *slot, addr, val, seq uint64) {
	if addr == 0 || addr >= uint64(e.cfg.HeapWords) {
		return // defensive: a corrupt recovered log must not crash apply
	}
	w := &e.words[addr]
	for {
		oldVal, oldSeq := w.Load()
		if oldSeq >= seq {
			return // already applied (possibly by a newer transaction)
		}
		s.st.dcas.Add(1)
		if w.CompareAndSwap(oldVal, oldSeq, val, seq) {
			return
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
// newer DCAS existed to make it skip. Skipping also keeps a third party from
// persisting part of a LATER fast-path commit (flushFast's guard).
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
			continue // defensive, mirroring applyWord; dedupe repeats
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
// unless a newer transaction superseded txid.
func (e *Engine) helpApply(txid uint64, helper *slot) {
	owner := &e.slots[tidOf(txid)]
	if owner.request.Load() != txid {
		return
	}
	if !e.claimHelp(owner, txid) {
		return // the claimant closed the request while we backed off
	}
	n := owner.logNum.Load()
	if n == 0 || n > uint64(e.cfg.MaxStores) {
		return
	}
	if uint64(cap(helper.helpBuf)) < 2*n {
		helper.helpBuf = make([]uint64, 2*n)
	}
	buf := helper.helpBuf[:2*n]
	for i := range buf {
		buf[i] = owner.logEnt[i].Load()
	}
	if owner.request.Load() != txid {
		return // the write-set was re-used; the transaction is done
	}
	helper.st.helps.Add(1)
	e.obsEvent(obs.EvHelp, helper.id, seqOf(txid))
	if e.dev != nil {
		// A helper persists curTx before applying, so a word flushed at
		// sequence s is never durable before curTx reaches s (§III-D).
		e.dev.FlushPair(helper.id, e.curTxImg, txid, txid)
		e.dev.Drain(helper.id)
	}
	seq := seqOf(txid)
	tid := uint64(tidOf(txid))
	for i := uint64(0); i < n; i++ {
		j := (tid*8 + i) % n
		e.applyWord(helper, buf[2*j], buf[2*j+1], seq)
	}
	if e.dev != nil {
		e.flushWords(helper, buf, 2, seq)
	}
	e.closeRequest(helper, txid)
}

// Read implements tm.Engine: a read-only transaction. It first helps apply
// any committed-but-unapplied transaction (to observe a globally consistent
// view), then runs the body with seq-validated loads, retrying on
// validation failure. On the wait-free variants a body that fails ReadTries
// times is published as an operation, bounding the retries (§III-E).
//
// The fast path snapshots curTx exactly once, reuses the slot's embedded
// read handle and runs the body with no closure — a conflict-free read-only
// transaction performs one atomic load beyond the body's own.
func (e *Engine) Read(fn func(tx tm.Tx) uint64) uint64 {
	s := e.acquire()
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
func (e *Engine) readLoop(s *slot, fn func(tx tm.Tx) uint64) uint64 {
	for tries := 0; ; tries++ {
		oldTx := e.curTx.Load()
		if e.pending(oldTx) {
			e.helpApply(oldTx, s)
		}
		s.rtx.startSeq = seqOf(oldTx)
		if res, ok := runBody(fn, &s.rtx); ok {
			s.st.readCommits.Add(1)
			return res
		}
		s.st.readAborts.Add(1)
		e.obsEvent(obs.EvReadAbort, s.id, seqOf(oldTx))
		if e.waitFree && tries+1 >= e.cfg.ReadTries {
			return e.publishAndRun(s, fn)
		}
		e.contendedPause(tries)
	}
}

// sortUint64 is an allocation-free insertion/shell sort for the small
// address batches of flushWords (write-sets are at most MaxStores long and
// typically tiny; slices.Sort's generic machinery is no faster here).
func sortUint64(a []uint64) {
	for gap := len(a) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(a); i++ {
			v := a[i]
			j := i
			for ; j >= gap && a[j-gap] > v; j -= gap {
				a[j] = a[j-gap]
			}
			a[j] = v
		}
	}
}
