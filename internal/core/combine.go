package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"onefile/internal/obs"
	"onefile/internal/tm"
)

// This file is the group-commit combining layer (DESIGN.md §10). OneFile's
// update path is inherently serial — every committer advances curTx,
// publishes a write-set, runs the apply pass, and on the PTM variants pays
// the pwb/pfence round — so under heavy load the per-commit fixed costs
// dominate long before the op bodies do. Since writers serialise anyway,
// a flat-combining-style group commit gets fence and commit amortisation
// essentially for free: callers submit operations (AsyncUpdate/
// BatchUpdate), and whichever thread holds the combiner slot drains a
// bounded batch of pending submissions and executes them back-to-back
// inside ONE engine transaction — one curTx advance, one apply pass whose
// write-set dedupe collapses repeated writes to hot words into one DCAS
// and one pwb per cache line, and one persistence-fence round per batch
// instead of per operation (Table I's cost becomes ~(2+2·Nw_merged)/batch).
//
// Progress: the combiner executes a bounded batch (combineBatchMax) as an
// ordinary Update transaction, so the transaction itself keeps the paper's
// lock-free/wait-free bounds. A submitter that does not hold the combiner
// slot parks on its future exactly like the contention layer's parked slot
// admission (§9) — and the exit protocol below guarantees every pushed
// submission is picked up by some combiner, while Close() fails the
// pending queue with ErrEngineClosed so no future waits forever.
//
// Isolation: operations in a batch execute in submission order against the
// shared write-set (each reads its predecessors' writes, exactly as if they
// had committed back-to-back). A body panic rolls back just that
// operation's stores (writeSet.rollbackTo) and resolves its future with the
// panic as an error; its batchmates are unaffected. A write-set overflow
// caused by the batch (not the operation) falls back to a solo retry after
// the combined transaction commits, so batching never turns a fitting
// transaction into ErrTooManyStores.

// combineBatchMax bounds how many operations one combined transaction
// executes — the constant in the progress argument and the cap on
// write-set growth per transaction.
const combineBatchMax = 256

// combineLinger is the gather window (in yields) used while other
// BatchUpdate submitters are in flight.
const combineLinger = 4

// combReq is one pending submission: the operation, its future, and the
// Treiber-stack link of the submission queue. The future is embedded so a
// solo submission costs a single allocation.
//
// A BatchUpdate submission sets group instead of using the per-op future:
// the combiner delivers its result with plain stores into res/err and
// counts it down on the group, whose single future publishes the whole
// window at once — per-operation atomics drop out of the resolution path.
type combReq struct {
	fn    func(tm.Tx) uint64
	next  *combReq
	group *batchGroup
	res   uint64
	err   error
	fut   tm.Future
	// start is the submission timestamp (UnixNano), set only when an
	// observability sink is attached; 0 means "do not time this op".
	start int64
}

// batchGroup aggregates the completion of one BatchUpdate window. left
// counts unresolved operations; the future resolves when it reaches zero.
// The group future's Wait is the happens-before edge that publishes every
// member's plain res/err stores to the submitter.
type batchGroup struct {
	left atomic.Int32
	fut  tm.Future
}

// done retires n just-resolved members.
func (g *batchGroup) done(n int32) {
	if g.left.Add(-n) == 0 {
		g.fut.Resolve(0, nil)
	}
}

// batchCall is the pooled per-BatchUpdate record: the request array and its
// completion group. It is dead — and reusable — once the group future has
// been waited on and every result read.
type batchCall struct {
	group batchGroup
	reqs  []combReq
}

// combiner is the engine's group-commit state. head and active are the two
// contended words, each on its own cache line; everything below scratch is
// owned by the thread holding active.
type combiner struct {
	_    [64]byte
	head atomic.Pointer[combReq] // submission queue (LIFO; drains reverse)
	_    [56]byte
	// active is the combiner slot: CASed 0→1 by the thread that drains
	// and executes, released after the exit-protocol re-check.
	active atomic.Uint32
	_      [60]byte
	// inflight counts BatchUpdate callers between push and last Wait. The
	// combiner's gather lingers only while someone else is in flight, so
	// drains span concurrent submitters without ever delaying a solo one.
	inflight   atomic.Int32
	_          [60]byte
	batches    atomic.Uint64 // combined transactions executed
	batchedOps atomic.Uint64 // operations executed through them

	// Combiner-private (guarded by active): the drain buffer, and the
	// lock-free path's reusable execution record with its closure-free
	// transaction body (built once, initLF).
	scratch []*combReq
	lfExec  *batchExec
	lfFns   []func(tm.Tx) uint64
	lfBody  func(tm.Tx) uint64

	// reqPool recycles BatchUpdate's per-call records (request array +
	// completion group). A call is dead once its group future has been
	// waited on: the combiner's last touch is that Resolve, and the
	// waiter's atomic read of the resolved state is the happens-before
	// edge that makes reuse safe.
	reqPool sync.Pool
}

// batchExec is one execution's per-operation results. On the lock-free
// engines attempts run sequentially on the combiner goroutine, so one
// record is reused (the committed attempt overwrites its predecessors); on
// the wait-free engines the body may run concurrently on helper
// goroutines, so each execution allocates its own record and the engine's
// return value selects the committed one.
type batchExec struct {
	res  []uint64
	errs []error
	solo []bool // write-set overflow: retry this op alone after the batch
}

func newBatchExec(n int) *batchExec {
	return &batchExec{res: make([]uint64, n), errs: make([]error, n), solo: make([]bool, n)}
}

// grow resizes the record for a batch of n ops, reusing capacity.
func (x *batchExec) grow(n int) {
	if cap(x.res) < n {
		x.res = make([]uint64, n)
		x.errs = make([]error, n)
		x.solo = make([]bool, n)
		return
	}
	x.res = x.res[:n]
	x.errs = x.errs[:n]
	x.solo = x.solo[:n]
}

// runOps is the combined transaction's body: every operation in turn, each
// contained on its own. It runs under the engine's usual retry/helping
// regime, so it may execute several times; each execution re-arms the undo
// log for its own slot's write-set.
//
// A batch of one that overflows inside a wait-free aggregate re-raises the
// overflow to the aggregate's contain: only the aggregate knows whether
// other published operations filled the write-set (it then drops the batch
// for a later, smaller aggregate) or the operation overflows alone (a
// terminal failure, which collectWF turns back into this batch's verdict).
// Longer batches keep the verdict: their members are retried alone.
func (x *batchExec) runOps(u *uTx, fns []func(tm.Tx) uint64) {
	nested := u.s.ws.beginUndo()
	for i, fn := range fns {
		res, pv := contain(u, fn)
		if nested && len(fns) == 1 && isOverflow(pv) {
			panic(pv)
		}
		// ErrTooManyStores asks for a retry alone — the overflow may be the
		// batch's fault, not the op's; any other panic is the op's error.
		x.res[i], x.errs[i], x.solo[i] = res, nil, isOverflow(pv)
		if pv != nil && !x.solo[i] {
			x.errs[i] = tm.PanicError(pv)
		}
	}
}

// contain executes one operation of a transaction that carries several — a
// combined batch, a wait-free aggregate — with per-op isolation: a body
// panic rolls the write-set back to the operation's start and is returned
// as pv for the caller to classify (isOverflow: possibly its neighbours'
// fault, worth a retry alone; anything else: the operation's own terminal
// failure). An abortSignal is the whole transaction's concern and
// propagates. The write-set must be recording (beginUndo).
func contain(u *uTx, fn func(tm.Tx) uint64) (res uint64, pv any) {
	m := u.s.ws.mark()
	defer func() {
		if pv = recover(); pv == nil {
			return
		}
		if _, isAbort := pv.(abortSignal); isAbort {
			panic(pv)
		}
		u.s.ws.rollbackTo(m)
	}()
	return fn(u), nil
}

// isOverflow reports whether a contained panic is a write-set overflow.
func isOverflow(pv any) bool {
	err, ok := pv.(error)
	return ok && errors.Is(err, tm.ErrTooManyStores)
}

var _ tm.Combining = (*Engine)(nil)

// AsyncUpdate implements tm.Combining. With an idle combiner the caller is
// the combiner of a batch of one — the future is resolved on return, and a
// solo submitter never waits for a batch to form; otherwise the submission
// is queued for the active combiner and the caller returns immediately.
func (e *Engine) AsyncUpdate(fn func(tm.Tx) uint64) *tm.Future {
	r := &combReq{fn: fn}
	if e.closed.Load() {
		r.fut.Resolve(0, tm.ErrEngineClosed)
		return &r.fut
	}
	if e.obsv.Load() != nil {
		r.start = time.Now().UnixNano()
	}
	if e.comb.head.Load() == nil && e.comb.active.CompareAndSwap(0, 1) {
		e.comb.scratch = append(e.comb.scratch[:0], r)
		e.execBatch(e.comb.scratch, true)
		e.comb.active.Store(0)
	} else {
		e.pushReq(r)
	}
	e.drainLoop()
	return &r.fut
}

// BatchUpdate implements tm.Combining: submit every fn, combine, wait for
// all. The submissions land on the queue before any combining starts, so a
// single caller still gets real batches (this is the deterministic entry
// point the crashcheck combined sweep and the batch benchmark use).
func (e *Engine) BatchUpdate(fns []func(tm.Tx) uint64) []tm.BatchResult {
	out := make([]tm.BatchResult, len(fns))
	if len(fns) == 0 {
		return out
	}
	if e.closed.Load() {
		for i := range out {
			out[i].Err = tm.ErrEngineClosed
		}
		return out
	}
	call, _ := e.comb.reqPool.Get().(*batchCall)
	if call != nil && cap(call.reqs) >= len(fns) {
		call.reqs = call.reqs[:len(fns)]
	} else {
		call = &batchCall{reqs: make([]combReq, len(fns))}
	}
	call.group.left.Store(int32(len(fns)))
	call.group.fut.Reset()
	reqs := call.reqs
	var submitNs int64
	if e.obsv.Load() != nil {
		submitNs = time.Now().UnixNano()
	}
	// Link the batch into one chain (last submission on top, matching the
	// LIFO queue's order) and publish it with a single CAS.
	for i := range reqs {
		reqs[i] = combReq{fn: fns[i], group: &call.group, start: submitNs}
		if i > 0 {
			reqs[i].next = &reqs[i-1]
		}
	}
	e.comb.inflight.Add(1)
	e.pushChain(&reqs[len(reqs)-1], &reqs[0])
	e.drainLoop()
	call.group.fut.Wait()
	for i := range reqs {
		out[i].Val, out[i].Err = reqs[i].res, reqs[i].err
	}
	e.comb.inflight.Add(-1)
	e.comb.reqPool.Put(call)
	return out
}

// pushReq publishes r on the submission queue.
func (e *Engine) pushReq(r *combReq) { e.pushChain(r, r) }

// pushChain publishes a pre-linked chain of submissions (first is the top)
// with one CAS.
func (e *Engine) pushChain(first, last *combReq) {
	for {
		h := e.comb.head.Load()
		last.next = h
		if e.comb.head.CompareAndSwap(h, first) {
			return
		}
	}
}

// drainLoop is the combiner admission and exit protocol: while the queue is
// non-empty, try to take the combiner slot and run a session. A failed CAS
// means another thread holds the slot — and every holder re-runs this check
// after releasing, so a submission pushed at any point is picked up by
// some combiner (the standard flat-combining no-strand argument).
func (e *Engine) drainLoop() {
	for e.comb.head.Load() != nil {
		if !e.comb.active.CompareAndSwap(0, 1) {
			return
		}
		e.combineSession()
		e.comb.active.Store(0)
	}
}

// combineSession drains and executes until the queue is empty, holding the
// combiner slot. Each gathered batch runs in chunks of combineBatchMax, so
// one combined transaction's work stays bounded.
func (e *Engine) combineSession() {
	for {
		batch := e.gather()
		if len(batch) == 0 {
			return
		}
		for start := 0; start < len(batch); start += combineBatchMax {
			end := min(start+combineBatchMax, len(batch))
			e.execBatch(batch[start:end], false)
		}
	}
}

// gather drains the queue into the combiner's scratch buffer in submission
// order. While other BatchUpdate callers are in flight it waits up to
// combineLinger yields for their windows to land; otherwise it never waits,
// so a solo submitter is not held back for a batch that is not forming.
func (e *Engine) gather() []*combReq {
	buf := e.drainInto(e.comb.scratch[:0])
	if len(buf) > 0 {
		// Concurrent BatchUpdate callers' next windows are at most a few
		// yields away, so linger long enough for the drain to span them.
		w := 0
		if e.comb.inflight.Load() > 1 {
			w = combineLinger
		}
		for pass := 0; pass < w && len(buf) < combineBatchMax; pass++ {
			runtime.Gosched()
			n := len(buf)
			buf = e.drainInto(buf)
			if len(buf) == n && pass > 0 {
				break // a quiet yield after a first full one: queue is spent
			}
		}
	}
	e.comb.scratch = buf
	if len(buf) > 0 {
		if o := e.obsv.Load(); o != nil {
			o.DrainSpan.Record(uint64(len(buf)))
			o.Rec.Record(obs.EvBatchDrain, -1, uint64(len(buf)))
		}
	}
	return buf
}

// drainInto atomically claims the whole queue and appends it to buf in
// submission order (the stack is LIFO, so the claimed list is reversed in
// place). Claiming by Swap makes ownership exclusive: every submission is
// executed exactly once, by exactly one combiner.
func (e *Engine) drainInto(buf []*combReq) []*combReq {
	h := e.comb.head.Swap(nil)
	k := len(buf)
	for r := h; r != nil; r = r.next {
		buf = append(buf, r)
	}
	for i, j := k, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

// execBatch runs one bounded batch inside a single engine transaction —
// the pipeline's run stage with N bodies — and resolves every future. solo
// marks the batch of one an idle-combiner AsyncUpdate executes itself: its
// submit→resolve time is SoloLat, not BatchLat.
//
// ErrEngineClosed (the engine shut down between the submission and its
// admission) resolves the whole batch with that error; any other panic from
// the commit machinery — there are none in normal operation, but the
// crash-simulation harness injects them — propagates with the futures
// unresolved, exactly like a process death.
func (e *Engine) execBatch(batch []*combReq, solo bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if err, ok := r.(error); ok && errors.Is(err, tm.ErrEngineClosed) {
			for _, q := range batch {
				resolveReq(q, 0, tm.ErrEngineClosed)
			}
			return
		}
		panic(r)
	}()
	c := &e.comb
	var x *batchExec
	if e.waitFree {
		x = e.collectWF(batch)
	} else {
		// Attempts run sequentially on this goroutine, so the record and
		// the operation list are combiner-private and the closure-free body
		// is reused: nothing is allocated beyond the submission itself.
		e.initLF()
		c.lfExec.grow(len(batch))
		c.lfFns = c.lfFns[:0]
		for _, q := range batch {
			c.lfFns = append(c.lfFns, q.fn)
		}
		e.Update(c.lfBody)
		x = c.lfExec
	}
	// The counters are only written with the combiner slot held, so a
	// plain load+store (no RMW) is enough; Stats reads stay race-free.
	c.batches.Store(c.batches.Load() + 1)
	c.batchedOps.Store(c.batchedOps.Load() + uint64(len(batch)))
	if o := e.obsv.Load(); o != nil {
		// Submit→resolve latency, timestamped here just before resolution
		// (one clock read per batch, not per op).
		lat := o.BatchLat
		if solo {
			lat = o.SoloLat
		} else {
			o.BatchSize.Record(uint64(len(batch)))
		}
		now := time.Now().UnixNano()
		for i, q := range batch {
			if q.start != 0 && !(x.solo[i] && len(batch) > 1) { // an op retried alone is timed by its retry
				lat.Record(uint64(max(now-q.start, 0))) // a wall-clock step back counts the op, loses the latency
			}
		}
	}
	var retries []*combReq
	// Group members arrive as contiguous runs (a submitter pushes its next
	// window only after the previous one resolved), so their countdown is
	// amortised: plain result stores per op, one Add per run.
	var g *batchGroup
	var gn int32
	flush := func() {
		if g != nil {
			g.done(gn)
		}
		g, gn = nil, 0
	}
	for i, q := range batch {
		if x.solo[i] {
			if len(batch) == 1 {
				// Already alone: the op itself overflows the write-set.
				resolveReq(q, 0, tm.ErrTooManyStores)
				continue
			}
			retries = append(retries, q)
			continue
		}
		if q.group != nil {
			q.res, q.err = x.res[i], x.errs[i]
			if q.group != g {
				flush()
				g = q.group
			}
			gn++
			continue
		}
		flush()
		q.fut.Resolve(x.res[i], x.errs[i])
	}
	flush()
	// Overflow retries re-enter execBatch one op at a time, after x is no
	// longer needed (the lock-free path reuses its record).
	for _, q := range retries {
		one := [1]*combReq{q}
		e.execBatch(one[:], false)
	}
}

// collectWF runs batch as one transaction on a wait-free engine. The body
// may run concurrently on helper goroutines (§III-E), and still be running
// on one after this call has returned: it owns its copy of the operations
// (batch is the combiner's scratch, and its requests are recycled), each
// execution builds its own record, and the engine's committed return value
// selects the one whose effects committed. A batch of one that overflows
// alone inside an aggregate fails there terminally (runOps), and Update
// re-raises the overflow here: the record runOps would have returned says
// so with solo.
func (e *Engine) collectWF(batch []*combReq) (x *batchExec) {
	fns := make([]func(tm.Tx) uint64, len(batch))
	for i, q := range batch {
		fns[i] = q.fn
	}
	defer func() {
		if r := recover(); r != nil {
			if len(fns) > 1 || !isOverflow(r) {
				panic(r)
			}
			x = newBatchExec(1)
			x.solo[0] = true
		}
	}()
	return tm.Collect(e.Update, func(tx tm.Tx) *batchExec {
		x := newBatchExec(len(fns))
		x.runOps(tx.(*uTx), fns)
		return x
	})
}

// initLF lazily builds the lock-free path's reusable execution record and
// its closure-free body.
func (e *Engine) initLF() {
	c := &e.comb
	if c.lfExec != nil {
		return
	}
	c.lfExec = newBatchExec(1)
	c.lfBody = func(tx tm.Tx) uint64 {
		c.lfExec.runOps(tx.(*uTx), c.lfFns)
		return 0
	}
}

// resolveReq delivers one submission's result on a cold path (close,
// overflow, solo retry): group members store plainly and count down one,
// AsyncUpdate submissions resolve their own future.
func resolveReq(q *combReq, res uint64, err error) {
	if q.group != nil {
		q.res, q.err = res, err
		q.group.done(1)
		return
	}
	q.fut.Resolve(res, err)
}

// failPending fails every queued submission (Close): parked submitters wake
// with err. An active combiner's already-claimed batch either commits
// normally or resolves with ErrEngineClosed through execBatch's recover.
func (e *Engine) failPending(err error) {
	for r := e.comb.head.Swap(nil); r != nil; r = r.next {
		resolveReq(r, 0, err)
	}
}
