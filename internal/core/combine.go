package core

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"onefile/internal/tm"
)

// This file is the batch entries, AsyncUpdate and BatchUpdate (DESIGN.md
// §10). Both run on the caller. A batch is up to combineBatchMax operations
// executed back-to-back as the bodies of ONE engine transaction: one curTx
// advance, one apply pass whose write-set dedupe collapses repeated writes
// to a word into one DCAS and one pwb per cache line, and one persistence
// round for the whole batch. An operation with no batchmates — AsyncUpdate's,
// a chunk of one, or one retried alone — runs as Update's body does, and its
// failure comes back from run as a value: the operation's error.
//
// A batch belongs to one caller. Concurrent callers' operations merge the
// way concurrent Updates do: a wait-free engine's aggregate executes every
// published operation (§III-E), and a lock-free one retries.
//
// Progress: a batch is one Update transaction of bounded size, so it has
// Update's lock-free/wait-free bounds.
//
// Isolation: operations in a batch execute in order against the shared
// write-set (each reads its predecessors' writes, exactly as if they had
// committed back-to-back). A body panic rolls back just that operation's
// stores (writeSet.rollbackTo) and becomes its error; its batchmates are
// unaffected. A write-set overflow caused by the batch (not the operation)
// falls back to a retry alone after the batch commits, so batching never
// turns a fitting transaction into ErrTooManyStores.

// combineBatchMax bounds how many operations one batch transaction
// executes — the constant in the progress argument and the cap on
// write-set growth per transaction.
const combineBatchMax = 256

// combiner is the batch entries' state: the counters Stats reports, on a
// cache line of their own, and the lock-free path's execution records.
//
// The tail pads it to 392 bytes so the engine fields declared after it
// (obsv, excl, curTx, published, claimHint) keep the offsets they have
// been measured at (TestEngineLayout). At 168 bytes `txn-wf`, which never
// calls a batch entry, read 8 % fewer ops/s in 6 of 6 rounds
// (EXPERIMENTS.md, "AsyncUpdate is a call").
type combiner struct {
	_          [64]byte
	batches    atomic.Uint64 // batch transactions executed
	batchedOps atomic.Uint64 // operations executed through them
	_          [48]byte
	lf         sync.Pool // *lfBatch
	_          [224]byte
}

// batchExec is one execution's per-operation results.
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
		*x = *newBatchExec(n)
		return
	}
	x.res = x.res[:n]
	x.errs = x.errs[:n]
	x.solo = x.solo[:n]
}

// lfBatch is a lock-free execution's record. Attempts run one after
// another on the caller's goroutine, so the committed attempt overwrites
// its predecessors and one record serves a whole call. Records are pooled,
// each with its closure-free body built once, so a call allocates nothing
// for them.
type lfBatch struct {
	x    batchExec
	fns  []func(tm.Tx) uint64
	body func(tm.Tx) uint64
}

func newLFBatch() *lfBatch {
	b := &lfBatch{}
	b.body = func(tx tm.Tx) uint64 {
		b.x.runOps(tx.(*uTx), b.fns)
		return 0
	}
	return b
}

// runOps is the batch transaction's body: every operation in turn, each
// contained on its own. It runs under the engine's usual retry/helping
// regime, so it may execute several times; each execution re-arms the undo
// log for its own slot's write-set. Each verdict is kept in x: a panic is the
// operation's error, an overflow a retry alone.
func (x *batchExec) runOps(u *uTx, fns []func(tm.Tx) uint64) {
	u.s.ws.beginUndo()
	for i, fn := range fns {
		res, pv := contain(u, fn)
		x.res[i], x.errs[i], x.solo[i] = res, nil, isOverflow(pv)
		if pv != nil && !x.solo[i] {
			x.errs[i] = tm.PanicError(pv)
		}
	}
}

// contain executes one operation of a transaction that carries several — a
// batch, a wait-free aggregate — with per-op isolation: a body panic rolls
// the write-set back to the operation's start and is returned as pv for the
// caller to classify (isOverflow: possibly its neighbours' fault, worth a
// retry alone; anything else: the operation's own terminal failure). An
// abortSignal is the whole transaction's concern and propagates. The
// write-set must be recording (beginUndo).
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

// AsyncUpdate implements tm.Combining: fn runs on the caller as Update's
// body does, and its failure is the returned future's error. It counts as a
// batch of one, and its call→resolve time is SoloLat.
func (e *Engine) AsyncUpdate(fn func(tm.Tx) uint64) *tm.Future {
	start := e.callStart()
	r, ran := e.runAlone(fn)
	if ran {
		e.comb.batches.Add(1)
		e.comb.batchedOps.Add(1)
		if o := e.obsv.Load(); o != nil && start != 0 {
			o.SoloLat.Record(uint64(max(time.Now().UnixNano()-start, 0)))
		}
	}
	f := new(tm.Future)
	f.Resolve(r.Val, r.Err)
	return f
}

// BatchUpdate implements tm.Combining: fns run on the caller, in order, in
// chunks of at most combineBatchMax, each chunk one engine transaction.
func (e *Engine) BatchUpdate(fns []func(tm.Tx) uint64) []tm.BatchResult {
	out := make([]tm.BatchResult, len(fns))
	start := e.callStart()
	for i := 0; i < len(fns); i += combineBatchMax {
		j := min(i+combineBatchMax, len(fns))
		if j-i == 1 {
			out[i] = e.batchAlone(fns[i], start)
			continue
		}
		e.execBatch(fns[i:j], out[i:j], start)
	}
	return out
}

// callStart is the timestamp (UnixNano) a call→resolve latency sample
// starts from when a sink is attached, and 0 otherwise.
func (e *Engine) callStart() int64 {
	if e.obsv.Load() == nil {
		return 0
	}
	return time.Now().UnixNano()
}

// runAlone runs fn as its own transaction, through run as Update does, and
// returns its result or its failure as the operation's. ran is false on a
// closed engine, where nothing ran.
func (e *Engine) runAlone(fn func(tm.Tx) uint64) (r tm.BatchResult, ran bool) {
	res, fail := e.run(fn, modeFull)
	switch {
	case fail == tm.ErrEngineClosed && e.closed.Load():
		return tm.BatchResult{Err: tm.ErrEngineClosed}, false
	case fail != nil:
		return tm.BatchResult{Err: tm.PanicError(fail)}, true
	}
	return tm.BatchResult{Val: res}, true
}

// batchAlone is runAlone for a BatchUpdate operation, counted as a batch of
// one.
func (e *Engine) batchAlone(fn func(tm.Tx) uint64, start int64) tm.BatchResult {
	r, ran := e.runAlone(fn)
	if ran {
		e.countBatch(1, 1, start)
	}
	return r
}

// countBatch accounts for a BatchUpdate transaction of n operations that
// ran: the Stats counters and, with a sink attached, its size and one
// call→resolve sample for each of the timed operations.
func (e *Engine) countBatch(n, timed int, start int64) {
	e.comb.batches.Add(1)
	e.comb.batchedOps.Add(uint64(n))
	o := e.obsv.Load()
	if o == nil {
		return
	}
	o.BatchSize.Record(uint64(n))
	if start == 0 {
		return
	}
	// One clock read per batch, not per op. A wall-clock step back counts
	// the op and loses the latency.
	d := uint64(max(time.Now().UnixNano()-start, 0))
	for range timed {
		o.BatchLat.Record(d)
	}
}

// execBatch runs fns as one engine transaction — the pipeline's run stage
// with len(fns) bodies — and stores each operation's result in out.
// Operations that overflowed the batch's write-set are retried alone once
// it has committed, and timed by their retry.
//
// On a lock-free engine the attempts run one after another on the caller,
// through one pooled record. On a wait-free one the body may run
// concurrently on helper goroutines (§III-E), and still be running on one
// after this call has returned: it owns its copy of the operations, each
// execution builds its own record, and the engine's committed return value
// selects the one whose effects committed (tm.Collect).
func (e *Engine) execBatch(fns []func(tm.Tx) uint64, out []tm.BatchResult, start int64) {
	var x *batchExec
	var fail any
	if e.waitFree {
		own := slices.Clone(fns)
		x = tm.Collect(func(body func(tm.Tx) uint64) (res uint64) {
			res, fail = e.run(body, modeFull)
			return res
		}, func(tx tm.Tx) *batchExec {
			x := newBatchExec(len(own))
			x.runOps(tx.(*uTx), own)
			return x
		})
	} else {
		b, _ := e.comb.lf.Get().(*lfBatch)
		if b == nil {
			b = newLFBatch()
		}
		defer func() {
			clear(b.fns) // the pool keeps no operation alive
			e.comb.lf.Put(b)
		}()
		b.x.grow(len(fns))
		b.fns = append(b.fns[:0], fns...)
		_, fail = e.run(b.body, modeFull)
		x = &b.x
	}
	if fail != nil {
		// runOps contains every operation's failure, so this is the
		// transaction's own — a closed engine, before anything ran — and
		// it is every operation's.
		for i := range out {
			out[i] = tm.BatchResult{Err: tm.PanicError(fail)}
		}
		return
	}
	timed := len(fns)
	for _, alone := range x.solo {
		if alone {
			timed--
		}
	}
	e.countBatch(len(fns), timed, start)
	for i := range out {
		if x.solo[i] {
			out[i] = e.batchAlone(fns[i], start)
		} else {
			out[i] = tm.BatchResult{Val: x.res[i], Err: x.errs[i]}
		}
	}
}
