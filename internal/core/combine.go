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
// round for the whole batch. AsyncUpdate is a batch of one, and its future
// is resolved before it is returned.
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
// turns a fitting transaction into ErrTooManyStores. A batch of one has no
// batchmates: its failure fails the transaction, exactly as Update's does.

// combineBatchMax bounds how many operations one batch transaction
// executes — the constant in the progress argument and the cap on
// write-set growth per transaction.
const combineBatchMax = 256

// combiner is the batch entries' state: the counters Stats reports, on a
// cache line of their own, and the lock-free path's execution records.
//
// The tail pads it to 376 bytes, the size it had while it held a
// submission queue, so the engine fields declared after it (obsv, excl,
// curTx, published, claimHint) keep the offsets they have been measured
// at. At 168 bytes `txn-wf`, which never calls a batch entry, read 8 %
// fewer ops/s in 6 of 6 rounds (EXPERIMENTS.md, "AsyncUpdate is a call").
type combiner struct {
	_          [64]byte
	batches    atomic.Uint64 // batch transactions executed
	batchedOps atomic.Uint64 // operations executed through them
	_          [48]byte
	lf         sync.Pool // *lfBatch
	_          [208]byte
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

// opFailure carries a batch of one's body panic out of its transaction, so
// that the transaction fails as Update's does — it commits nothing and is
// counted as nothing — while runBatch can tell it from a panic of the
// commit machinery.
type opFailure struct{ pv any }

// runOps is the batch transaction's body: every operation in turn, each
// contained on its own. It runs under the engine's usual retry/helping
// regime, so it may execute several times; each execution re-arms the undo
// log for its own slot's write-set.
//
// A batch of one re-raises its operation's failure. An overflow goes out as
// it is: inside a wait-free aggregate, only the aggregate's contain knows
// whether other published operations filled the write-set (it then drops
// the batch for a later, smaller aggregate) or the operation overflows
// alone. Any other panic goes out as an opFailure. Longer batches keep each
// verdict in x: a panic is the operation's error, an overflow a retry
// alone.
func (x *batchExec) runOps(u *uTx, fns []func(tm.Tx) uint64) {
	u.s.ws.beginUndo()
	for i, fn := range fns {
		res, pv := contain(u, fn)
		if pv != nil && len(fns) == 1 {
			if isOverflow(pv) {
				panic(pv)
			}
			panic(opFailure{pv})
		}
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

// AsyncUpdate implements tm.Combining: fn runs on the caller as a batch of
// one, and the returned future is resolved.
func (e *Engine) AsyncUpdate(fn func(tm.Tx) uint64) *tm.Future {
	fns := [1]func(tm.Tx) uint64{fn}
	var out [1]tm.BatchResult
	e.execBatch(fns[:], out[:], e.callStart(), true)
	f := new(tm.Future)
	f.Resolve(out[0].Val, out[0].Err)
	return f
}

// BatchUpdate implements tm.Combining: fns run on the caller, in order, in
// chunks of at most combineBatchMax, each chunk one engine transaction.
func (e *Engine) BatchUpdate(fns []func(tm.Tx) uint64) []tm.BatchResult {
	out := make([]tm.BatchResult, len(fns))
	start := e.callStart()
	for i := 0; i < len(fns); i += combineBatchMax {
		j := min(i+combineBatchMax, len(fns))
		e.execBatch(fns[i:j], out[i:j], start, false)
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

// execBatch runs fns as one engine transaction — the pipeline's run stage
// with len(fns) bodies — and stores each operation's result in out. solo
// marks AsyncUpdate's batch of one: its call→resolve time is SoloLat, not
// BatchLat. Operations that overflowed the batch's write-set are retried
// alone once it has committed.
func (e *Engine) execBatch(fns []func(tm.Tx) uint64, out []tm.BatchResult, start int64, solo bool) {
	var b *lfBatch
	if !e.waitFree {
		b, _ = e.comb.lf.Get().(*lfBatch)
		if b == nil {
			b = newLFBatch()
		}
		defer e.putLF(b)
	}
	x, closed := e.runBatch(fns, b)
	if closed {
		for i := range out {
			out[i] = tm.BatchResult{Err: tm.ErrEngineClosed}
		}
		return
	}
	e.comb.batches.Add(1)
	e.comb.batchedOps.Add(uint64(len(fns)))
	if o := e.obsv.Load(); o != nil {
		lat := o.BatchLat
		if solo {
			lat = o.SoloLat
		} else {
			o.BatchSize.Record(uint64(len(fns)))
		}
		// One clock read per batch, not per op.
		now := time.Now().UnixNano()
		for i := range fns {
			if start != 0 && !(x.solo[i] && len(fns) > 1) { // an op retried alone is timed by its retry
				lat.Record(uint64(max(now-start, 0))) // a wall-clock step back counts the op, loses the latency
			}
		}
	}
	for i := range out {
		switch {
		case !x.solo[i]:
			out[i] = tm.BatchResult{Val: x.res[i], Err: x.errs[i]}
		case len(fns) == 1:
			out[i] = tm.BatchResult{Err: tm.ErrTooManyStores} // already alone: the op itself overflows
		default:
			e.execBatch(fns[i:i+1], out[i:i+1], start, false)
		}
	}
}

// putLF returns a lock-free record to the pool, without the operations it
// ran.
func (e *Engine) putLF(b *lfBatch) {
	clear(b.fns)
	e.comb.lf.Put(b)
}

// runBatch runs fns as one transaction, through b on a lock-free engine
// and collectWF on a wait-free one, and returns the committed execution's
// record. A batch of one's failure (runOps) comes back as its verdict.
// closed reports ErrEngineClosed: Close raced the call. Any other panic
// from the commit machinery — there are none in normal operation, but the
// crash-simulation harness injects them — propagates, exactly like a
// process death.
func (e *Engine) runBatch(fns []func(tm.Tx) uint64, b *lfBatch) (x *batchExec, closed bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if err, ok := r.(error); ok && errors.Is(err, tm.ErrEngineClosed) {
			closed = true
			return
		}
		op, failed := r.(opFailure)
		if len(fns) > 1 || !failed && !isOverflow(r) {
			panic(r)
		}
		x = newBatchExec(1)
		if failed {
			x.errs[0] = tm.PanicError(op.pv)
		} else {
			x.solo[0] = true
		}
	}()
	if b == nil {
		return e.collectWF(fns), false
	}
	b.x.grow(len(fns))
	b.fns = append(b.fns[:0], fns...)
	e.Update(b.body)
	return &b.x, false
}

// collectWF runs fns as one transaction on a wait-free engine. The body may
// run concurrently on helper goroutines (§III-E), and still be running on
// one after this call has returned: it owns its copy of the operations,
// each execution builds its own record, and the engine's committed return
// value selects the one whose effects committed.
func (e *Engine) collectWF(fns []func(tm.Tx) uint64) *batchExec {
	own := slices.Clone(fns)
	return tm.Collect(e.Update, func(tx tm.Tx) *batchExec {
		x := newBatchExec(len(own))
		x.runOps(tx.(*uTx), own)
		return x
	})
}
