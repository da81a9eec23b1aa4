package core

import (
	"sync/atomic"
	"testing"

	"onefile/internal/pmem"
	"onefile/internal/tm"
)

// TestReadDoesNotWaitForAPendingCommit parks a committer in its apply phase
// — after the commit CAS, at the first pwb of its word flushes, every DCAS
// done and the request still open — through the device hook. A Read of a
// word the committer does not write must then return the value from before
// the commit without helping: the first read attempt takes the snapshot
// before the pending transaction. A Read of a word it wrote aborts that
// attempt, helps the parked transaction closed, and returns the new value.
func TestReadDoesNotWaitForAPendingCommit(t *testing.T) {
	for _, wf := range []bool{false, true} {
		e, dev := newPTM(t, wf, pmem.StrictMode, 1)
		t.Run(e.Name(), func(t *testing.T) {
			defer e.Close()
			x, y := tm.Root(0), tm.Root(1)
			e.Update(func(tx tm.Tx) uint64 {
				tx.Store(x, 1)
				tx.Store(y, 1)
				return 0
			})

			// The committer's events, in order: log pwb, drain, curTx pwb,
			// drain, then the apply phase's word pwbs. Everything after the
			// park is the readers' and passes through.
			var drains atomic.Int32
			var once atomic.Bool
			parked, release := make(chan struct{}), make(chan struct{})
			dev.(*pmem.Sim).SetHook(func(ev pmem.Event) {
				if once.Load() {
					return
				}
				if ev == pmem.EvDrain {
					drains.Add(1)
				} else if ev == pmem.EvPwb && drains.Load() == 2 && once.CompareAndSwap(false, true) {
					close(parked)
					<-release
				}
			})
			defer dev.(*pmem.Sim).SetHook(nil)
			done := make(chan struct{})
			go func() {
				defer close(done)
				e.Update(func(tx tm.Tx) uint64 {
					tx.Store(x, 2)
					return 0
				})
			}()
			<-parked
			if !e.pending(e.curTx.Load()) {
				t.Fatal("the parked committer's transaction is not pending")
			}

			before := e.Stats()
			if got := e.Read(func(tx tm.Tx) uint64 { return tx.Load(y) }); got != 1 {
				t.Errorf("Read of a word the pending transaction does not write = %d, want 1", got)
			}
			d := e.Stats().Sub(before)
			if d.Helps != 0 || d.ReadsBeforePending != 1 || d.ReadAborts != 0 {
				t.Errorf("Read beside a pending commit: %d helps, %d reads before pending, %d read aborts; want 0, 1, 0",
					d.Helps, d.ReadsBeforePending, d.ReadAborts)
			}

			before = e.Stats()
			if got := e.Read(func(tx tm.Tx) uint64 { return tx.Load(x) }); got != 2 {
				t.Errorf("Read of a word the pending transaction writes = %d, want 2", got)
			}
			d = e.Stats().Sub(before)
			if d.Helps != 1 || d.ReadsBeforePending != 0 || d.ReadAborts != 1 {
				t.Errorf("Read of the pending write: %d helps, %d reads before pending, %d read aborts; want 1, 0, 1",
					d.Helps, d.ReadsBeforePending, d.ReadAborts)
			}
			if e.pending(e.curTx.Load()) {
				t.Error("the helped transaction is still pending")
			}
			close(release)
			<-done
		})
	}
}

// TestPublishedOperationClosesBeforeItReturns: a published operation's
// submitter must not return while the transaction that executed the
// operation is still applying it, or its own next Read — whose first
// attempt reads before a pending transaction — misses the operation's
// writes. The test is the applier: it runs an aggregate on another slot,
// commits it (steps 5–7 of commit) and applies only the operation's result
// and tag words. Then the submitter, on this goroutine, collects its result
// and reads every word the operation wrote.
func TestPublishedOperationClosesBeforeItReturns(t *testing.T) {
	e := NewWF(tm.WithHeapWords(1<<12), tm.WithMaxThreads(4), tm.WithMaxStores(64))
	defer e.Close()
	a, b := tm.Root(0), tm.Root(1)
	sub, app := &e.slots[0], &e.slots[1]
	sub.claimed.Store(1)
	app.claimed.Store(1)

	// Publish, as updateWF does.
	sub.opTag++
	e.published.Add(1)
	d := &opDesc{tag: sub.opTag, birth: seqOf(e.curTx.Load()), fn: func(tx tm.Tx) uint64 {
		tx.Store(a, 7)
		tx.Store(b, 9)
		return 42
	}}
	sub.opSlot.Store(d)

	// The applier commits an aggregate that executes the operation ...
	oldTx := e.curTx.Load()
	app.ws.reset()
	app.utx.startSeq = seqOf(oldTx)
	if _, _, ok := runBody(e.aggregateBody, &app.utx); !ok {
		t.Fatal("the aggregate aborted on an idle engine")
	}
	newTx := makeTx(seqOf(oldTx)+1, app.id)
	app.ws.publish(e.logStamp(newTx))
	app.request.Store(newTx)
	if !e.curTx.CompareAndSwap(oldTx, newTx) {
		t.Fatal("the aggregate's commit CAS failed on an idle engine")
	}
	// ... and stops after applying the result words, before a and b.
	valW, tagW := e.resultWord(sub.id)
	for i, k := range app.ws.keys[:app.ws.n] {
		if k == uint64(valW) || k == uint64(tagW) {
			e.applyWord(k, app.ws.vals[i], seqOf(newTx))
		}
	}

	res, fail := e.runPublished(sub, d)
	sub.opSlot.Store(nil)
	e.published.Add(-1)
	if res != 42 || fail != nil {
		t.Fatalf("runPublished = (%d, %v), want (42, nil)", res, fail)
	}
	if got := e.Read(func(tx tm.Tx) uint64 { return tx.Load(a)<<8 | tx.Load(b) }); got != 7<<8|9 {
		t.Errorf("the submitter's Read after its operation returned a<<8|b = %#x, want %#x: it returned before the transaction that executed it closed",
			got, 7<<8|9)
	}

	e.applyOwn(app, newTx)
	e.closeRequest(app, newTx)
	sub.claimed.Store(0)
	app.claimed.Store(0)
}
