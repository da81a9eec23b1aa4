package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"onefile/internal/pmem"
	"onefile/internal/tm"
)

// TestWaitFreeProgressBound holds the wait-free bound (§III-E, DESIGN.md §9)
// with unpublished rounds running beside a published operation: while
// workers goroutines loop Update — unpublished rounds whenever nothing is
// published — one submitter publishes an operation and parks inside its own
// first execution of it. Then:
//
//   - the others commit the operation for it, within MaxThreads+1 curTx
//     advances of the moment its descriptor became visible (the sequence of
//     its tag word, read with Snapshot, against curTx's sequence when the
//     body first ran, on whichever goroutine): a goroutine stopped in the
//     middle of a transaction stops nobody. Not from the birth in the
//     descriptor: updateWF takes it before it stores the descriptor, the
//     submitter can be descheduled in between, and the published counter,
//     already raised, sends the workers to publish and commit their own
//     operations meanwhile — commits no bound can count;
//   - no unpublished round starts while the operation is published: a
//     worker's Update that began with the submitter parked, and runs its
//     body on its own slot unpublished while the submitter is still parked,
//     read a raised counter and ran the round anyway.
func TestWaitFreeProgressBound(t *testing.T) {
	const (
		workers = 3
		rounds  = 20
	)
	opts := []tm.Option{tm.WithHeapWords(1 << 14), tm.WithMaxThreads(workers + 1), tm.WithMaxStores(1 << 10)}
	for _, name := range []string{"OF-WF", "OF-WF-PTM"} {
		t.Run(name, func(t *testing.T) {
			e := NewWF(opts...)
			if name == "OF-WF-PTM" {
				dev, err := pmem.New(DeviceConfig(pmem.StrictMode, 1, opts...))
				if err != nil {
					t.Fatal(err)
				}
				if e, err = NewPersistentWF(dev, false, opts...); err != nil {
					t.Fatal(err)
				}
			}
			defer e.Close()

			// epoch is odd while the submitter is parked with its
			// operation published.
			var epoch, unpublished, violations atomic.Uint64
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					w := tm.Root(1 + g)
					for {
						select {
						case <-stop:
							return
						default:
						}
						ep := epoch.Load()
						e.Update(func(tx tm.Tx) uint64 {
							if tx.(*uTx).s.opSlot.Load() == nil { // an unpublished round of this worker's own slot
								unpublished.Add(1)
								if ep%2 == 1 && epoch.Load() == ep {
									violations.Add(1)
								}
							}
							tx.Store(w, tx.Load(w)+1)
							return 0
						})
					}
				}()
			}
			defer func() {
				close(stop)
				wg.Wait()
			}()

			parkedRounds, maxAdv := 0, uint64(0)
			for r := 0; r < rounds; r++ {
				// Publish while the workers are in their unpublished loop, if
				// they are back in it: workers that publish in turn can keep
				// each other on the published path as long as their
				// publications overlap.
				for u, until := unpublished.Load(), time.Now().Add(5*time.Millisecond); unpublished.Load() < u+workers && time.Now().Before(until); {
					time.Sleep(10 * time.Microsecond)
				}
				sub := e.acquire(false)
				var visible atomic.Uint64
				var parkOnce atomic.Bool
				parked, release, done := make(chan struct{}), make(chan struct{}), make(chan uint64)
				go func() {
					// The test releases sub once it has read the tag word:
					// the next claimant of the slot would publish over it.
					done <- raise(e.update(sub, func(tx tm.Tx) uint64 {
						visible.CompareAndSwap(0, seqOf(e.curTx.Load()))
						if tx.(*uTx).s == sub && parkOnce.CompareAndSwap(false, true) {
							close(parked)
							<-release
						}
						tx.Store(tm.Root(0), tx.Load(tm.Root(0))+1)
						return 42
					}, modePublished))
				}()
				var res uint64
				select {
				case res = <-done: // the workers committed the operation before the submitter reached it
				case <-parked:
					parkedRounds++
					epoch.Add(1)
					_, tagW := e.resultWord(sub.id)
					want := sub.opTag // the submitter set it before it published and parked
					deadline := time.Now().Add(10 * time.Second)
					for {
						if v, _, ok := e.words[tagW].Snapshot(); ok && v == want {
							break
						}
						if time.Now().After(deadline) {
							t.Fatalf("round %d: the parked submitter's operation was not committed by the %d other goroutines", r, workers)
						}
						time.Sleep(10 * time.Microsecond)
					}
					epoch.Add(1)
					close(release)
					res = <-done
				}
				if res != 42 {
					t.Fatalf("round %d: published operation returned %d, want 42", r, res)
				}
				_, tagW := e.resultWord(sub.id)
				tag, seq, ok := e.words[tagW].Snapshot()
				if !ok || tag != sub.opTag {
					t.Fatalf("round %d: tag word holds %d, want the operation's tag %d", r, tag, sub.opTag)
				}
				v := visible.Load()
				if seq > v+uint64(workers+1)+1 {
					t.Errorf("round %d: operation first executed at sequence %d committed at %d: %d curTx advances, bound MaxThreads+1 = %d",
						r, v, seq, seq-v, workers+2)
				}
				maxAdv = max(maxAdv, seq-v)
				e.release(sub)
			}
			t.Logf("%d of %d rounds parked the submitter; at most %d curTx advances from first execution to commit", parkedRounds, rounds, maxAdv)
			if parkedRounds == 0 {
				t.Errorf("the submitter never parked in %d rounds: nothing ran beside a published operation", rounds)
			}
			if unpublished.Load() == 0 {
				t.Error("the workers never ran an unpublished round")
			}
			if n := violations.Load(); n != 0 {
				t.Errorf("%d unpublished rounds started while an operation was published", n)
			}
		})
	}
}

// TestUpdatePassesAParkedCommitter holds the helper's wait to its bound
// (§III-A, DESIGN.md §9). A committer is parked in its apply phase — after
// the commit CAS, at the first pwb of its word flushes, its help ticket
// claimed and its request open — through the device hook. A concurrent
// Update then loses the help ticket to it and waits for a close that never
// comes: its polls (none on one P) and its bounded yields run out, it helps
// the parked transaction closed and commits its own, all while the
// committer stays parked.
func TestUpdatePassesAParkedCommitter(t *testing.T) {
	for _, procs := range []int{1, 2} {
		for _, wf := range []bool{false, true} {
			t.Run(fmt.Sprintf("procs=%d/wf=%v", procs, wf), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				e, dev := newPTM(t, wf, pmem.StrictMode, 1)
				defer e.Close()
				if want := map[int]int{1: 0, 2: waitSpinPolls}[procs]; e.cm.waitSpin != want {
					t.Fatalf("waitSpin = %d at %d Ps, want %d", e.cm.waitSpin, procs, want)
				}
				x, y := tm.Root(0), tm.Root(1)
				e.Update(func(tx tm.Tx) uint64 { tx.Store(x, 1); return 0 })

				// The committer's events, in order: log pwb, drain, curTx
				// pwb, drain, then the apply phase's word pwbs.
				var drains atomic.Int32
				var once atomic.Bool
				parked, release := make(chan struct{}), make(chan struct{})
				sim := dev.(*pmem.Sim)
				sim.SetHook(func(ev pmem.Event) {
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
				defer sim.SetHook(nil)
				committed := make(chan struct{})
				go func() {
					defer close(committed)
					e.Update(func(tx tm.Tx) uint64 { tx.Store(x, 2); return 0 })
				}()
				<-parked
				parkedTx := e.curTx.Load()
				if !e.pending(parkedTx) {
					t.Fatal("the parked committer's transaction is not pending")
				}

				before := e.Stats()
				done := make(chan struct{})
				go func() {
					defer close(done)
					e.Update(func(tx tm.Tx) uint64 { tx.Store(y, tx.Load(x)+10); return 0 })
				}()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatal("an Update beside a parked committer did not commit: the wait blocked")
				}
				select {
				case <-committed:
					t.Fatal("the committer returned while parked")
				default:
				}
				d := e.Stats().Sub(before)
				if d.Helps < 1 || d.Commits != 1 {
					t.Errorf("Update beside a parked committer: %d helps, %d commits; want ≥ 1 and 1", d.Helps, d.Commits)
				}
				if e.pending(parkedTx) {
					t.Error("the parked committer's transaction is still pending")
				}
				if got := e.Read(func(tx tm.Tx) uint64 { return tx.Load(y) }); got != 12 {
					t.Errorf("y = %d, want 12 (the Update read the parked transaction's write)", got)
				}
				close(release)
				<-committed
			})
		}
	}
}

// TestAsyncUpdatePassesAParkedSubmitter: an AsyncUpdate stopped inside its
// own body stops no other AsyncUpdate. A's body stores a word and then
// blocks, on its first execution only; B's AsyncUpdate beside it must
// resolve within the deadline, at one P and two. Once A is released, each
// effect is present exactly once: A's blocked execution lost to B's commit
// and A's retry committed.
func TestAsyncUpdatePassesAParkedSubmitter(t *testing.T) {
	for _, procs := range []int{1, 2} {
		for _, wf := range []bool{false, true} {
			t.Run(fmt.Sprintf("procs=%d/wf=%v", procs, wf), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				e, _ := newPTM(t, wf, pmem.StrictMode, 1)
				defer e.Close()
				x, y := tm.Root(0), tm.Root(1)
				inc := func(tx tm.Tx, p tm.Ptr) { tx.Store(p, tx.Load(p)+1) }

				var first atomic.Bool
				parked, release := make(chan struct{}), make(chan struct{})
				var releaseOnce sync.Once
				unpark := func() { releaseOnce.Do(func() { close(release) }) }
				defer unpark()
				aDone := make(chan error, 1)
				go func() {
					_, err := e.AsyncUpdate(func(tx tm.Tx) uint64 {
						inc(tx, x)
						if first.CompareAndSwap(false, true) {
							close(parked)
							<-release
						}
						return 0
					}).Wait()
					aDone <- err
				}()
				<-parked

				bDone := make(chan error, 1)
				go func() {
					_, err := e.AsyncUpdate(func(tx tm.Tx) uint64 { inc(tx, y); return 0 }).Wait()
					bDone <- err
				}()
				select {
				case err := <-bDone:
					if err != nil {
						t.Fatalf("B's AsyncUpdate: %v", err)
					}
				case <-time.After(2 * time.Second):
					unpark()
					<-aDone
					t.Fatal("an AsyncUpdate beside a parked one did not resolve within 2 s")
				}
				select {
				case <-aDone:
					t.Fatal("A's AsyncUpdate returned while its body was parked")
				default:
				}

				unpark()
				select {
				case err := <-aDone:
					if err != nil {
						t.Fatalf("A's AsyncUpdate: %v", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("A's AsyncUpdate did not finish once released")
				}
				got := e.Read(func(tx tm.Tx) uint64 { return tx.Load(x)<<32 | tx.Load(y) })
				if got != 1<<32|1 {
					t.Fatalf("x<<32|y = %#x, want %#x: an effect is missing or doubled", got, uint64(1<<32|1))
				}
			})
		}
	}
}
