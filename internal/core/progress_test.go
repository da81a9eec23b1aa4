package core

import (
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
					done <- e.update(sub, func(tx tm.Tx) uint64 {
						visible.CompareAndSwap(0, seqOf(e.curTx.Load()))
						if tx.(*uTx).s == sub && parkOnce.CompareAndSwap(false, true) {
							close(parked)
							<-release
						}
						tx.Store(tm.Root(0), tx.Load(tm.Root(0))+1)
						return 42
					}, modePublished)
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
			if n := e.HEViolations(); n != 0 {
				t.Errorf("hazard-era violations: %d", n)
			}
		})
	}
}
