package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"onefile/internal/dcas"
	"onefile/internal/pmem"
	"onefile/internal/tm"
)

// Small update transactions — one or two words, the steady state of a
// counter or a pointer swing — on all four variants: write-set semantics,
// persistence cost, contention, the solo AsyncUpdate, allocations.

// TestUpdateSmallBasic: small bodies commit with the write-set's semantics —
// read-your-writes, a replaced store, a read-only body, an allocation.
func TestUpdateSmallBasic(t *testing.T) {
	for _, e := range combineEngines(t) {
		t.Run(e.Name(), func(t *testing.T) {
			// One-word commit.
			if res := e.Update(func(tx tm.Tx) uint64 {
				tx.Store(tm.Root(0), 7)
				return 7
			}); res != 7 {
				t.Fatalf("1-word: res=%d, want 7", res)
			}
			// Two-word commit with read-your-writes and store replacement.
			if res := e.Update(func(tx tm.Tx) uint64 {
				tx.Store(tm.Root(0), 10)
				tx.Store(tm.Root(1), tx.Load(tm.Root(0))+1)
				tx.Store(tm.Root(0), 12)
				return tx.Load(tm.Root(1))
			}); res != 11 {
				t.Fatalf("2-word: res=%d, want 11", res)
			}
			if v := e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) }); v != 12 {
				t.Fatalf("Root(0) = %d, want 12 (replaced store)", v)
			}
			if v := e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(1)) }); v != 11 {
				t.Fatalf("Root(1) = %d, want 11", v)
			}
			// A read-only body returns its snapshot.
			if res := e.Update(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(1)) }); res != 11 {
				t.Fatalf("read-only: res=%d, want 11", res)
			}
			// Three distinct stores.
			if res := e.Update(func(tx tm.Tx) uint64 {
				tx.Store(tm.Root(2), 1)
				tx.Store(tm.Root(3), 2)
				tx.Store(tm.Root(4), 3)
				return 99
			}); res != 99 {
				t.Fatalf("3-word: res=%d, want 99", res)
			}
			if v := e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(4)) }); v != 3 {
				t.Fatalf("Root(4) = %d, want 3", v)
			}
			// Alloc: the allocation commits with the stores into it.
			p := tm.Ptr(e.Update(func(tx tm.Tx) uint64 {
				p := tx.Alloc(4)
				tx.Store(p, 42)
				tx.Store(tm.Root(5), uint64(p))
				return uint64(p)
			}))
			if p == 0 {
				t.Fatal("alloc body returned a nil pointer")
			}
			if v := e.Read(func(tx tm.Tx) uint64 { return tx.Load(p) }); v != 42 {
				t.Fatalf("alloc'd word = %d, want 42", v)
			}
		})
	}
}

// TestUpdateSmallPTMCost asserts the persistence accounting of the smallest
// update there is: a solo two-word, one-line commit costs the ten steps'
// three pwbs (log line, curTx, the modified line) and three drains, on both
// PTM variants and in both durability modes — nothing is cheaper than that.
// A lone wait-free Update is an unpublished round and costs the same; the
// published path adds the aggregate's two result words: a second log line
// and a second heap line.
func TestUpdateSmallPTMCost(t *testing.T) {
	for _, wf := range []bool{false, true} {
		for _, mode := range []pmem.Mode{pmem.StrictMode, pmem.RelaxedMode} {
			t.Run(fmt.Sprintf("wf=%v/mode=%d", wf, mode), func(t *testing.T) {
				e, _ := newPTM(t, wf, mode, 1)
				cost := func(update func(func(tm.Tx) uint64) uint64, wantPwb uint64) {
					t.Helper()
					// Warm the path once (log region faults).
					update(func(tx tm.Tx) uint64 { tx.Store(tm.Root(0), 1); return 0 })
					before := e.Stats()
					const n = 10
					for i := uint64(0); i < n; i++ {
						v := i
						update(func(tx tm.Tx) uint64 {
							tx.Store(tm.Root(0), v)
							tx.Store(tm.Root(1), v*3)
							return 0
						})
					}
					d := e.Stats().Sub(before)
					if d.Commits != n || d.Pwb != wantPwb*n || d.Pdrain != 3*n || d.Pfence != 0 {
						t.Fatalf("over %d ops: commits=%d pwb=%d pdrain=%d pfence=%d, want %d/%d/%d/0",
							n, d.Commits, d.Pwb, d.Pdrain, d.Pfence, n, wantPwb*n, 3*n)
					}
				}
				cost(e.Update, 3)
				if wf {
					cost(e.UpdatePublished, 5)
				}
			})
		}
	}
}

// TestUpdateSmallContended hammers overlapping words with two- and
// three-word updates and reads concurrently on all four variants: the
// torn-snapshot check is the two-word invariant y == 2x, and no increment
// may be lost.
func TestUpdateSmallContended(t *testing.T) {
	for _, e := range combineEngines(t) {
		t.Run(e.Name(), func(t *testing.T) {
			const (
				workers = 6
				opsPer  = 300
			)
			var total atomic.Uint64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < opsPer; i++ {
						switch {
						case w%3 == 2:
							// Readers validate the snapshot invariant.
							x := e.Read(func(tx tm.Tx) uint64 {
								a := tx.Load(tm.Root(0))
								b := tx.Load(tm.Root(1))
								return b - 2*a
							})
							if x != 0 {
								t.Errorf("torn snapshot: y-2x = %d", x)
								return
							}
						case w%3 == 1:
							e.Update(func(tx tm.Tx) uint64 {
								v := tx.Load(tm.Root(0)) + 1
								tx.Store(tm.Root(0), v)
								tx.Store(tm.Root(1), 2*v)
								tx.Store(tm.Root(2), tx.Load(tm.Root(2))+1)
								return 0
							})
							total.Add(1)
						default:
							e.Update(func(tx tm.Tx) uint64 {
								v := tx.Load(tm.Root(0)) + 1
								tx.Store(tm.Root(0), v)
								tx.Store(tm.Root(1), 2*v)
								return 0
							})
							total.Add(1)
						}
					}
				}(w)
			}
			wg.Wait()
			if got := e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) }); got != total.Load() {
				t.Fatalf("Root(0) = %d, want %d lost-update-free increments", got, total.Load())
			}
			if v := e.HEViolations(); v != 0 {
				t.Fatalf("hazard-era violations: %d", v)
			}
		})
	}
}

// TestAsyncUpdateSoloFast: the caller runs its own AsyncUpdate on every
// variant — small and large bodies commit, and a panic is the future's
// error and leaves nothing behind.
func TestAsyncUpdateSoloFast(t *testing.T) {
	for _, e := range combineEngines(t) {
		t.Run(e.Name(), func(t *testing.T) {
			fut := e.AsyncUpdate(func(tx tm.Tx) uint64 {
				tx.Store(tm.Root(0), 21)
				return 21
			})
			if v, err := fut.Wait(); err != nil || v != 21 {
				t.Fatalf("solo small: (%d, %v), want (21, nil)", v, err)
			}
			// A larger body commits the same way.
			fut = e.AsyncUpdate(func(tx tm.Tx) uint64 {
				for i := 0; i < 5; i++ {
					tx.Store(tm.Root(i), uint64(i))
				}
				return 5
			})
			if v, err := fut.Wait(); err != nil || v != 5 {
				t.Fatalf("solo large: (%d, %v), want (5, nil)", v, err)
			}
			// A panicking body resolves the future with the panic as error.
			fut = e.AsyncUpdate(func(tx tm.Tx) uint64 { panic("boom") })
			if _, err := fut.Wait(); err == nil {
				t.Fatal("panicking solo body: future resolved without error")
			}
			// Nothing from the panicking body leaked.
			if v := e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) }); v != 0 {
				t.Fatalf("Root(0) = %d after panic body, want 0", v)
			}
		})
	}
}

// TestUpdateSmallAllocFree: a steady-state one-word update on the lock-free
// engine performs no heap allocations (the regression guard the containers
// rely on) — beyond, on the pointer-emulated build, the one fresh pair its
// DCAS installs.
func TestUpdateSmallAllocFree(t *testing.T) {
	want := 0.0
	if !dcas.Native {
		want = 1
	}
	e := NewLF(smallOpts()...)
	body := func(tx tm.Tx) uint64 {
		tx.Store(tm.Root(0), tx.Load(tm.Root(0))+1)
		return 0
	}
	// Warm up: slot claim, log region.
	for i := 0; i < 1000; i++ {
		e.Update(body)
	}
	if avg := testing.AllocsPerRun(500, func() { e.Update(body) }); avg != want {
		t.Fatalf("Update allocs/op = %v, want %v", avg, want)
	}
}
