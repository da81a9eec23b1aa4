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

// fastEngines builds all four OneFile variants for a fast-path test.
func fastEngines(t *testing.T) []*Engine {
	t.Helper()
	lf := NewLF(smallOpts()...)
	wf := NewWF(smallOpts()...)
	plf, _ := newPTM(t, false, pmem.StrictMode, 1)
	pwf, _ := newPTM(t, true, pmem.StrictMode, 1)
	return []*Engine{lf, wf, plf, pwf}
}

func TestUpdateSmallBasic(t *testing.T) {
	for _, e := range fastEngines(t) {
		t.Run(e.Name(), func(t *testing.T) {
			// One-word commit.
			res, out := e.UpdateSmall(func(tx tm.Tx) uint64 {
				tx.Store(tm.Root(0), 7)
				return 7
			})
			if res != 7 || out != tm.SmallCommitted {
				t.Fatalf("1-word: res=%d out=%v, want 7, SmallCommitted", res, out)
			}
			// Two-word commit with read-your-writes and store replacement.
			res, out = e.UpdateSmall(func(tx tm.Tx) uint64 {
				tx.Store(tm.Root(0), 10)
				tx.Store(tm.Root(1), tx.Load(tm.Root(0))+1)
				tx.Store(tm.Root(0), 12)
				return tx.Load(tm.Root(1))
			})
			if res != 11 || out != tm.SmallCommitted {
				t.Fatalf("2-word: res=%d out=%v, want 11, SmallCommitted", res, out)
			}
			if v := e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) }); v != 12 {
				t.Fatalf("Root(0) = %d, want 12 (replaced store)", v)
			}
			if v := e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(1)) }); v != 11 {
				t.Fatalf("Root(1) = %d, want 11", v)
			}
			// Read-only body commits fast.
			res, out = e.UpdateSmall(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(1)) })
			if res != 11 || out != tm.SmallCommitted {
				t.Fatalf("read-only: res=%d out=%v, want 11, SmallCommitted", res, out)
			}
			// Three distinct stores: ineligible, runs on the full path.
			res, out = e.UpdateSmall(func(tx tm.Tx) uint64 {
				tx.Store(tm.Root(2), 1)
				tx.Store(tm.Root(3), 2)
				tx.Store(tm.Root(4), 3)
				return 99
			})
			if res != 99 || out != tm.SmallIneligible {
				t.Fatalf("3-word: res=%d out=%v, want 99, SmallIneligible", res, out)
			}
			if v := e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(4)) }); v != 3 {
				t.Fatalf("Root(4) = %d, want 3 (fallback committed)", v)
			}
			// Alloc/Free: ineligible, full path commits the allocation.
			res, out = e.UpdateSmall(func(tx tm.Tx) uint64 {
				p := tx.Alloc(4)
				tx.Store(p, 42)
				tx.Store(tm.Root(5), uint64(p))
				return uint64(p)
			})
			if out != tm.SmallIneligible || res == 0 {
				t.Fatalf("alloc body: res=%d out=%v, want ptr, SmallIneligible", res, out)
			}
			p := tm.Ptr(res)
			if v := e.Read(func(tx tm.Tx) uint64 { return tx.Load(p) }); v != 42 {
				t.Fatalf("alloc'd word = %d, want 42", v)
			}
			st := e.Stats()
			if st.FastAttempts == 0 || st.FastCommits == 0 || st.FastFallbacks == 0 {
				t.Fatalf("stats not maintained: %+v", st)
			}
			if st.FastAttempts != st.FastCommits+st.FastFallbacks {
				t.Fatalf("attempts %d != commits %d + fallbacks %d",
					st.FastAttempts, st.FastCommits, st.FastFallbacks)
			}
		})
	}
}

// TestUpdateSmallPTMCost asserts the headline persistence accounting: a solo
// small commit issues exactly 1 pwb + 1 pfence and no drains, on both PTM
// variants and in both durability modes.
func TestUpdateSmallPTMCost(t *testing.T) {
	for _, wf := range []bool{false, true} {
		for _, mode := range []pmem.Mode{pmem.StrictMode, pmem.RelaxedMode} {
			t.Run(fmt.Sprintf("wf=%v/mode=%d", wf, mode), func(t *testing.T) {
				e, _ := newPTM(t, wf, mode, 1)
				// Warm the path once (log region faults).
				e.UpdateSmall(func(tx tm.Tx) uint64 { tx.Store(tm.Root(0), 1); return 0 })
				before := e.Stats()
				const n = 10
				for i := uint64(0); i < n; i++ {
					v := i
					_, out := e.UpdateSmall(func(tx tm.Tx) uint64 {
						tx.Store(tm.Root(0), v)
						tx.Store(tm.Root(1), v*3)
						return 0
					})
					if out != tm.SmallCommitted {
						t.Fatalf("op %d: outcome %v, want SmallCommitted", i, out)
					}
				}
				d := e.Stats().Sub(before)
				if d.Pwb != n || d.Pfence != n || d.Pdrain != 0 {
					t.Fatalf("per-commit persistence: pwb=%d pfence=%d pdrain=%d over %d ops, want %d/%d/0",
						d.Pwb, d.Pfence, d.Pdrain, n, n, n)
				}
			})
		}
	}
}

// TestUpdateSmallCrossLine: two stores on different pair cache lines cannot
// share the fast path's single atomic flush on a PTM; the body must fall
// back as ineligible. The volatile engines take it fast.
func TestUpdateSmallCrossLine(t *testing.T) {
	// Root(0) is heap word 1; heap word 1+PairLineWords is on the next line.
	a, b := tm.Root(0), tm.Root(0)+tm.Ptr(pmem.PairLineWords)
	body := func(tx tm.Tx) uint64 {
		tx.Store(a, 5)
		tx.Store(b, 6)
		return 0
	}
	e, _ := newPTM(t, false, pmem.StrictMode, 1)
	if _, out := e.UpdateSmall(body); out != tm.SmallIneligible {
		t.Fatalf("PTM cross-line outcome = %v, want SmallIneligible", out)
	}
	if v := e.Read(func(tx tm.Tx) uint64 { return tx.Load(b) }); v != 6 {
		t.Fatalf("cross-line fallback lost the store: %d", v)
	}
	vol := NewLF(smallOpts()...)
	if _, out := vol.UpdateSmall(body); out != tm.SmallCommitted {
		t.Fatalf("volatile cross-line outcome = %v, want SmallCommitted", out)
	}
}

// TestFastRecoveryAdoption crashes after a chain of fast commits (whose
// curTx image is never flushed) and verifies attach adopts the durable word
// sequence: no data loss, recovery succeeds, the engine still commits.
func TestFastRecoveryAdoption(t *testing.T) {
	for _, wf := range []bool{false, true} {
		for _, mode := range []pmem.Mode{pmem.StrictMode, pmem.RelaxedMode} {
			t.Run(fmt.Sprintf("wf=%v/mode=%d", wf, mode), func(t *testing.T) {
				e, dev := newPTM(t, wf, mode, 7)
				// A full-path transaction anchors the durable curTx image...
				e.Update(func(tx tm.Tx) uint64 { tx.Store(tm.Root(9), 1); return 0 })
				// ...then a chain of fast commits runs the words ahead of it.
				for i := uint64(1); i <= 8; i++ {
					v := i
					_, out := e.UpdateSmall(func(tx tm.Tx) uint64 {
						tx.Store(tm.Root(0), v)
						tx.Store(tm.Root(1), v*2)
						return 0
					})
					if out != tm.SmallCommitted {
						t.Fatalf("fast op %d: outcome %v", i, out)
					}
				}
				imgCur, _ := dev.ImagePair(e.curTxImg)
				liveCur := e.curTx.Load()
				if seqOf(imgCur) >= seqOf(liveCur) {
					t.Fatalf("precondition: image seq %d should lag live seq %d",
						seqOf(imgCur), seqOf(liveCur))
				}
				dev.Crash()
				r, err := newPTMOn(dev, wf, true)
				if err != nil {
					t.Fatalf("attach after fast chain: %v", err)
				}
				a := r.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) })
				b := r.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(1)) })
				if a != 8 || b != 16 {
					t.Fatalf("recovered (%d,%d), want (8,16)", a, b)
				}
				if seqOf(r.curTx.Load()) < seqOf(liveCur) {
					t.Fatalf("adopted curTx seq %d below pre-crash %d",
						seqOf(r.curTx.Load()), seqOf(liveCur))
				}
				// Liveness: both paths still commit after adoption.
				r.Update(func(tx tm.Tx) uint64 { tx.Store(tm.Root(2), 0xCAFE); return 0 })
				if _, out := r.UpdateSmall(func(tx tm.Tx) uint64 { tx.Store(tm.Root(3), 0xF00D); return 0 }); out != tm.SmallCommitted {
					t.Fatalf("post-recovery fast commit: outcome %v", out)
				}
				if v := r.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(3)) }); v != 0xF00D {
					t.Fatal("post-recovery fast commit lost")
				}
			})
		}
	}
}

// TestUpdateSmallContended hammers overlapping words through UpdateSmall,
// Update and Read concurrently on all four variants: the torn-snapshot
// check is the two-word invariant y == 2x, and the counters must reconcile.
// Run with -race in CI (fastpath-smoke).
func TestUpdateSmallContended(t *testing.T) {
	for _, e := range fastEngines(t) {
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
							// Full-path updates keep the helper machinery hot.
							e.Update(func(tx tm.Tx) uint64 {
								v := tx.Load(tm.Root(0)) + 1
								tx.Store(tm.Root(0), v)
								tx.Store(tm.Root(1), 2*v)
								tx.Store(tm.Root(2), tx.Load(tm.Root(2))+1)
								return 0
							})
							total.Add(1)
						default:
							e.UpdateSmall(func(tx tm.Tx) uint64 {
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
			st := e.Stats()
			if st.FastAttempts != st.FastCommits+st.FastFallbacks {
				t.Fatalf("attempts %d != commits %d + fallbacks %d",
					st.FastAttempts, st.FastCommits, st.FastFallbacks)
			}
			if got := e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) }); got != total.Load() {
				t.Fatalf("Root(0) = %d, want %d lost-update-free increments", got, total.Load())
			}
			if v := e.HEViolations(); v != 0 {
				t.Fatalf("hazard-era violations: %d", v)
			}
		})
	}
}

// TestAsyncUpdateSoloFast: an idle combiner routes small solo submissions
// through the fast path on every variant (including wait-free, which had no
// solo path before), and panics/oversize bodies keep their semantics.
func TestAsyncUpdateSoloFast(t *testing.T) {
	for _, e := range fastEngines(t) {
		t.Run(e.Name(), func(t *testing.T) {
			fut := e.AsyncUpdate(func(tx tm.Tx) uint64 {
				tx.Store(tm.Root(0), 21)
				return 21
			})
			if v, err := fut.Wait(); err != nil || v != 21 {
				t.Fatalf("solo small: (%d, %v), want (21, nil)", v, err)
			}
			if st := e.Stats(); st.FastCommits == 0 {
				t.Fatalf("AsyncUpdate solo did not ride the fast path: %+v", st)
			}
			// A large body still commits (LF: solo slow path; WF: queue path).
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

// TestUpdateSmallAllocFree: a steady-state fast-path commit performs no
// heap allocations (the regression guard the containers rely on) — beyond,
// on the pointer-emulated build, the one fresh pair its DCAS installs.
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
		e.UpdateSmall(body)
	}
	avg := testing.AllocsPerRun(500, func() {
		if _, out := e.UpdateSmall(body); out != tm.SmallCommitted {
			t.Fatalf("outcome %v", out)
		}
	})
	if avg != want {
		t.Fatalf("UpdateSmall allocs/op = %v, want %v", avg, want)
	}
}
