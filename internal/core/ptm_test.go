package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"onefile/internal/pmem"
	"onefile/internal/talloc"
	"onefile/internal/tm"
)

func newPTM(t *testing.T, waitFree bool, mode pmem.Mode, seed int64) (*Engine, pmem.Device) {
	t.Helper()
	dev, err := pmem.New(DeviceConfig(mode, seed, smallOpts()...))
	if err != nil {
		t.Fatalf("pmem.New: %v", err)
	}
	e, err := newPTMOn(dev, waitFree, false)
	if err != nil {
		t.Fatalf("NewPersistent: %v", err)
	}
	return e, dev
}

func newPTMOn(dev pmem.Device, waitFree, attach bool) (*Engine, error) {
	if waitFree {
		return NewPersistentWF(dev, attach, smallOpts()...)
	}
	return NewPersistentLF(dev, attach, smallOpts()...)
}

func TestPTMBasicDurability(t *testing.T) {
	for _, wf := range []bool{false, true} {
		for _, mode := range []pmem.Mode{pmem.StrictMode, pmem.RelaxedMode} {
			name := fmt.Sprintf("wf=%v/mode=%d", wf, mode)
			t.Run(name, func(t *testing.T) {
				e, dev := newPTM(t, wf, mode, 1)
				for i := uint64(1); i <= 20; i++ {
					v := i
					e.Update(func(tx tm.Tx) uint64 {
						tx.Store(tm.Root(0), v)
						tx.Store(tm.Root(1), v*2)
						return 0
					})
				}
				dev.Crash()
				r, err := newPTMOn(dev, wf, true)
				if err != nil {
					t.Fatalf("attach: %v", err)
				}
				a := r.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) })
				b := r.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(1)) })
				if a != 20 || b != 40 {
					t.Fatalf("recovered (%d,%d), want (20,40)", a, b)
				}
			})
		}
	}
}

func TestPTMAttachUnformatted(t *testing.T) {
	dev, err := pmem.New(DeviceConfig(pmem.StrictMode, 0, smallOpts()...))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPersistentLF(dev, true, smallOpts()...); !errors.Is(err, ErrNotFormatted) {
		t.Fatalf("attach to fresh device: err = %v, want ErrNotFormatted", err)
	}
}

// errCrashPoint simulates process death at an exact persistence event.
var errCrashPoint = errors.New("injected crash")

// runUntilCrash runs fn with the device configured to die at the k-th
// persistence event; it reports whether fn completed (no crash reached).
func runUntilCrash(dev pmem.Device, k int, fn func()) (completed bool) {
	n := 0
	dev.SetHook(func(pmem.Event) {
		n++
		if n == k {
			panic(errCrashPoint)
		}
	})
	defer dev.SetHook(nil)
	defer func() {
		if r := recover(); r != nil {
			if r != errCrashPoint {
				panic(r)
			}
		}
	}()
	fn()
	return true
}

// TestPTMCrashPointSweep is the central durability test: a transaction
// writing an invariant-linked pair of words is crashed at every possible
// persistence event. After recovery the pair must be all-or-nothing, and
// if the update call returned before the crash, it must be the new state.
func TestPTMCrashPointSweep(t *testing.T) {
	for _, wf := range []bool{false, true} {
		for _, mode := range []pmem.Mode{pmem.StrictMode, pmem.RelaxedMode} {
			t.Run(fmt.Sprintf("wf=%v/mode=%d", wf, mode), func(t *testing.T) {
				for k := 1; k < 200; k++ {
					e, dev := newPTM(t, wf, mode, int64(k))
					// Transaction 1 establishes the old state (not crashed).
					e.Update(func(tx tm.Tx) uint64 {
						tx.Store(tm.Root(0), 100)
						tx.Store(tm.Root(1), 200)
						return 0
					})
					// Transaction 2 is crashed at persistence event k.
					acked := runUntilCrash(dev, k, func() {
						e.Update(func(tx tm.Tx) uint64 {
							tx.Store(tm.Root(0), 111)
							tx.Store(tm.Root(1), 222)
							return 0
						})
					})
					dev.Crash()
					r, err := newPTMOn(dev, wf, true)
					if err != nil {
						t.Fatalf("k=%d: attach: %v", k, err)
					}
					a := r.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) })
					b := r.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(1)) })
					oldState := a == 100 && b == 200
					newState := a == 111 && b == 222
					if !oldState && !newState {
						t.Fatalf("k=%d acked=%v: recovered torn state (%d,%d)", k, acked, a, b)
					}
					if acked && !newState {
						t.Fatalf("k=%d: acknowledged transaction lost", k)
					}
					if acked {
						return // crash point beyond the tx: sweep done
					}
				}
				t.Fatal("sweep never completed a transaction; raise the bound")
			})
		}
	}
}

// TestPTMSlotReuseStaleLog pins the redo-log stamps (engine.go): one slot
// commits back to back, so the second transaction writes its log over the
// first one's while the slot's DURABLE request still reads open. A crash
// that persists some of the new log's lines but not its first must not make
// recovery replay the first transaction with the second one's stores. Both
// transactions span several log lines; the relaxed device decides per seed
// which buffered lines survive. Without the stamps the sweep recovers a torn
// state within its first few seeds. The recoveries that skip such entries
// say so in their report.
func TestPTMSlotReuseStaleLog(t *testing.T) {
	const words = 12
	opts := append(smallOpts(), tm.WithMaxThreads(1))
	for _, wf := range []bool{false, true} {
		t.Run(fmt.Sprintf("wf=%v", wf), func(t *testing.T) {
			skipped := 0
			for seed := int64(1); seed <= 48; seed++ {
				for k := 1; ; k++ {
					dev, err := pmem.New(DeviceConfig(pmem.RelaxedMode, seed, opts...))
					if err != nil {
						t.Fatal(err)
					}
					open := NewPersistentLF
					if wf {
						open = NewPersistentWF
					}
					e, err := open(dev, false, opts...)
					if err != nil {
						t.Fatal(err)
					}
					write := func(base int, v uint64) func(tm.Tx) uint64 {
						return func(tx tm.Tx) uint64 {
							for i := 0; i < words; i++ {
								tx.Store(tm.Root(base+i), v)
							}
							return 0
						}
					}
					e.Update(write(0, 1))
					acked := runUntilCrash(dev, k, func() { e.Update(write(words, 2)) })
					dev.Crash()
					r, err := open(dev, true, opts...)
					if err != nil {
						t.Fatalf("seed=%d k=%d: attach: %v", seed, k, err)
					}
					skipped += r.LastRecovery().StaleLogEntriesSkipped
					var first, second int
					r.Read(func(tx tm.Tx) uint64 {
						first, second = 0, 0
						for i := 0; i < words; i++ {
							first += int(tx.Load(tm.Root(i)))
							second += int(tx.Load(tm.Root(words+i))) / 2
						}
						return 0
					})
					if first != words || (second != 0 && second != words) || (acked && second != words) {
						t.Fatalf("seed=%d k=%d acked=%v: recovered %d/%d words of the first transaction and %d/%d of the second",
							seed, k, acked, first, words, second, words)
					}
					if acked {
						break
					}
				}
			}
			if skipped == 0 {
				t.Error("no recovery of the sweep reported a stale log entry skipped")
			}
		})
	}
}

// TestPTMCrashDuringAllocSweep crashes a transaction that allocates,
// links, and frees blocks; after recovery the allocator must audit clean
// (no leaks, no corruption) in both outcomes.
func TestPTMCrashDuringAllocSweep(t *testing.T) {
	for _, mode := range []pmem.Mode{pmem.StrictMode, pmem.RelaxedMode} {
		t.Run(fmt.Sprintf("mode=%d", mode), func(t *testing.T) {
			for k := 1; k < 300; k++ {
				e, dev := newPTM(t, false, mode, int64(k*7))
				e.Update(func(tx tm.Tx) uint64 {
					p := tx.Alloc(4)
					tx.Store(p, 1)
					tx.Store(tm.Root(2), uint64(p))
					return 0
				})
				acked := runUntilCrash(dev, k, func() {
					e.Update(func(tx tm.Tx) uint64 {
						old := tm.Ptr(tx.Load(tm.Root(2)))
						tx.Free(old)
						p := tx.Alloc(4)
						tx.Store(p, 2)
						tx.Store(tm.Root(2), uint64(p))
						return 0
					})
				})
				dev.Crash()
				r, err := newPTMOn(dev, false, true)
				if err != nil {
					t.Fatalf("k=%d: attach: %v", k, err)
				}
				r.Read(func(tx tm.Tx) uint64 {
					p := tm.Ptr(tx.Load(tm.Root(2)))
					v := tx.Load(p)
					if v != 1 && v != 2 {
						t.Fatalf("k=%d: root points at garbage (%d)", k, v)
					}
					if _, allocated, ok := talloc.BlockClass(tx, p); !ok || !allocated {
						t.Fatalf("k=%d: root block not allocated", k)
					}
					if _, _, ok := talloc.Audit(tx, r.DynBase()); !ok {
						t.Fatalf("k=%d: allocator audit failed", k)
					}
					return 0
				})
				if acked {
					return
				}
			}
			t.Fatal("sweep never completed a transaction; raise the bound")
		})
	}
}

// TestPTMConcurrentThenCrash runs concurrent workers, crashes, recovers,
// and checks the counter total matches the number of acknowledged commits.
func TestPTMConcurrentThenCrash(t *testing.T) {
	for _, wf := range []bool{false, true} {
		t.Run(fmt.Sprintf("wf=%v", wf), func(t *testing.T) {
			e, dev := newPTM(t, wf, pmem.RelaxedMode, 99)
			const workers, per = 6, 150
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						e.Update(func(tx tm.Tx) uint64 {
							tx.Store(tm.Root(0), tx.Load(tm.Root(0))+1)
							return 0
						})
					}
				}()
			}
			wg.Wait()
			dev.Crash()
			r, err := newPTMOn(dev, wf, true)
			if err != nil {
				t.Fatalf("attach: %v", err)
			}
			got := r.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) })
			if got != workers*per {
				t.Fatalf("recovered counter = %d, want %d", got, workers*per)
			}
		})
	}
}

// TestPTMNullRecovery sweeps crash points through a three-word transaction
// and asserts the recovered state is always all-or-nothing: once curTx is
// durable, null recovery (helping during attach) must deliver every word.
func TestPTMNullRecovery(t *testing.T) {
	for k := 1; ; k++ {
		e3, dev3 := newPTM(t, false, pmem.StrictMode, int64(k))
		acked := runUntilCrash(dev3, k, func() {
			e3.Update(func(tx tm.Tx) uint64 {
				tx.Store(tm.Root(0), 7)
				tx.Store(tm.Root(1), 8)
				tx.Store(tm.Root(2), 9)
				return 0
			})
		})
		dev3.Crash()
		r, err := newPTMOn(dev3, false, true)
		if err != nil {
			t.Fatalf("k=%d attach: %v", k, err)
		}
		// If curTx became durable, null recovery must deliver all three.
		sum := r.Read(func(tx tm.Tx) uint64 {
			return tx.Load(tm.Root(0)) + tx.Load(tm.Root(1)) + tx.Load(tm.Root(2))
		})
		if sum != 0 && sum != 24 {
			t.Fatalf("k=%d: partial recovery, sum=%d", k, sum)
		}
		if acked {
			if sum != 24 {
				t.Fatalf("k=%d: acked but lost", k)
			}
			break
		}
	}
}

// TestPTMKilledWorkerIsHelped abandons a worker mid-apply (after its commit
// CAS) and checks that another thread completes the transaction — the
// lock-free helping property that underpins null recovery.
func TestPTMKilledWorkerIsHelped(t *testing.T) {
	e, dev := newPTM(t, false, pmem.StrictMode, 3)
	// Kill the worker at its post-commit curTx flush: committed, applied
	// nothing yet.
	committed := make(chan struct{})
	go func() {
		defer func() {
			_ = recover()
			close(committed)
		}()
		hookN := 0
		dev.SetHook(func(ev pmem.Event) {
			hookN++
			if hookN == 3 { // log pwb, commit drain, curTx pwb → die here
				dev.SetHook(nil)
				panic(errCrashPoint)
			}
		})
		e.Update(func(tx tm.Tx) uint64 {
			tx.Store(tm.Root(0), 42)
			return 0
		})
	}()
	<-committed
	dev.SetHook(nil)
	// If the dead worker managed to commit, a reader must observe 42 (it
	// helps apply); if it died pre-commit, 0. Never anything else.
	got := e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) })
	if got != 0 && got != 42 {
		t.Fatalf("observed %d, want 0 or 42", got)
	}
	// A subsequent writer must be able to make progress regardless.
	e.Update(func(tx tm.Tx) uint64 { tx.Store(tm.Root(1), 1); return 0 })
	if v := e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(1)) }); v != 1 {
		t.Fatalf("engine wedged after worker death: root1=%d", v)
	}
}

// TestAsyncUpdateMachineryPanicEscapes: AsyncUpdate delivers a body's
// failure as its future's error, and nothing else. A panic of the
// persistence machinery — here an injected crash at every persistence event
// of one AsyncUpdate — reaches the caller as a panic, as it does from
// Update, and recovery finds the transaction all or nothing.
func TestAsyncUpdateMachineryPanicEscapes(t *testing.T) {
	for _, wf := range []bool{false, true} {
		for _, mode := range []pmem.Mode{pmem.StrictMode, pmem.RelaxedMode} {
			t.Run(fmt.Sprintf("wf=%v/mode=%d", wf, mode), func(t *testing.T) {
				for k := 1; k < 200; k++ {
					e, dev := newPTM(t, wf, mode, int64(k))
					e.Update(func(tx tm.Tx) uint64 {
						tx.Store(tm.Root(0), 100)
						tx.Store(crossLineRoot, 200)
						return 0
					})
					acked := runUntilCrash(dev, k, func() {
						_, err := e.AsyncUpdate(func(tx tm.Tx) uint64 {
							tx.Store(tm.Root(0), 111)
							tx.Store(crossLineRoot, 222)
							return 0
						}).Wait()
						if err != nil {
							t.Fatalf("k=%d: the machinery's panic became the future's error: %v", k, err)
						}
					})
					dev.Crash()
					r, err := newPTMOn(dev, wf, true)
					if err != nil {
						t.Fatalf("k=%d: attach: %v", k, err)
					}
					a := r.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) })
					b := r.Read(func(tx tm.Tx) uint64 { return tx.Load(crossLineRoot) })
					if !(a == 100 && b == 200) && !(a == 111 && b == 222) {
						t.Fatalf("k=%d acked=%v: recovered torn state (%d,%d)", k, acked, a, b)
					}
					if acked {
						if a != 111 {
							t.Fatalf("k=%d: acknowledged AsyncUpdate lost", k)
						}
						return // crash point beyond the transaction: sweep done
					}
				}
				t.Fatal("sweep never completed a transaction; raise the bound")
			})
		}
	}
}

// crossLineRoot is a root on another pair cache line than Root(0), so a
// transaction storing both is persisted by two pwbs.
var crossLineRoot = tm.Root(0) + pmem.PairLineWords

// failingBacking is a device backing whose Sync fails once armed.
type failingBacking struct{ armed atomic.Bool }

var errBackingLost = errors.New("backing lost")

func (b *failingBacking) Dirtied(pmem.Region, int, int) {}

func (b *failingBacking) Sync() error {
	if b.armed.Load() {
		return errBackingLost
	}
	return nil
}

// TestAsyncUpdateSyncErrorEscapes: a backing that cannot sync makes the
// commit's ordering point panic with a *pmem.SyncError, and that panic
// reaches AsyncUpdate's caller, never its future.
func TestAsyncUpdateSyncErrorEscapes(t *testing.T) {
	for _, wf := range []bool{false, true} {
		t.Run(fmt.Sprintf("wf=%v", wf), func(t *testing.T) {
			cfg := DeviceConfig(pmem.StrictMode, 1, smallOpts()...)
			backing := &failingBacking{}
			dev, err := pmem.NewOver(cfg, make([]uint64, cfg.RawWords), make([]uint64, 2*cfg.PairWords), backing, true)
			if err != nil {
				t.Fatal(err)
			}
			e, err := newPTMOn(dev, wf, false)
			if err != nil {
				t.Fatal(err)
			}
			backing.armed.Store(true)
			defer func() {
				err, _ := recover().(error)
				var se *pmem.SyncError
				if !errors.As(err, &se) || !errors.Is(err, errBackingLost) {
					t.Fatalf("recovered %v, want a *pmem.SyncError wrapping %v", err, errBackingLost)
				}
			}()
			_, err = e.AsyncUpdate(func(tx tm.Tx) uint64 { tx.Store(tm.Root(0), 1); return 0 }).Wait()
			t.Fatalf("AsyncUpdate returned (future error %v): a lost sync was reported through the future", err)
		})
	}
}
