package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"onefile/internal/pmem"
	"onefile/internal/tm"
)

// TestOversubscribedWorkers floods every engine variant with 4×GOMAXPROCS
// workers (at least 8) — the oversubscription regime the contention layer
// exists for — and asserts the two properties that a helping storm or a
// lost parking wakeup would break:
//
//   - completion: every worker finishes its quota (no stranded acquirer);
//   - exactly-once: a shared counter ends at workers×perWorker, so no
//     operation ran twice (a deduplicated-but-dropped apply phase or a
//     doubly-executed wait-free operation would show up here), and on the
//     wait-free engines each slot's result tag word matches the slot's
//     last published tag at quiescence.
//
// CI runs this under the race detector at GOMAXPROCS=1.
func TestOversubscribedWorkers(t *testing.T) {
	workers := 4 * runtime.GOMAXPROCS(0)
	if workers < 8 {
		workers = 8
	}
	const perWorker = 200
	for _, tc := range []struct {
		name       string
		mk         func(t *testing.T) *Engine
		waitFree   bool
		persistent bool
	}{
		{"OF-LF", func(t *testing.T) *Engine { return NewLF(smallOpts()...) }, false, false},
		{"OF-WF", func(t *testing.T) *Engine { return NewWF(smallOpts()...) }, true, false},
		{"OF-LF-PTM", func(t *testing.T) *Engine { e, _ := newPTM(t, false, pmem.StrictMode, 1); return e }, false, true},
		{"OF-WF-PTM", func(t *testing.T) *Engine { e, _ := newPTM(t, true, pmem.StrictMode, 1); return e }, true, true},
	} {
		t.Run(fmt.Sprintf("%s/w=%d", tc.name, workers), func(t *testing.T) {
			e := tc.mk(t)
			defer e.Close()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(id uint64) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						e.Update(func(tx tm.Tx) uint64 {
							tx.Store(tm.Root(0), tx.Load(tm.Root(0))+1)
							return id
						})
						if i%16 == 0 {
							e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) })
						}
					}
				}(uint64(w + 1))
			}
			wg.Wait()
			got := e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) })
			want := uint64(workers * perWorker)
			if got != want {
				t.Fatalf("counter = %d, want %d (some operation ran zero or twice)", got, want)
			}
			if tc.waitFree {
				// Quiescent exactly-once witness: each slot's last published
				// operation tag must be the one recorded in its result tag
				// word (resultWord), never ahead or behind.
				for i := range e.slots {
					_, tagW := e.resultWord(i)
					if got, _ := e.words[tagW].Load(); got != e.slots[i].opTag {
						t.Fatalf("slot %d: result tag word %d != last op tag %d",
							i, got, e.slots[i].opTag)
					}
				}
			}
		})
	}
}
