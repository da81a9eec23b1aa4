package core

import (
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"onefile/internal/dcas"
	"onefile/internal/pmem"
	"onefile/internal/tm"
)

// loadNBlock allocates a tm.MaxLoadN-word block on e holding 1, 2, … and
// returns it.
func loadNBlock(e *Engine) tm.Ptr {
	return tm.Ptr(e.Update(func(tx tm.Tx) uint64 {
		p := tx.Alloc(tm.MaxLoadN)
		for i := 0; i < tm.MaxLoadN; i++ {
			tx.Store(p+tm.Ptr(i), uint64(i+1))
		}
		return uint64(p)
	}))
}

// TestLoadNValidatesEveryWord holds the read handle's LoadN to Load's abort
// rule, word by word: for each position j of a tm.MaxLoadN-word range, a
// Read body parks before its LoadN while an Update commits to word p+j. The
// body must then abort and run again, and what it finally returns must be
// what tm.MaxLoadN separate Loads read afterwards. A LoadN that skipped the
// sequence check of any one word would return the new word on the first run
// without retrying.
func TestLoadNValidatesEveryWord(t *testing.T) {
	for _, wf := range []bool{false, true} {
		e, _ := newPTM(t, wf, pmem.StrictMode, 1)
		t.Run(e.Name(), func(t *testing.T) {
			defer e.Close()
			p := loadNBlock(e)
			for j := 0; j < tm.MaxLoadN; j++ {
				var runs atomic.Int32
				parked, release := make(chan struct{}), make(chan struct{})
				got := make(chan []uint64)
				go func() {
					got <- tm.Collect(e.Read, func(tx tm.Tx) []uint64 {
						if runs.Add(1) == 1 {
							close(parked)
							<-release
						}
						rl, ok := tx.(tm.RangeLoader)
						if !ok {
							return nil
						}
						return slices.Clone(rl.LoadN(p, tm.MaxLoadN))
					})
				}()
				<-parked
				e.Update(func(tx tm.Tx) uint64 {
					tx.Store(p+tm.Ptr(j), 1000+uint64(j))
					return 0
				})
				close(release)
				res := <-got

				want := tm.Collect(e.Read, func(tx tm.Tx) []uint64 {
					w := make([]uint64, tm.MaxLoadN)
					for i := range w {
						w[i] = tx.Load(p + tm.Ptr(i))
					}
					return w
				})
				if n := runs.Load(); n < 2 {
					t.Errorf("word %d: the body ran %d time(s) beside a commit to the word; LoadN must abort it", j, n)
				}
				if !slices.Equal(res, want) {
					t.Errorf("word %d: LoadN read %v, Load reads %v", j, res, want)
				}
			}
		})
	}
}

// TestLoadNRangeChecks holds LoadN to Load's bounds: a range that starts at
// the nil word, ends at or past the heap's end, or is empty or longer than
// tm.MaxLoadN panics out of Read as an out-of-range Load does, and the
// engine stays usable. The last tm.MaxLoadN words of the heap are a valid
// range.
func TestLoadNRangeChecks(t *testing.T) {
	for _, wf := range []bool{false, true} {
		e, _ := newPTM(t, wf, pmem.StrictMode, 1)
		t.Run(e.Name(), func(t *testing.T) {
			defer e.Close()
			heap := tm.Ptr(e.cfg.HeapWords)
			outOfRange := func(name string, body func(tx tm.Tx) uint64) {
				t.Helper()
				defer func() {
					err, ok := recover().(error)
					if !ok || errors.Is(err, tm.ErrUpdateInReadTx) || !strings.Contains(err.Error(), "out of range") {
						t.Errorf("%s: panic %v, want an out-of-range error", name, err)
					}
				}()
				e.Read(body)
			}
			outOfRange("Load(0)", func(tx tm.Tx) uint64 { return tx.Load(0) })
			loadN := func(p tm.Ptr, n int) func(tx tm.Tx) uint64 {
				return func(tx tm.Tx) uint64 { return tx.(tm.RangeLoader).LoadN(p, n)[0] }
			}
			outOfRange("LoadN(0, 4)", loadN(0, 4))
			outOfRange("LoadN ending at the heap's end", loadN(heap-tm.MaxLoadN+1, tm.MaxLoadN))
			outOfRange("LoadN starting at the heap's end", loadN(heap, 1))
			outOfRange("LoadN ending far past the heap", loadN(heap-1, tm.MaxLoadN))
			outOfRange("LoadN(p, 0)", loadN(tm.Root(0), 0))
			outOfRange("LoadN(p, -1)", loadN(tm.Root(0), -1))
			outOfRange("LoadN(p, MaxLoadN+1)", loadN(tm.Root(0), tm.MaxLoadN+1))

			e.Read(func(tx tm.Tx) uint64 {
				if v := tx.(tm.RangeLoader).LoadN(heap-tm.MaxLoadN, tm.MaxLoadN); len(v) != tm.MaxLoadN {
					t.Errorf("LoadN of the heap's last %d words returned %d", tm.MaxLoadN, len(v))
				}
				return 0
			})
			p := loadNBlock(e)
			if got := e.Read(loadN(p, 1)); got != 1 {
				t.Errorf("after the panics, LoadN(p, 1)[0] = %d, want 1", got)
			}
		})
	}
}

// TestLoadNAllocatesNothing: the view is the handle's own buffer, so a Read
// whose body calls LoadN allocates nothing.
func TestLoadNAllocatesNothing(t *testing.T) {
	if !dcas.Native {
		t.Skip("allocation counts are the flat TM word's")
	}
	for _, wf := range []bool{false, true} {
		e, _ := newPTM(t, wf, pmem.StrictMode, 1)
		t.Run(e.Name(), func(t *testing.T) {
			defer e.Close()
			p := loadNBlock(e)
			body := func(tx tm.Tx) uint64 {
				var sum uint64
				for _, v := range tx.(tm.RangeLoader).LoadN(p, tm.MaxLoadN) {
					sum += v
				}
				return sum
			}
			if got := e.Read(body); got != tm.MaxLoadN*(tm.MaxLoadN+1)/2 {
				t.Fatalf("sum of the block = %d", got)
			}
			if avg := testing.AllocsPerRun(200, func() { e.Read(body) }); avg != 0 {
				t.Errorf("a Read through LoadN allocates %v times, want 0", avg)
			}
		})
	}
}
