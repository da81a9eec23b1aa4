package conformtest

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"onefile/internal/pmem"
)

// TestCrashReloadsTheRawView: Crash resets the volatile raw view to the image
// with plain stores (one bulk copy), which only its quiescence contract makes
// legal. So the test is shaped like a caller that keeps the contract:
// goroutines use the device through its atomic accessors and the region
// slice, are joined, the device crashes, and other goroutines — started after
// the crash — read every word. Under -race the detector sees exactly the
// hand-over the contract promises (join → Crash → go) and nothing else orders
// the copy against the accessors. After the crash every raw word reads as its
// image, and nothing is staged any more: ordering points on every slot leave
// the image as Crash left it.
func TestCrashReloadsTheRawView(t *testing.T) {
	const workers = 4
	for name, mode := range map[string]pmem.Mode{"strict": pmem.StrictMode, "relaxed": pmem.RelaxedMode} {
		t.Run(name, func(t *testing.T) {
			forEach(t, func(t *testing.T, mk func(tb testing.TB, cfg pmem.Config) pmem.Device) {
				d := mk(t, smallCfg(mode))
				raw, pairs := d.RawWords(), d.PairWords()
				region := d.RawRegion(0, raw)
				for round := 0; round < 3; round++ {
					var wg sync.WaitGroup
					for g := 0; g < workers; g++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							rng := rand.New(rand.NewSource(int64(100*round + g)))
							for i := 0; i < 400; i++ {
								off := rng.Intn(raw)
								switch rng.Intn(6) {
								case 0:
									d.RawStore(off, rng.Uint64())
								case 1:
									region[off].Add(1)
								case 2:
									d.RawCAS(off, d.RawLoad(off), rng.Uint64())
								case 3:
									d.Flush(g, off, 1+rng.Intn(min(12, raw-off)))
								case 4:
									d.FlushPair(g, rng.Intn(pairs), rng.Uint64(), uint64(round*400+i))
								default:
									if rng.Intn(4) == 0 {
										d.Fence(g)
									}
								}
							}
							// Leave with something staged that no ordering point follows.
							d.RawStore(g, uint64(g+1))
							d.Flush(g, g, 1)
							d.FlushPair(g, g, uint64(g+1), uint64(round*400+400))
						}()
					}
					wg.Wait()
					d.Crash()

					mismatches := make([]int, workers)
					for g := 0; g < workers; g++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for off := g; off < raw; off += workers {
								if d.RawLoad(off) != d.ImageRaw(off) || region[off].Load() != d.ImageRaw(off) {
									mismatches[g]++
								}
							}
						}()
					}
					wg.Wait()
					for g, n := range mismatches {
						if n != 0 {
							t.Fatalf("round %d: %d raw words of goroutine %d's share differ from the image after Crash", round, n, g)
						}
					}
					before := snapshotOf(t, d)
					for s := 0; s < workers; s++ {
						d.Fence(s)
					}
					if !bytes.Equal(before, snapshotOf(t, d)) {
						t.Fatalf("round %d: an ordering point after Crash changed the image — a staged flush survived", round)
					}
				}
			})
		})
	}
}
